"""The public surface: every exported name resolves, two result types, and no
tuning knob is left.

A value is an ``EvalResult`` and a comparison is an ``IdentityRecord``: every
check returns one record or a tuple of them, and no report class is left.

Each parameter set has one measure and one evaluator, so no public callable
takes an evaluator configuration, a series term cap, a route, or a
tolerance that only decides when to stop or where a disk ends.  The
series functions take no stop tolerance either.  The benchmark's traced
run wraps each layer by ``getattr`` on every name of its ``__all__``, so a
stale entry there would crash it.

``import foxwright`` loads the series layers only; the measure layer's names
(and numpy with them) load on first access.

The defaulted parameters left are pinned, each with the caller outside the
tests that sets it, and so are the library names the benchmark reads.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
import typing
from pathlib import Path

import pytest

import foxwright
from foxwright import IdentityRecord, cli, hfun, series
from foxwright.series import _record

MODULES = ["foxwright"] + [
    f"foxwright.{info.name}" for info in pkgutil.iter_modules(foxwright.__path__)
]
REMOVED_PARAMETERS = {"config", "max_terms"}
REMOVED_KNOBS = {"route", "rel_tol", "route_tol", "threshold"}
DELETED_TYPES = {
    "BoundsReport", "StieltjesLowerBoundReport", "CmReport", "RatioScanReport",
    "MomentIdentityReport", "FiniteLaplaceReport", "NonnegReport",
}
# the parameter types are inputs, not results
PARAMETER_TYPES = {"ParameterSet", "DerivedConstants"}
CHECK_FUNCTIONS = {
    "verify_representation", "moment_identity_check", "verify_stieltjes",
    "laplace_lift_check", "finite_laplace_identity", "four_param_representation",
    "exp_kernel_bounds", "lifted_kernel_bounds", "stieltjes_lower_bound", "cm_check",
    "shifted_stieltjes_ratio", "ratio_monotonicity_scan", "hfun_nonneg_scan",
}
# Every defaulted parameter of a public callable, exception types aside,
# with the caller outside the tests that sets it.
DEFAULTED_PARAMETERS = {
    # scripts/verify_all.py and perfbench/test_perfbench.py name a single series
    "MeasureEvaluator.density.method",
    # the CLI's --tol
    "verify_representation.tol", "verify_stieltjes.tol", "laplace_lift_check.tol",
    "ratio_monotonicity_scan.tol",
    # the CLI's --max-order
    "cm_check.max_order",
    # laplace_lift_check passes the decay rate of its integrand
    "integrate_gamma_weighted.decay",
    # the benchmark's identity-cli worker passes each argument list
    "main.argv",
}
EXCEPTION_TYPES = {
    name for name in foxwright.__all__
    if inspect.isclass(getattr(foxwright, name))
    and issubclass(getattr(foxwright, name), BaseException)
}
SERIES_FUNCTIONS = [
    series.fox_wright,
    series.fox_wright_value,
    series.hyper_pfq,
    series.wright_function,
    series.mittag_leffler,
    series.four_param_wright,
]


def _public_callables(module):
    """(qualified name, function) for every callable the module exports,
    with the constructor and public methods of exported classes."""
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if inspect.isclass(obj):
            yield f"{attr}.__init__", obj.__init__
            for name, fn in vars(obj).items():
                if inspect.isfunction(fn) and not name.startswith("_"):
                    yield f"{attr}.{name}", fn
        elif callable(obj):
            yield attr, obj


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter, so no foxwright module is loaded yet."""
    src = Path(foxwright.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_unloaded():
    """``import foxwright`` and a series evaluation load no numpy; the first
    measure-layer name loads its module."""
    _run_fresh("""
        import sys
        import foxwright
        assert "numpy" not in sys.modules
        assert foxwright.fox_wright(foxwright.DOUBLE_POLE, 0.5).ok()
        assert "numpy" not in sys.modules and "foxwright.hfun" not in sys.modules
        foxwright.get_evaluator
        assert "foxwright.hfun" in sys.modules and "numpy" in sys.modules
    """)


def test_every_export_is_listed_and_star_importable():
    """Before any measure-layer name is touched, ``dir`` lists every export
    and ``from foxwright import *`` binds each one."""
    _run_fresh("""
        import foxwright
        assert set(foxwright.__all__) <= set(dir(foxwright))
        namespace = {}
        exec("from foxwright import *", namespace)
        assert all(namespace[name] is getattr(foxwright, name) for name in foxwright.__all__)
    """)


def test_lazy_table_is_the_measure_layer_exports():
    assert {name: set(names) for name, names in foxwright._LAZY_EXPORTS.items()} == {
        name: set(importlib.import_module(f"foxwright.{name}").__all__)
        for name in ("hfun", "representations", "bounds")
    }
    assert foxwright._LAZY.keys() <= set(foxwright.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        foxwright.no_such_name


def _parameters_named(module_name, names):
    module = importlib.import_module(module_name)
    return [
        (qualname, param)
        for qualname, fn in _public_callables(module)
        for param in inspect.signature(fn).parameters
        if param in names
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_config_or_term_cap_parameters(name):
    assert _parameters_named(name, REMOVED_PARAMETERS) == []


@pytest.mark.parametrize("name", MODULES)
def test_no_route_or_tolerance_knobs(name):
    assert _parameters_named(name, REMOVED_KNOBS) == []


def test_defaulted_parameters_are_pinned():
    defaulted = {
        f"{qualname}.{name}"
        for module in MODULES
        for qualname, fn in _public_callables(importlib.import_module(module))
        if qualname.split(".")[0] not in EXCEPTION_TYPES
        for name, param in inspect.signature(fn).parameters.items()
        if param.default is not inspect.Parameter.empty
    }
    assert defaulted == DEFAULTED_PARAMETERS


def test_benchmark_reads_resolve():
    """perfbench reads the evaluator cache, the table's node count and the
    empty ``_tau`` for its work figure, and checks the residue series alone
    against its oracle."""
    import numpy as np

    ev = foxwright.get_evaluator(foxwright.DOUBLE_POLE)
    assert hfun._EVALUATORS[foxwright.DOUBLE_POLE] is ev
    assert isinstance(ev._res_nodes_used, int) and ev._res_nodes_used > 0
    assert ev._tau.size == 0
    t = np.array([0.2, 0.5])
    residue = ev.density(t, method=foxwright.HfunMethod.RESIDUE_SERIES)
    assert np.allclose(residue, ev.density(t), rtol=1e-12, atol=0.0)


def test_residue_table_is_built_once():
    """Only ``MeasureEvaluator.__init__`` assigns the residue table."""
    writers = set()
    for fn in ast.walk(ast.parse(inspect.getsource(hfun))):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and node.attr.startswith("_res_")):
                    writers.add(fn.name)
    assert writers == {"__init__"}


@pytest.mark.parametrize("fn", SERIES_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_series_functions_take_no_stop_tolerance(fn):
    assert "tol" not in inspect.signature(fn).parameters


def test_cli_has_no_switch():
    """The CLI builds its parser once per process, and nothing turns that off
    or tunes it: ``main`` takes only ``argv``, the parser builder takes
    nothing, no environment variable is read, and the module holds no value
    beyond its command tables."""
    assert list(inspect.signature(cli.main).parameters) == ["argv"]
    assert list(inspect.signature(cli._build_parser).parameters) == []
    assert not re.search(r"\bos\b|environ|getenv", inspect.getsource(cli))
    values = {
        name for name, value in vars(cli).items()
        if not name.startswith("__") and not (callable(value) or inspect.ismodule(value))
    }
    assert values == {
        "annotations", "NAMED_SETS", "_CM_FUNCTIONS", "_COMMANDS", "_FIELDS", "_FLAGS",
        "_GRID_HINTS", "_SERIES_STATUS", "_Z_HELP",
    }


@pytest.mark.parametrize("name", MODULES)
def test_no_report_types(name):
    module = importlib.import_module(name)
    assert DELETED_TYPES.isdisjoint(getattr(module, "__all__", ()))
    assert [attr for attr in dir(module) if attr.endswith("Report")] == []


def test_two_result_types():
    exported = {
        attr: getattr(importlib.import_module(name), attr)
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", ())
    }
    results = {attr for attr, obj in exported.items()
               if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert results - PARAMETER_TYPES == {"EvalResult", "IdentityRecord"}
    assert foxwright.IdentityRecord is series.IdentityRecord
    assert "IdentityRecord" in foxwright.__all__


@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS))
def test_checks_return_records(name):
    ret = typing.get_type_hints(getattr(foxwright, name))["return"]
    if ret is not IdentityRecord:
        assert typing.get_origin(ret) is tuple
        assert set(typing.get_args(ret)) <= {IdentityRecord, Ellipsis}


def test_every_record_returner_is_listed():
    """A public function that returns records is one of the checks above."""
    returners = set()
    for name in foxwright.__all__:
        obj = getattr(foxwright, name)
        if inspect.isfunction(obj):
            ret = typing.get_type_hints(obj).get("return")
            if ret is IdentityRecord or IdentityRecord in typing.get_args(ret):
                returners.add(name)
    assert returners == CHECK_FUNCTIONS


class TestRecordVerdicts:
    """``_record`` judges ``==``, ``<=`` and ``>=`` with a tolerance on
    rel_err = |lhs - rhs| / (1 + max(|lhs|, |rhs|)); a NaN side fails."""

    def verdict(self, lhs, rhs, tol, relation="==", applies=True):
        return _record("t", "", 0.0, lhs, rhs, tol, relation, applies).verdict

    def test_fields(self):
        rec = _record("t", "key", 2, 3.0, 1.0, 0.5, "<=")
        assert (rec.z, rec.lhs, rec.relation, rec.rhs) == (2.0, 3.0, "<=", 1.0)
        assert (rec.abs_err, rec.rel_err) == (2.0, 0.5)
        assert rec.verdict == "pass" and rec.ok()  # rel_err == tol

    def test_equality_at_the_boundary(self):
        # rel_err of (3, 1) is exactly 2 / 4
        assert self.verdict(3.0, 1.0, 0.5) == "pass"
        assert self.verdict(3.0, 1.0, math.nextafter(0.5, 0.0)) == "fail"
        assert self.verdict(1.0, 1.0, 0.0) == "pass"

    def test_less_equal_at_the_boundary(self):
        assert self.verdict(1.0, 1.0, 0.0, "<=") == "pass"
        assert self.verdict(math.nextafter(1.0, 2.0), 1.0, 0.0, "<=") == "fail"
        assert self.verdict(-5.0, 1.0, 0.0, "<=") == "pass"  # holds outright
        assert self.verdict(3.0, 1.0, 0.5, "<=") == "pass"  # within tol
        assert self.verdict(3.0, 1.0, 0.49, "<=") == "fail"

    def test_greater_equal_at_the_boundary(self):
        assert self.verdict(-1e-9, -1e-9, 0.0, ">=") == "pass"
        assert self.verdict(math.nextafter(-1e-9, -1.0), -1e-9, 0.0, ">=") == "fail"
        assert self.verdict(5.0, 1.0, 0.0, ">=") == "pass"
        assert self.verdict(1.0, 3.0, 0.5, ">=") == "pass"
        assert self.verdict(1.0, 3.0, 0.49, ">=") == "fail"

    @pytest.mark.parametrize("relation", ["==", "<=", ">="])
    @pytest.mark.parametrize("sides", [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_nan_side_fails(self, relation, sides):
        assert self.verdict(*sides, math.inf, relation) == "fail"

    @pytest.mark.parametrize("relation", ["==", "<=", ">="])
    @pytest.mark.parametrize("sides", [(1.0, 1.0), (math.nan, 1.0), (5.0, 1.0)])
    def test_not_applicable(self, relation, sides):
        rec = _record("t", "", 0.0, *sides, 0.0, relation, applies=False)
        assert rec.verdict == "n/a" and not rec.ok()
        # the comparison is still recorded
        assert rec.lhs is sides[0] and rec.rhs == sides[1] and rec.relation == relation
