"""The public surface: the 40 exported names, pinned, every one resolving, two
result types, and no tuning knob is left.  Every ``python`` block of the
README runs.

A value is an ``EvalResult`` and a comparison is an ``IdentityRecord``: every
check returns one record or a tuple of them, and no report class is left.
Every check at a z takes a sequence of z and returns one entry per point,
each equal to the call on that point alone; no scalar twin is left, and the
CLI calls these public checks.

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
from conftest import load_file

import foxwright
from foxwright import IdentityRecord, cli, hfun, series
from foxwright.series import _record

MODULES = ["foxwright"] + [
    f"foxwright.{info.name}" for info in pkgutil.iter_modules(foxwright.__path__)
]
# foxwright.__all__, in order
EXPORTS = [
    "ParameterSet", "DerivedConstants", "derive_constants", "correction_coeffs",
    "gamma_ratio", "in_domain", "shift_parameters",
    "EvalResult", "IdentityRecord", "SeriesStatus", "fox_wright", "fox_wright_value",
    "four_param_wright", "correction_series",
    "HfunMethod", "MeasureEvaluator", "get_evaluator", "hfun_nonneg_scan",
    "moment_identity_check", "eval_via_representation", "verify_representation",
    "verify_stieltjes", "lifted_value", "laplace_lift_check",
    "exp_kernel_bounds", "lifted_kernel_bounds", "stieltjes_lower_bound", "cm_check",
    "ratio_monotonicity_scan",
    "NAMED_SETS",
    "FoxwrightError", "ParameterError", "PoleError", "OutsideDomainError", "DomainError",
    "NonConvergentError", "QuadratureFailure", "DegenerateError", "ConstraintError",
    "DivisionError",
]
# module -> names it no longer defines: the convergence classes, which one
# private rule replaces, wrappers whose values the row series gives, the
# Touchard polynomials, which the one atom functional replaces, the catalog
# aliases, which NAMED_SETS and foxwright.catalog give, the four-parameter
# check, which verify_representation on its row set gives, the finite
# Laplace adjudication of one catalog set, now the private
# representations._finite_laplace_identity, the shifted ratio, now the
# private bounds._shifted_stieltjes_ratio whose records lead
# ratio_monotonicity_scan's, the power kernel's own atom function, which
# the derivative half of representations._power_kernel replaces, the
# Bernoulli polynomial that only tests called, the Stieltjes integral,
# whose values are verify_stieltjes's lhs, and the bound pair that the
# private Jensen-chord sandwich bounds._sandwich folds in
REMOVED_NAMES = {
    "foxwright": {"EXP_COLLAPSE", "TWIN_QUARTER", "DOUBLE_POLE", "IDENTITY",
                  "finite_laplace_identity", "shifted_stieltjes_ratio", "stieltjes_eval"},
    "foxwright.bounds": {"shifted_stieltjes_ratio", "_bound_pair"},
    "foxwright.hfun": {"_newton_to_power"},
    "foxwright.params": {"Convergence", "classify_convergence", "_pole_residue"},
    "foxwright.representations": {"four_param_representation", "finite_laplace_identity",
                                  "_power_atoms", "stieltjes_eval"},
    "foxwright.series": {"hyper_pfq", "wright_function", "mittag_leffler"},
    "foxwright.special": {"touchard_sum", "touchard_poly", "log_gamma_complex_vec",
                          "bernoulli_poly"},
}
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
    "laplace_lift_check",
    "exp_kernel_bounds", "lifted_kernel_bounds", "stieltjes_lower_bound", "cm_check",
    "ratio_monotonicity_scan", "hfun_nonneg_scan",
}
# Every defaulted parameter of a public callable, exception types aside,
# with the caller outside the tests that sets it.
DEFAULTED_PARAMETERS = {
    # scripts/verify_all.py and perfbench/test_perfbench.py name a single series
    "MeasureEvaluator.density.method",
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


def test_exports_are_pinned():
    assert foxwright.__all__ == EXPORTS


@pytest.mark.parametrize("name", sorted(REMOVED_NAMES))
def test_removed_names_are_gone(name):
    module = importlib.import_module(name)
    gone = REMOVED_NAMES[name]
    assert gone.isdisjoint(vars(module)) and gone.isdisjoint(module.__all__)
    assert not any(hasattr(module, attr) for attr in gone)
    assert gone.isdisjoint(dir(foxwright))


def test_removed_methods_are_gone():
    assert not hasattr(hfun.MeasureEvaluator, "_group_moments")


README_PYTHON = re.findall(
    r"^```python\n(.*?)^```", (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.S | re.M,
)


def test_readme_has_python_blocks():
    assert len(README_PYTHON) >= 2


@pytest.mark.parametrize("index", range(len(README_PYTHON)))
def test_readme_python_block_runs(index):
    """Each ``python`` block of the README runs on its own; its asserts hold."""
    exec(compile(README_PYTHON[index], f"README.md python block {index}", "exec"), {})


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter, so no foxwright module is loaded yet."""
    src = Path(foxwright.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_unloaded():
    """``import foxwright`` and a series evaluation load no numpy, and no
    ``hashlib``, ``fractions``, ``dataclasses``, ``inspect`` or ``json``
    either; the first report row loads ``hashlib`` and the first
    measure-layer name loads its module."""
    _run_fresh("""
        import sys
        import foxwright
        deferred = {"numpy", "hashlib", "_hashlib", "fractions", "dataclasses", "inspect",
                    "json"}
        assert not deferred & set(sys.modules)
        assert foxwright.fox_wright(foxwright.NAMED_SETS["double-pole"], 0.5).ok()
        assert not deferred & set(sys.modules) and "foxwright.hfun" not in sys.modules
        assert foxwright.NAMED_SETS["double-pole"].hash_key() == "0427ae0a7ebdbf5c"
        assert "hashlib" in sys.modules
        foxwright.get_evaluator
        assert "foxwright.hfun" in sys.modules and "numpy" in sys.modules
    """)


def test_library_checks_leave_hashlib_unloaded():
    """A record carries no hash of its set: ``import foxwright.cli`` and the
    checks, bounds and scans load no ``hashlib``, and the CLI's first report
    row does."""
    _run_fresh("""
        import contextlib, io, sys
        import foxwright, foxwright.cli
        dp = foxwright.NAMED_SETS["double-pole"]
        assert all(r.ok() for r in foxwright.verify_representation(dp, [-1.0, 0.5]))
        foxwright.exp_kernel_bounds(dp, [0.5])
        foxwright.ratio_monotonicity_scan(dp, 1.0, 1.0, [0.1, 0.5])
        foxwright.cm_check(dp, [0.5])
        foxwright.hfun_nonneg_scan(dp)
        assert not {"hashlib", "_hashlib"} & set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert foxwright.cli.main(["eval", "--params", "identity", "--z", "0"]) == 0
        assert "hashlib" in sys.modules
    """)


def test_evaluators_and_cli_leave_fractions_unloaded():
    """Building every catalog evaluator and one ``cli.main`` call of each
    subcommand load neither ``fractions`` nor ``decimal``: the Bernoulli
    tables are built in integers."""
    _run_fresh("""
        import contextlib, io, sys
        import foxwright, foxwright.cli
        for params in foxwright.NAMED_SETS.values():
            foxwright.get_evaluator(params)
        assert "foxwright.hfun" in sys.modules
        argvs = [
            ["eval", "--z", "0.5"], ["hfun", "--z", "0.1,0.5"], ["moments", "--k", "0..3"],
            ["verify-representation", "--z", "0.5"], ["verify-stieltjes", "--z", "0.5"],
            ["verify-laplace", "--lift", "2", "--z", "0.5"], ["bounds", "--z", "0.5"],
            ["cm-check", "--z", "0.5"], ["ratio-scan", "--z", "0.1,0.5"],
        ]
        assert sorted(a[0] for a in argvs) == sorted(foxwright.cli._COMMANDS)
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert foxwright.cli.main([*argv, "--params", "double-pole"]) == 0, argv
        assert not {"fractions", "decimal"} & set(sys.modules)
    """)


def test_cli_goes_through_the_lazy_front_door():
    """``import foxwright.cli`` and an ``eval`` on a comma-list grid load no
    numpy, no measure module and no ``dataclasses`` or ``inspect``;
    ``moments`` loads the modules it calls and no others."""
    _run_fresh("""
        import contextlib, io, sys
        import foxwright.cli
        deferred = {"numpy", "foxwright.hfun", "foxwright.quadrature",
                    "foxwright.representations", "foxwright.bounds", "dataclasses", "inspect"}
        assert not deferred & set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert foxwright.cli.main(["eval", "--params", "identity", "--z", "0,1"]) == 0
        assert not deferred & set(sys.modules)
        with contextlib.redirect_stdout(io.StringIO()):
            assert foxwright.cli.main(["moments", "--params", "double-pole", "--k", "0..3"]) == 0
        assert {"foxwright.hfun", "foxwright.representations"} <= set(sys.modules)
        assert "foxwright.bounds" not in sys.modules
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
    """perfbench's worker forgets every set the package keeps, it reads the
    table's node count and the empty ``_tau`` for its work figure, and it
    checks the residue series alone against its oracle."""
    import numpy as np

    worker = load_file("perfbench/worker.py")
    double_pole = foxwright.NAMED_SETS["double-pole"]
    ev = foxwright.get_evaluator(double_pole)
    worker._forget_sets()
    assert foxwright.get_evaluator(double_pole) is not ev
    assert isinstance(ev._res_nodes_used, int) and ev._res_nodes_used > 0
    assert ev._tau.size == 0
    t = np.array([0.2, 0.5])
    residue = ev.density(t, method=foxwright.HfunMethod.RESIDUE_SERIES)
    assert np.allclose(residue, ev.density(t), rtol=1e-12, atol=0.0)


def test_one_bounded_cache():
    """Every field the package keeps of a set lives in the set's one record:
    ``params._set_record`` is the only bounded cache, and no class keeps a
    field lazily in its instances."""
    bounded = {
        f"{module}.{name}"
        for module in MODULES
        for name, value in vars(importlib.import_module(module)).items()
        if getattr(value, "cache_info", None) and value.cache_info().maxsize is not None
        and value.__module__ == module
    }
    assert bounded == {"foxwright.params._set_record"}
    src = Path(foxwright.__file__).parent
    assert not [p.name for p in src.glob("*.py") if "cached_property" in p.read_text()]


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
    beyond its command tables and the largest grid it takes."""
    assert list(inspect.signature(cli.main).parameters) == ["argv"]
    assert list(inspect.signature(cli._build_parser).parameters) == []
    assert not re.search(r"\bos\b|environ|getenv", inspect.getsource(cli))
    values = {
        name for name, value in vars(cli).items()
        if not name.startswith("__") and not (callable(value) or inspect.ismodule(value))
    }
    assert values == {
        "annotations", "_CM_FUNCTIONS", "_COMMANDS", "_FIELDS", "_FLAGS", "_GRID_HINTS",
        "_MAX_POINTS", "_Z_HELP",
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
    # the named tuples: the record types, which import no dataclasses
    results = {attr for attr, obj in exported.items()
               if inspect.isclass(obj) and issubclass(obj, tuple) and hasattr(obj, "_fields")}
    assert results - PARAMETER_TYPES == {"EvalResult", "IdentityRecord"}
    assert foxwright.IdentityRecord is series.IdentityRecord
    assert "IdentityRecord" in foxwright.__all__


@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS))
def test_checks_fix_their_own_tolerance(name):
    """Each check judges at its own constant tolerance, and cm_check
    differences with its own step and orders."""
    params = inspect.signature(getattr(foxwright, name)).parameters
    assert {"tol", "h", "max_order"}.isdisjoint(params)


# A record, a tuple of records, or a tuple of record pairs, one per grid point
RECORD_SHAPES = {
    IdentityRecord,
    tuple[IdentityRecord, ...],
    tuple[tuple[IdentityRecord, IdentityRecord], ...],
}


def _holds_records(hint) -> bool:
    return hint is IdentityRecord or any(map(_holds_records, typing.get_args(hint)))


@pytest.mark.parametrize("name", sorted(CHECK_FUNCTIONS))
def test_checks_return_records(name):
    assert typing.get_type_hints(getattr(foxwright, name))["return"] in RECORD_SHAPES


def test_every_record_returner_is_listed():
    """A public function that returns records is one of the checks above."""
    returners = set()
    for name in foxwright.__all__:
        obj = getattr(foxwright, name)
        if inspect.isfunction(obj) and _holds_records(typing.get_type_hints(obj).get("return")):
            returners.add(name)
    assert returners == CHECK_FUNCTIONS


# Each check at a z, with its arguments before the grid and a 5-point grid
# that takes the continuation past the series disk where it has one.
GRID_CHECKS = {
    "verify_representation": ((), [-3.0, -1.0, 0.0, 1.0, 2.0]),
    "verify_stieltjes": ((2.0,), [0.1, 0.3, 0.5, 1.5, 2.0]),
    "lifted_value": ((1.5,), [-2.0, -0.5, 0.0, 0.3, 0.9]),
    "laplace_lift_check": ((2.0,), [-0.6, -0.3, 0.0, 0.2, 0.5]),
    "exp_kernel_bounds": ((), [0.0, 0.1, 0.5, 1.0, 2.0]),
    "lifted_kernel_bounds": ((2.0,), [0.0, 0.1, 0.5, 1.0, 2.0]),
    "stieltjes_lower_bound": ((3.0,), [0.0, 0.1, 0.2, 0.3, 0.5]),
}


@pytest.mark.parametrize("name", sorted(GRID_CHECKS))
def test_grid_check_gives_one_entry_per_point(name):
    """A grid gives a tuple with one entry per z, each equal, field by field,
    to the call on that z alone."""
    check, (args, zs) = getattr(foxwright, name), GRID_CHECKS[name]
    entries = check(foxwright.NAMED_SETS["double-pole"], *args, zs)
    assert isinstance(entries, tuple) and len(entries) == 5
    for z, entry in zip(zs, entries):
        assert entry == check(foxwright.NAMED_SETS["double-pole"], *args, [z])[0], z


# The sets whose endpoint atoms take derivatives: m = 1 and an m = 2 row set
ATOM_SETS = {
    "twin-quarter": foxwright.NAMED_SETS["twin-quarter"],
    "m=2": foxwright.ParameterSet([(1.0, 1.0)], [(0.3, 0.5), (-0.8, 0.5)]),
}


@pytest.mark.parametrize("set_name", sorted(ATOM_SETS))
@pytest.mark.parametrize("name", ["verify_representation", "verify_stieltjes", "lifted_value",
                                  "laplace_lift_check"])
def test_grid_check_with_derivative_atoms(name, set_name):
    """Where the atoms carry derivatives up to order m, which each kernel
    sums over the whole grid at once, every entry keeps the bits of the
    call on that z alone; the double-pole grids (rho = 1) scaled by 1/rho."""
    params = ATOM_SETS[set_name]
    check, (args, zs) = getattr(foxwright, name), GRID_CHECKS[name]
    zs = [z / foxwright.derive_constants(params).rho for z in zs]
    entries = check(params, *args, zs)
    assert len(entries) == 5
    for z, entry in zip(zs, entries):
        assert repr(entry) == repr(check(params, *args, [z])[0]), z


def test_cli_calls_the_public_checks():
    """The CLI imports no private name of the check modules but the two that
    parse the record names the bounds module builds, and at module level
    imports neither numpy nor a measure module: it reads the checks from the
    package root."""
    tree = ast.parse(Path(cli.__file__).read_text())
    private = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("representations", "bounds")
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == {"_cm_order", "_scan_direction"}
    # every dotted part of each module-level import: ``from . import hfun``
    # and ``import numpy.linalg`` name their module as much as ``import numpy``
    top = {
        part for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
        for part in name.split(".")
    }
    assert not top & {"numpy", "hfun", "quadrature", "representations", "bounds"}, top


class TestRecordVerdicts:
    """``_record`` judges ``==``, ``<=`` and ``>=`` with a tolerance on
    rel_err = |lhs - rhs| / (1 + max(|lhs|, |rhs|)); a NaN side fails."""

    def verdict(self, lhs, rhs, tol, relation="==", applies=True):
        return _record("t", 0.0, lhs, rhs, tol, relation, applies).verdict

    def test_fields(self):
        rec = _record("t", 2, 3.0, 1.0, 0.5, "<=")
        assert list(rec._fields) == [
            "identity", "z", "lhs", "relation", "rhs", "abs_err", "rel_err", "verdict"]
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
        rec = _record("t", 0.0, *sides, 0.0, relation, applies=False)
        assert rec.verdict == "n/a" and not rec.ok()
        # the comparison is still recorded
        assert rec.lhs is sides[0] and rec.rhs == sides[1] and rec.relation == relation
