"""The public surface: every exported name resolves, and no tuning knob is left.

Each parameter set has one measure and one evaluator, so no public callable
takes an evaluator configuration, a series term cap, a route, or a
tolerance that only decides when to stop or where a disk ends.  The
series functions take no stop tolerance either.  The benchmark's traced
run wraps each layer by ``getattr`` on every name of its ``__all__``, so a
stale entry there would crash it.
"""

import importlib
import inspect
import pkgutil
import re

import pytest

import foxwright
from foxwright import cli, series

MODULES = ["foxwright"] + [
    f"foxwright.{info.name}" for info in pkgutil.iter_modules(foxwright.__path__)
]
REMOVED_PARAMETERS = {"config", "max_terms"}
REMOVED_KNOBS = {"route", "rel_tol", "route_tol", "threshold"}
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
