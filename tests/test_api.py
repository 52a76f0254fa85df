"""The public surface: every exported name resolves, and no tuning knob is left.

Each parameter set has one measure and one evaluator, so no public callable
takes an evaluator configuration or a series term cap.  The benchmark's
traced run wraps each layer by ``getattr`` on every name of its
``__all__``, so a stale entry there would crash it.
"""

import importlib
import inspect
import pkgutil

import pytest

import foxwright

MODULES = ["foxwright"] + [
    f"foxwright.{info.name}" for info in pkgutil.iter_modules(foxwright.__path__)
]
REMOVED_PARAMETERS = {"config", "max_terms"}


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


@pytest.mark.parametrize("name", MODULES)
def test_no_config_or_term_cap_parameters(name):
    module = importlib.import_module(name)
    found = [
        (qualname, param)
        for qualname, fn in _public_callables(module)
        for param in inspect.signature(fn).parameters
        if param in REMOVED_PARAMETERS
    ]
    assert found == []

