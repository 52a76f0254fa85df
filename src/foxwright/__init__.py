"""Generalized Wright (Fox-Wright) functions and their representing measures.

The package is organised in layers:

* :mod:`foxwright.special` - scalar/vector log-gamma, Bernoulli, Stirling.
* :mod:`foxwright.params` - parameter rows, derived constants, domains.
* :mod:`foxwright.series` - direct summation and named specialisations, and
  the two result types: :class:`EvalResult` for a value and
  :class:`IdentityRecord` for a comparison.
* :mod:`foxwright.hfun` - the representing density on (0, rho), from the
  pole residues and from the endpoint series.
* :mod:`foxwright.representations` - integral representations and identity
  verifiers built from the density.
* :mod:`foxwright.bounds` - two-sided exponential/Stieltjes bounds, complete
  monotonicity checks, quotient monotonicity scans.
* :mod:`foxwright.cli` - batch front end emitting JSON lines or CSV.

``import foxwright`` loads the series layers only.  The names exported from
``hfun``, ``representations`` and ``bounds`` load their module, and numpy
with it, on first access (PEP 562 module ``__getattr__``).
"""

import importlib

from .errors import (
    ConstraintError,
    DegenerateError,
    DivisionError,
    DomainError,
    FoxwrightError,
    NonConvergentError,
    OutsideDomainError,
    ParameterError,
    PoleError,
    QuadratureFailure,
)
from .params import (
    Convergence,
    DerivedConstants,
    ParameterSet,
    classify_convergence,
    correction_coeffs,
    derive_constants,
    gamma_ratio,
    in_domain,
    shift_parameters,
)
from .series import (
    EvalResult,
    IdentityRecord,
    SeriesStatus,
    correction_series,
    four_param_wright,
    fox_wright,
    fox_wright_value,
    hyper_pfq,
    mittag_leffler,
    wright_function,
)
from .catalog import (
    DOUBLE_POLE,
    EXP_COLLAPSE,
    IDENTITY,
    NAMED_SETS,
    TWIN_QUARTER,
)

__all__ = [
    "ParameterSet",
    "DerivedConstants",
    "Convergence",
    "derive_constants",
    "classify_convergence",
    "correction_coeffs",
    "gamma_ratio",
    "in_domain",
    "shift_parameters",
    "EvalResult",
    "IdentityRecord",
    "SeriesStatus",
    "fox_wright",
    "fox_wright_value",
    "hyper_pfq",
    "wright_function",
    "mittag_leffler",
    "four_param_wright",
    "correction_series",
    "HfunMethod",
    "MeasureEvaluator",
    "get_evaluator",
    "hfun_nonneg_scan",
    "moment_identity_check",
    "eval_via_representation",
    "verify_representation",
    "stieltjes_eval",
    "verify_stieltjes",
    "lifted_value",
    "laplace_lift_check",
    "finite_laplace_identity",
    "four_param_representation",
    "exp_kernel_bounds",
    "lifted_kernel_bounds",
    "stieltjes_lower_bound",
    "cm_check",
    "shifted_stieltjes_ratio",
    "ratio_monotonicity_scan",
    "EXP_COLLAPSE",
    "TWIN_QUARTER",
    "DOUBLE_POLE",
    "IDENTITY",
    "NAMED_SETS",
    "FoxwrightError",
    "ParameterError",
    "PoleError",
    "OutsideDomainError",
    "DomainError",
    "NonConvergentError",
    "QuadratureFailure",
    "DegenerateError",
    "ConstraintError",
    "DivisionError",
]

__version__ = "0.1.0"

# The measure layer's exports, by module: each loads on first access.
_LAZY_EXPORTS = {
    "hfun": ("HfunMethod", "MeasureEvaluator", "get_evaluator", "hfun_nonneg_scan"),
    "representations": (
        "eval_via_representation", "verify_representation", "moment_identity_check",
        "stieltjes_eval", "verify_stieltjes", "lifted_value", "laplace_lift_check",
        "finite_laplace_identity", "four_param_representation",
    ),
    "bounds": (
        "exp_kernel_bounds", "lifted_kernel_bounds", "stieltjes_lower_bound", "cm_check",
        "shifted_stieltjes_ratio", "ratio_monotonicity_scan",
    ),
}
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}


def __getattr__(name):
    """Import a measure-layer export's module on first access and keep the
    name, so later lookups are plain attribute reads."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
