"""Generalized Wright (Fox-Wright) functions and their representing measures.

The package is organised in layers:

* :mod:`foxwright.special` - scalar/vector log-gamma, Bernoulli, Stirling.
* :mod:`foxwright.params` - parameter rows, derived constants, domains.
* :mod:`foxwright.series` - direct summation and named specialisations.
* :mod:`foxwright.hfun` - the representing density on (0, rho), from the
  pole residues and from the endpoint series.
* :mod:`foxwright.representations` - integral representations and identity
  verifiers built from the density.
* :mod:`foxwright.bounds` - two-sided exponential/Stieltjes bounds, complete
  monotonicity checks, quotient monotonicity scans.
* :mod:`foxwright.cli` - batch front end emitting JSON lines or CSV.
"""

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
    SeriesStatus,
    correction_series,
    four_param_wright,
    fox_wright,
    fox_wright_value,
    hyper_pfq,
    mittag_leffler,
    wright_function,
)
from .hfun import (
    HfunEvalConfig,
    HfunMethod,
    MeasureEvaluator,
    atom_mellin,
    get_evaluator,
    hfun_nonneg_scan,
    moment_identity_check,
)
from .representations import (
    eval_via_representation,
    finite_laplace_identity,
    four_param_representation,
    laplace_lift_check,
    lifted_value,
    stieltjes_eval,
    verify_representation,
    verify_stieltjes,
)
from .bounds import (
    BoundsReport,
    CmReport,
    RatioScanReport,
    cm_check,
    exp_kernel_bounds,
    lifted_kernel_bounds,
    ratio_monotonicity_scan,
    shifted_stieltjes_ratio,
    stieltjes_lower_bound,
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
    "SeriesStatus",
    "fox_wright",
    "fox_wright_value",
    "hyper_pfq",
    "wright_function",
    "mittag_leffler",
    "four_param_wright",
    "correction_series",
    "HfunMethod",
    "HfunEvalConfig",
    "MeasureEvaluator",
    "get_evaluator",
    "atom_mellin",
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
    "BoundsReport",
    "CmReport",
    "RatioScanReport",
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
