"""Exception taxonomy shared across the package.

Every failure mode that callers are expected to handle gets its own class;
generic ValueError/TypeError are reserved for plain programming mistakes.
"""


class FoxwrightError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FoxwrightError, ValueError):
    """Invalid parameter set (non-positive scale, empty rows, upper-row pole)."""


class PoleError(FoxwrightError, ArithmeticError):
    """Evaluation requested at (or within tolerance of) a gamma pole."""


class OutsideDomainError(FoxwrightError, ValueError):
    """Argument lies outside the convergence/support domain of the object."""


class DomainError(FoxwrightError, ValueError):
    """A precondition on auxiliary arguments (sigma, kernel positivity, ...) fails."""


class NonConvergentError(FoxwrightError):
    """An iterative evaluation hit its term budget without the tail decaying."""


class QuadratureFailure(FoxwrightError):
    """Adaptive quadrature exceeded its refinement depth before reaching tolerance."""

    def __init__(self, message, interval=None, estimate=None, err_estimate=None):
        super().__init__(message)
        self.interval = interval
        self.estimate = estimate
        self.err_estimate = err_estimate


class DegenerateError(FoxwrightError):
    """A bound or ratio is undefined because the regular mass vanishes."""


class ConstraintError(FoxwrightError, ValueError):
    """Structured-parameter constraints (pair sums) are not satisfied."""


class DivisionError(FoxwrightError, ZeroDivisionError):
    """A ratio's denominator is numerically zero."""
