"""The package's one quadrature engine: nested double-exponential rules.

Every integral is a trapezoidal sum in x on nested levels (Takahasi & Mori,
Publ. RIMS 9, 1974).  Level 0 holds x = j h with h = _DE_STEP; level l > 0
holds only the odd multiples of h / 2^l, so each level's sum is half the
previous one plus its new nodes and no node is evaluated twice.  Two maps
carry x onto t:

* tanh-sinh, t = b / (1 + e^(-2v)) with v = (pi/2) sinh x, onto (0, b);
* exp-sinh, t = exp((pi/2) sinh x), onto (0, inf).

``integrate_levels`` is the one level loop; the measure's cached rule
(``hfun``) and the gamma-weighted integral below run on it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import OutsideDomainError, QuadratureFailure
from .params import _LOG_MAX

__all__ = [
    "tanh_sinh",
    "tanh_sinh_reach",
    "exp_sinh",
    "integrate_levels",
    "integrate_gamma_weighted",
]

_DE_STEP = 0.5
_DE_MAX_LEVEL = 7
_EPS = float(np.finfo(float).eps)
# relative accuracy the gamma-weighted integral refines to
_GAMMA_TOL = 1e-12


def _grid(level: int, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """The x nodes new at ``level`` on [-lo, hi], and the level's step."""
    h = _DE_STEP / 2**level
    j = np.arange(-int(lo / h), int(hi / h) + 1)
    return h * (j if level == 0 else j[j % 2 == 1]), h


def tanh_sinh_reach(tiny: float) -> float:
    """The x at which tanh-sinh nodes come within ``tiny * b`` of an end of (0, b)."""
    return math.asinh(-math.log(tiny) / math.pi)


def tanh_sinh(
    level: int, b: float, lo: float, hi: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, complements u = ln(b/t) and weights of one tanh-sinh level on
    (0, b), over x in [-lo, hi].

    u = log1p(e^(-2v)) comes from the complement, so the nodes where t
    rounds onto b keep their exact u: an integrand singular at b can be
    evaluated there from u.
    """
    x, h = _grid(level, lo, hi)
    v = 0.5 * math.pi * np.sinh(x)
    t = b / (1.0 + np.exp(-2.0 * v))
    u = np.where(v < 0.0, np.log1p(np.exp(2.0 * v)) - 2.0 * v, np.log1p(np.exp(-2.0 * v)))
    w = h * 0.25 * math.pi * b * np.cosh(x) / np.cosh(v) ** 2
    return t, u, w


def exp_sinh(level: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes t, ln t and weights of one exp-sinh level on (0, inf), over x in
    [-lo, hi].

    The weights are those of d(ln t): dt = t * w.  Keeping ln t lets a
    caller form a weight t^a exactly where t itself underflows.
    """
    x, h = _grid(level, lo, hi)
    log_t = 0.5 * math.pi * np.sinh(x)
    return np.exp(log_t), log_t, h * 0.5 * math.pi * np.cosh(x)


def integrate_levels(
    terms: Callable[[int], tuple[np.ndarray, np.ndarray]],
    tol: float,
    interval: tuple[float, float],
) -> tuple:
    """(integral, error estimate) from nested levels of a double-exponential rule.

    ``terms(level)`` returns (f, w): the integrand at the level's new nodes
    and their weights.  The estimate is the difference of the last two
    levels, but never below the rounding floor eps * integral of |f|: two
    levels that agree to the last bit have not shown an error of 0.  Halves
    the step until the estimate is within ``tol`` of the integral of |f|;
    raises QuadratureFailure when the finest level (step
    _DE_STEP / 2^_DE_MAX_LEVEL) still misses it or the sum is not finite.

    f may be a (k, n) array for n nodes, k integrands at once: the totals
    and estimates are then length-k arrays.  Each row is summed on its own
    (``np.vecdot``, the 1-D dot product row by row) and keeps the level at
    which it first meets the tolerance, so row i equals the call on row i
    alone bit for bit; the step is halved until every row has met it, and
    a row that has not raises for all of them.
    """
    value = err = live = None
    total = mass = 0.0
    diff = math.inf
    for level in range(_DE_MAX_LEVEL + 1):
        f, w = terms(level)
        f = np.asarray(f)
        rows = f.reshape(-1, f.shape[-1])
        if live is None:
            live = np.arange(rows.shape[0])  # the rows still refining
            value, err = np.empty(live.size), np.empty(live.size)
        elif live.size < rows.shape[0]:
            rows = rows[live]
        prev = total
        total = 0.5 * total + np.vecdot(rows, w)
        mass = 0.5 * mass + np.vecdot(np.abs(rows), np.abs(w))
        if not np.all(np.isfinite(total)):
            break
        if level:
            diff = np.maximum(abs(total - prev), _EPS * mass)
            met = diff <= tol * mass
            value[live[met]], err[live[met]] = total[met], diff[met]
            live, total, mass, diff = live[~met], total[~met], mass[~met], diff[~met]
            if live.size == 0:
                if f.ndim == 1:
                    return float(value[0]), float(err[0])
                return value.reshape(f.shape[:-1]), err.reshape(f.shape[:-1])
    raise QuadratureFailure(
        f"double-exponential levels disagree by {np.max(diff):.2e} "
        f"(tol {tol:g} of {np.min(mass):.3e})",
        interval=interval,
        estimate=total,
        err_estimate=diff,
    )


def integrate_gamma_weighted(
    f: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    decay: float,
) -> float:
    """integral_0^inf t^(sigma-1) e^(-t) f(t) dt for sigma > 0, to 1e-12 relative.

    Runs on exp-sinh levels, one call of f per level on that level's new
    nodes; the weight t^sigma e^(-t) is formed from ln t, so the algebraic
    endpoint factor costs nothing for small sigma.  The nodes start where
    t^sigma is 1e-24: below that t, a bounded f contributes about t^sigma /
    gamma(sigma + 1) of its integral.  f may grow like e^((1 - decay) t)
    times a polynomial, so the integrand decays like e^(-decay t); the far
    tail is cut where e^(-decay t) t^(sigma-1) drops below about 1e-24, at
    t = (60 + 5 max(sigma - 1, 0)) / decay.  Raises OutsideDomainError
    when f would overflow a double before that cut.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    # weight t^(sigma-1) e^(-decay t) < 1e-24 beyond this point for moderate sigma
    upper = (60.0 + 5.0 * max(sigma - 1.0, 0.0)) / decay
    if (1.0 - decay) * upper > _LOG_MAX:
        raise OutsideDomainError(
            f"the integrand decays only like e^(-{decay:.3g} t): f reaches "
            f"e^{(1.0 - decay) * upper:.4g} before the tail cut at t = {upper:.4g}"
        )
    lo = math.asinh(-math.log(1e-24) / (0.5 * math.pi * sigma))
    hi = math.asinh(math.log(upper) / (0.5 * math.pi))

    def terms(level: int) -> tuple[np.ndarray, np.ndarray]:
        t, log_t, w = exp_sinh(level, lo, hi)
        return f(t), np.exp(sigma * log_t - t) * w

    return integrate_levels(terms, _GAMMA_TOL, (0.0, upper))[0]
