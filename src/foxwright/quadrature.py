"""Adaptive Gauss-Kronrod quadrature and a few purpose-built transforms.

The core rule is the classic 7-15 pair (same nodes and weights QUADPACK's
dqk15 uses).  Integrands must accept numpy arrays; every caller in this
package evaluates vectorised kernels, and the rule exploits that.

On top of the adaptive driver sits the gamma-weighted integral over
(0, inf) the rest of the package needs, with the t = u^(1/sigma)
substitution that removes the endpoint singularity for sigma < 1.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import QuadratureFailure

__all__ = [
    "kronrod15",
    "integrate_adaptive",
    "integrate_gamma_weighted",
]

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
# Embedded 7-point Gauss weights (for xgk indices 1, 3, 5, 7).
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:7], _XGK[::-1]])  # 15 ascending nodes
_KW = np.concatenate([_WGK[:7], _WGK[::-1]])
_GW = np.zeros(15)
_GW[1::2] = np.concatenate([_WG[:3], _WG[::-1]])  # Gauss points sit at odd slots


def kronrod15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """One application of the 7-15 pair on [a, b]: (K15 value, |K15 - G7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    y = np.asarray(f(x), dtype=float)
    k15 = half * float(_KW @ y)
    g7 = half * float(_GW @ y)
    return k15, abs(k15 - g7)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-10,
    max_panels: int = 2000,
) -> float:
    """Globally adaptive bisection on the 7-15 pair.

    The panel with the largest local error estimate is split until the
    summed error meets ``max(tol_abs, tol_rel * |integral|)``.  Accounting
    for the error globally (instead of handing each subinterval a share of
    the budget) keeps integrands with a rounding-noise floor from driving
    refinement forever: once the noise-dominated panels stop improving,
    their summed error is already far below any meaningful tolerance.

    Raises :class:`QuadratureFailure` when the panel budget runs out or a
    panel shrinks to machine width while still carrying a significant share
    of the error, which in practice means a genuine singularity the caller
    should have transformed away.
    """
    if a == b:
        return 0.0

    val, err = kronrod15(f, float(a), float(b))
    heap = [(-err, float(a), float(b), val, err)]
    total_val, total_err = val, err
    panels = 1
    while total_err > max(tol_abs, tol_rel * abs(total_val)):
        neg_err, lo, hi, v, e = heapq.heappop(heap)
        width = hi - lo
        if panels >= max_panels or width <= 4e-16 * (abs(lo) + abs(hi)) + 1e-300:
            raise QuadratureFailure(
                f"refinement exhausted on [{lo}, {hi}] "
                f"(panel err ~ {e:.2e}, total err ~ {total_err:.2e})",
                interval=(lo, hi),
                estimate=total_val + v,
                err_estimate=total_err,
            )
        mid = 0.5 * (lo + hi)
        v1, e1 = kronrod15(f, lo, mid)
        v2, e2 = kronrod15(f, mid, hi)
        total_val += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        panels += 1
    return total_val


def integrate_gamma_weighted(
    f: Callable[[np.ndarray], np.ndarray],
    sigma: float,
    tol_abs: float = 1e-12,
) -> float:
    """integral_0^inf t^(sigma-1) e^(-t) f(t) dt for sigma > 0.

    Split at t = 1.  On (0, 1) the substitution t = u^(1/sigma) absorbs the
    algebraic endpoint factor exactly, so the transformed integrand is
    smooth even for small sigma.  The far tail is cut where the weight
    alone drops below 1e-24; f is assumed at most polynomially growing.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    inv = 1.0 / sigma

    def left(u: np.ndarray) -> np.ndarray:
        t = u**inv
        return np.exp(-t) * np.asarray(f(t)) * inv

    def right(t: np.ndarray) -> np.ndarray:
        return t ** (sigma - 1.0) * np.exp(-t) * np.asarray(f(t))

    # weight t^(sigma-1) e^(-t) < 1e-24 beyond this point for moderate sigma
    upper = 60.0 + 5.0 * max(sigma - 1.0, 0.0)
    return integrate_adaptive(left, 0.0, 1.0, tol_abs / 2) + integrate_adaptive(
        right, 1.0, upper, tol_abs / 2
    )
