"""Measure-based two-sided bounds and monotonicity checks.

For a balanced set whose measure is a density ``H`` on ``(0, rho)`` plus a
single endpoint atom of weight ``eta`` (the ``mu == 0`` regime), convexity
of the kernels gives computable envelopes:

* Jensen's inequality applied to the regular mass ``psi0 = ratio(0) - eta``
  with barycentre ``psi1/psi0`` yields the lower halves;
* the chord (secant) bound of the convex kernel over ``[0, rho]`` yields the
  upper halves.

Everything is conditional on ``H >= 0``, which is only scanned numerically,
so every report carries the scan verdict alongside the bound verdicts.

The module also hosts a finite-difference complete-monotonicity checker and
the shifted-ratio scan: the quotient of two Stieltjes transforms against a
shifted and an unshifted copy of the same measure, which should be monotone
in its argument whenever the density is nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .errors import (
    ConstraintError,
    DegenerateError,
    DivisionError,
    DomainError,
    ParameterError,
)
from .hfun import get_evaluator, hfun_nonneg_scan
from .params import ParameterSet, derive_constants, gamma_ratio, shift_parameters
from .representations import IdentityRecord, _record, lifted_value
from .series import fox_wright_value
from .special import gamma_real

__all__ = [
    "BoundsReport",
    "StieltjesLowerBoundReport",
    "CmReport",
    "RatioScanReport",
    "exp_kernel_bounds",
    "lifted_kernel_bounds",
    "stieltjes_lower_bound",
    "cm_check",
    "shifted_stieltjes_ratio",
    "ratio_monotonicity_scan",
]

_OK_SLACK = 1e-9
_DENOM_FLOOR = 1e-14
_ROUTE_TOL = 1e-6  # relative gap at which the quotient's two routes disagree


@dataclass(frozen=True)
class BoundsReport:
    """One two-sided bound evaluation.

    ``lower_ok``/``upper_ok`` are asserted only when the nonnegativity scan
    of the density passed; with ``hypothesis_nonneg`` false they stay false
    regardless of how the numbers compare, because the inequalities are
    conditional statements.
    """

    psi0: float
    psi1: float
    lower: float
    upper: float
    value: float
    hypothesis_nonneg: bool
    lower_ok: bool
    upper_ok: bool


def _atomic_mass(params: ParameterSet):
    """(psi0, psi1, constants) for single-endpoint-atom sets, validated."""
    c = derive_constants(params)
    if not c.balanced or c.m_order != 0:
        raise ConstraintError(
            "kernel bounds need a balanced set with a single endpoint atom "
            f"(mu == 0); got delta={c.delta:.3g}, mu={c.mu:.6g}"
        )
    psi0 = gamma_ratio(params, 0.0) - c.eta
    psi1 = gamma_ratio(params, 1.0) - c.eta * c.rho
    scale = 1.0 + abs(gamma_ratio(params, 0.0))
    if psi0 <= 1e-12 * scale:
        raise DegenerateError(
            f"regular part carries no mass (psi0 = {psi0:.3e}); the Jensen "
            "barycentre psi1/psi0 is undefined"
        )
    return psi0, psi1, c


def _flags(lower: float, value: float, upper: float, nonneg: bool) -> tuple[bool, bool]:
    slack = _OK_SLACK * (1.0 + abs(value))
    return (nonneg and lower <= value + slack, nonneg and value <= upper + slack)


def exp_kernel_bounds(params: ParameterSet, z: float) -> BoundsReport:
    """Two-sided bounds for the series at ``-z`` from the exponential kernel.

    ``psi0 e^(-(psi1/psi0) z) + eta e^(-rho z) <= F(-z) <=
    (psi0 - psi1/rho) + (eta + psi1/rho) e^(-rho z)`` for ``z >= 0``;
    both sides collapse to ``ratio(0)`` at ``z = 0``.
    """
    if z < 0:
        raise ParameterError("z must be nonnegative")
    psi0, psi1, c = _atomic_mass(params)
    lower = psi0 * math.exp(-(psi1 / psi0) * z) + c.eta * math.exp(-c.rho * z)
    upper = (psi0 - psi1 / c.rho) + (c.eta + psi1 / c.rho) * math.exp(-c.rho * z)
    value = complex(fox_wright_value(params, -z)).real
    nonneg = hfun_nonneg_scan(params).nonneg
    lower_ok, upper_ok = _flags(lower, value, upper, nonneg)
    return BoundsReport(psi0, psi1, lower, upper, value, nonneg, lower_ok, upper_ok)


def lifted_kernel_bounds(params: ParameterSet, lam: float, z: float) -> BoundsReport:
    """Bounds for the gamma-lifted series at ``-z`` from the power kernel.

    Same measure split, kernel ``gamma(lam) (1+tz)^(-lam)`` instead of
    ``e^(-tz)``; the lifted value itself comes from the series inside its
    disk and from the kernel continuation beyond it.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    if z < 0:
        raise ParameterError("z must be nonnegative")
    psi0, psi1, c = _atomic_mass(params)
    g = gamma_real(lam)
    lower = g * c.eta * (1.0 + c.rho * z) ** (-lam) + g * psi0 * (
        1.0 + (psi1 / psi0) * z
    ) ** (-lam)
    upper = g * (psi0 - psi1 / c.rho) + g * (c.eta + psi1 / c.rho) * (
        1.0 + c.rho * z
    ) ** (-lam)
    value = lifted_value(params, lam, -z)
    nonneg = hfun_nonneg_scan(params).nonneg
    lower_ok, upper_ok = _flags(lower, value, upper, nonneg)
    return BoundsReport(psi0, psi1, lower, upper, value, nonneg, lower_ok, upper_ok)


@dataclass(frozen=True)
class StieltjesLowerBoundReport:
    """Jensen lower bound for the power kernel, with the intermediate step.

    ``mean_power_lhs`` is the normalized integral of ``(1+tz)^(-sigma)``
    against the density, ``mean_power_rhs`` the sigma-th power of the
    normalized integral of ``(1+tz)^(-1)``.  Jensen on ``x^sigma`` relates
    them with a direction that flips at ``sigma = 1`` (convex above,
    concave below); the final lower bound holds for every ``sigma > 0``
    because the kernel itself stays convex in ``t``.
    """

    sigma: float
    z: float
    lower: float
    value: float
    margin: float
    hypothesis_nonneg: bool
    bound_ok: bool
    mean_power_lhs: float
    mean_power_rhs: float
    mean_power_direction: str
    mean_power_ok: bool


def stieltjes_lower_bound(
    params: ParameterSet, sigma: float, z: float
) -> StieltjesLowerBoundReport:
    """``gamma(sigma)[psi0 (1+(psi1/psi0) z)^(-sigma) + eta (1+rho z)^(-sigma)]``
    as a lower bound for the sigma-lifted series at ``-z``: the lower half
    of :func:`lifted_kernel_bounds` at ``lam = sigma``, plus the power-mean
    intermediate comparison."""
    rep = lifted_kernel_bounds(params, sigma, z)
    psi0, nonneg = rep.psi0, rep.hypothesis_nonneg
    ev = get_evaluator(params)
    mean_sigma = ev.measure_integral(lambda t: (1.0 + t * z) ** (-sigma) / t) / psi0
    mean_one = ev.measure_integral(lambda t: (1.0 + t * z) ** (-1.0) / t) / psi0
    mean_rhs = mean_one**sigma
    if abs(sigma - 1.0) <= 1e-12:
        direction = "=="
        mid_ok = abs(mean_sigma - mean_rhs) <= 1e-9 * (1.0 + abs(mean_rhs))
    elif sigma > 1.0:
        direction = ">="
        mid_ok = nonneg and mean_sigma >= mean_rhs - 1e-9 * (1.0 + abs(mean_rhs))
    else:
        direction = "<="
        mid_ok = nonneg and mean_sigma <= mean_rhs + 1e-9 * (1.0 + abs(mean_rhs))
    return StieltjesLowerBoundReport(
        sigma=float(sigma),
        z=float(z),
        lower=rep.lower,
        value=rep.value,
        margin=rep.value - rep.lower,
        hypothesis_nonneg=nonneg,
        bound_ok=rep.lower_ok,
        mean_power_lhs=mean_sigma,
        mean_power_rhs=mean_rhs,
        mean_power_direction=direction,
        mean_power_ok=mid_ok,
    )


# ---------------------------------------------------------------------------
# complete-monotonicity finite-difference checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CmReport:
    """Outcome of the forward-difference complete-monotonicity scan."""

    orders_checked: int
    first_violation: tuple[int, float] | None
    note: str | None

    @property
    def clean(self) -> bool:
        return self.first_violation is None


def cm_check(
    f: Callable[[float], float],
    grid: Sequence[float],
    h: float,
    max_order: int = 6,
) -> CmReport:
    """Check ``(-1)^n * forward_diff_h^n f(x) >= -eps_n`` for n = 0..max_order.

    ``eps_n = 1e-7 * (2/h)^n * max|f|`` absorbs the worst-case noise growth
    of order-n differencing, so this is a consistency check on numerically
    evaluated functions, not a proof.  The first violation (lowest order,
    then smallest grid point) is reported with a note that no nonnegative
    representing density is compatible with it.
    """
    if not (math.isfinite(h) and h > 0):
        raise ParameterError("h must be positive and finite")
    if not 0 <= max_order <= 8:
        raise ParameterError("max_order must lie in 0..8")
    xs = sorted(float(x) for x in grid)
    if not xs:
        raise ParameterError("grid must be non-empty")
    if xs[0] <= 0:
        raise ParameterError("grid points must be positive")

    table = [[float(f(x + j * h)) for j in range(max_order + 1)] for x in xs]
    fmax = max(abs(v) for row in table for v in row)
    if fmax == 0.0:
        fmax = 1.0

    first_violation: tuple[int, float] | None = None
    for n in range(max_order + 1):
        eps = 1e-7 * (2.0 / h) ** n * fmax
        sign = -1.0 if n % 2 else 1.0
        for x, row in zip(xs, table):
            diff = sum((-1) ** (n - j) * comb(n, j) * row[j] for j in range(n + 1))
            if sign * diff < -eps:
                first_violation = (n, x)
                break
        if first_violation is not None:
            break

    note = None
    if first_violation is not None:
        n, x = first_violation
        note = (
            f"order-{n} sign defect at x={x:g}: incompatible with any "
            "nonnegative representing density (complete-monotonicity "
            "hypothesis unmet)"
        )
    return CmReport(orders_checked=max_order, first_violation=first_violation, note=note)


# ---------------------------------------------------------------------------
# shifted-ratio monotonicity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioScanReport:
    """Monotonicity verdict of the quotient across a grid.

    ``records`` holds the :func:`shifted_stieltjes_ratio` record of each
    grid point, in increasing z; ``values`` are their quadrature routes.
    """

    sigma: float
    delta: float
    records: tuple[IdentityRecord, ...]
    expected: str
    max_violation: float
    max_route_gap: float
    monotone_ok: bool

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(r.rhs for r in self.records)

    def ok(self) -> bool:
        return self.monotone_ok and all(r.verdict == "pass" for r in self.records)


def shifted_stieltjes_ratio(
    params: ParameterSet, sigma: float, delta: float, z: float
) -> IdentityRecord:
    """Quotient ``integral t^(delta-1) H/(1+tz)^sigma dt  over  the same at
    delta = 0``, computed two independent ways.

    Route one (lhs) goes through series space: shifting every row by
    ``delta`` times its scale multiplies the density by ``t^delta`` (and
    the atom weight by ``rho^delta``), so the numerator is the shifted
    set's lifted series minus its own atom term.  Route two (rhs)
    integrates the density directly.  The gamma(sigma) factors cancel in
    the quotient.  The record passes when the routes agree to 1e-6.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    psi0, psi1, c = _atomic_mass(params)
    if 1.0 + c.rho * z <= 0.0:
        raise DomainError(f"kernel 1+tz vanishes inside the support for z={z}")
    ev = get_evaluator(params)
    num_q = ev.measure_integral(lambda t: t ** (delta - 1.0) * (1.0 + t * z) ** (-sigma))
    den_q = ev.measure_integral(lambda t: (1.0 + t * z) ** (-sigma) / t)
    if abs(den_q) < _DENOM_FLOOR:
        raise DivisionError(
            f"quadrature denominator ~ {den_q:.2e}: quotient undefined"
        )
    quad = num_q / den_q

    shifted = shift_parameters(params, delta)
    cs = derive_constants(shifted)
    g = gamma_real(sigma)
    num_s = lifted_value(shifted, sigma, -z) - g * cs.eta * (1.0 + cs.rho * z) ** (-sigma)
    den_s = lifted_value(params, sigma, -z) - g * c.eta * (1.0 + c.rho * z) ** (-sigma)
    if abs(den_s) < _DENOM_FLOOR:
        raise DivisionError(f"series denominator ~ {den_s:.2e}: quotient undefined")
    return _record(
        f"shifted-ratio[sigma={sigma:g},delta={delta:g}]",
        params.hash_key(), z, num_s / den_s, quad, _ROUTE_TOL,
    )


def ratio_monotonicity_scan(
    params: ParameterSet,
    sigma: float,
    delta: float,
    z_grid: Sequence[float],
    tol: float = 1e-8,
    expected: str | None = None,
) -> RatioScanReport:
    """Evaluate the quotient across ``z_grid`` and test its direction.

    Increasing ``z`` sharpens the kernel ``(1+tz)^(-sigma)`` against large
    ``t``, so the kernel-weighted mean of ``t^delta`` drifts toward the
    origin: the quotient is nonincreasing in ``z`` for ``delta > 0`` and
    nondecreasing for ``delta < 0``.  (Chebyshev's integral inequality on
    the synchronous pair ``t^delta``, ``t/(1+tz)`` fixes the sign of the
    z-derivative of the quotient.)  Pass ``expected`` to probe a different
    direction claim.  Violations are measured on successive differences of
    the quadrature-route values; the series route rides along as a
    cross-check.
    """
    zs = sorted(float(z) for z in z_grid)
    if len(zs) < 2:
        raise ParameterError("z_grid needs at least two points")
    if expected is None:
        expected = "nonincreasing" if delta >= 0 else "nondecreasing"
    if expected not in ("nondecreasing", "nonincreasing"):
        raise ParameterError("expected must be 'nondecreasing' or 'nonincreasing'")
    records = tuple(shifted_stieltjes_ratio(params, sigma, delta, z) for z in zs)
    values = [r.rhs for r in records]
    if expected == "nondecreasing":
        violations = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    else:
        violations = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    max_violation = max(0.0, max(violations))
    return RatioScanReport(
        sigma=float(sigma),
        delta=float(delta),
        records=records,
        expected=expected,
        max_violation=max_violation,
        max_route_gap=max(r.rel_err for r in records),
        monotone_ok=max_violation <= tol,
    )
