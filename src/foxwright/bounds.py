"""Measure-based two-sided bounds and monotonicity checks.

For a balanced set whose measure is a density ``H`` on ``(0, rho)`` plus a
single endpoint atom of weight ``eta`` (the ``mu == 0`` regime), convexity
of the kernels gives computable envelopes:

* Jensen's inequality applied to the regular mass ``psi0 = ratio(0) - eta``
  with barycentre ``psi1/psi0`` yields the lower halves;
* the chord (secant) bound of the convex kernel over ``[0, rho]`` yields the
  upper halves.

Everything is conditional on ``H >= 0``, which is only scanned numerically:
where the scan fails, each bound record carries the verdict ``n/a``.

The module also hosts a finite-difference complete-monotonicity checker and
the shifted-ratio scan: the quotient of two Stieltjes transforms against a
shifted and an unshifted copy of the same measure, which should be monotone
in its argument whenever the density is nonnegative.
"""

from __future__ import annotations

import math
from functools import partial
from math import comb
from typing import Callable, Sequence

import numpy as np

from .errors import (ConstraintError, DegenerateError, DivisionError, DomainError,
                     FoxwrightError, ParameterError)
from .hfun import get_evaluator, hfun_nonneg_scan
from .params import (ParameterSet, _per_set, _require_exponent, derive_constants,
                     gamma_ratio, shift_parameters)
from .representations import _lifted_regular, _stieltjes_integral, _values, lifted_value
from .series import IdentityRecord, _fox_wright_values, _record

__all__ = [
    "exp_kernel_bounds",
    "lifted_kernel_bounds",
    "stieltjes_lower_bound",
    "cm_check",
    "ratio_monotonicity_scan",
]

_OK_SLACK = 1e-9  # rel_err within which a bound or power-mean step still passes
_DENOM_FLOOR = 1e-14
_ROUTE_TOL = 1e-6  # relative gap at which the quotient's two routes disagree
_STEP_TOL = 1e-8  # a quotient step against the scan's direction that still passes
_CM_STEP = 0.05  # cm_check's forward-difference step h
_CM_MAX_ORDER = 6  # cm_check's highest difference order
_CM_ORDER = "cm-order-"  # cm_check's record identity, followed by the order


@_per_set
def _atomic_mass(params: ParameterSet):
    """(psi0, psi1, constants) for single-endpoint-atom sets (mu == 0), the
    one gate of the inequalities that need a nonnegative measure.  The set
    fixes them, so like :func:`derive_constants` they are computed once per set."""
    c = derive_constants(params)
    if not c.balanced or c.m_order != 0:
        raise ConstraintError(
            "the kernel bounds and the ratio scan need a balanced set with a single "
            f"endpoint atom (mu == 0); got delta={c.delta:.3g}, mu={c.mu:.6g}"
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


def _sandwich(
    name: str, params: ParameterSet, zs: Sequence[float], kernel: Callable, g: float,
    values: Callable,
) -> tuple[tuple[IdentityRecord, IdentityRecord], ...]:
    """Jensen below and the chord above for ``g K(t, z)``, K convex in t on
    [0, rho] with K(0, z) = 1: ``lower <= value`` and ``value <= upper`` at
    each z, ``values`` taking every -z as one grid, each record ``n/a``
    unless the density scans nonnegative.  DomainError where a side
    overflows a double or is not a finite real (a barycentre outside the
    support): ``value <= inf`` would pass while saying nothing."""
    if any(z < 0 for z in zs):
        raise ParameterError("z must be nonnegative")
    psi0, psi1, c = _atomic_mass(params)
    pairs = []
    for z, value in zip(zs, values([-z for z in zs])):
        # g times each weight, as the goldens' bits need; the chord's t = 0
        # term is its weight alone, since K(0, inf) = e^(-0 inf) is NaN
        try:
            k_rho = kernel(c.rho, z)
            lower = g * c.eta * k_rho + g * psi0 * kernel(psi1 / psi0, z)
            upper = g * (psi0 - psi1 / c.rho) + g * (c.eta + psi1 / c.rho) * k_rho
        except ArithmeticError:
            lower = upper = math.inf
        if not all(isinstance(v, float) and math.isfinite(v) for v in (lower, value, upper)):
            raise DomainError(f"{name} at z={z:g}: a bound or the value overflows a double "
                              "or is not real")
        nonneg = hfun_nonneg_scan(params).ok()
        pairs.append((
            _record(f"{name}-lower", z, lower, value, _OK_SLACK, "<=", applies=nonneg),
            _record(f"{name}-upper", z, value, upper, _OK_SLACK, "<=", applies=nonneg),
        ))
    return tuple(pairs)


def exp_kernel_bounds(
    params: ParameterSet, zs: Sequence[float]
) -> tuple[tuple[IdentityRecord, IdentityRecord], ...]:
    """Two-sided bounds for the series at ``-z`` from the exponential kernel,
    one pair per z.

    ``psi0 e^(-(psi1/psi0) z) + eta e^(-rho z) <= F(-z) <=
    (psi0 - psi1/rho) + (eta + psi1/rho) e^(-rho z)`` for ``z >= 0``, as two
    ``<=`` records (lower, F) and (F, upper); both sides collapse to
    ``ratio(0)`` at ``z = 0``.  The series at every -z is one grid.
    """
    return _sandwich("exp-kernel", params, zs, lambda t, z: math.exp(-t * z), 1.0,
                     partial(_fox_wright_values, params))


def lifted_kernel_bounds(
    params: ParameterSet, lam: float, zs: Sequence[float]
) -> tuple[tuple[IdentityRecord, IdentityRecord], ...]:
    """Bounds for the gamma-lifted series at ``-z`` from the power kernel,
    one pair per z.

    Same measure split, kernel ``gamma(lam) (1+tz)^(-lam)`` instead of
    ``e^(-tz)``; the lifted values come from :func:`lifted_value` at every
    -z as one grid: the series inside its disk, the kernel continuation
    beyond it.  Two ``<=`` records per z, as for :func:`exp_kernel_bounds`.
    """
    _require_exponent("lam", lam)
    return _sandwich(f"lifted-kernel[lam={lam:g}]", params, zs,
                     lambda t, z: (1.0 + t * z) ** (-lam), math.gamma(lam),
                     partial(lifted_value, params, lam))


def stieltjes_lower_bound(
    params: ParameterSet, sigma: float, zs: Sequence[float]
) -> tuple[tuple[IdentityRecord, IdentityRecord], ...]:
    """``gamma(sigma)[psi0 (1+(psi1/psi0) z)^(-sigma) + eta (1+rho z)^(-sigma)]``
    as a lower bound for the sigma-lifted series at ``-z``, one pair per z:
    the lower record of :func:`lifted_kernel_bounds` at ``lam = sigma``,
    plus the power-mean intermediate step.

    The step compares the normalized integral of ``(1+tz)^(-sigma)`` against
    the density (lhs) with the sigma-th power of the normalized integral of
    ``(1+tz)^(-1)`` (rhs).  Jensen on ``x^sigma`` relates them with a
    direction that flips at ``sigma = 1`` (``>=`` above, ``<=`` below, ``==``
    at 1); the final lower bound holds for every ``sigma > 0`` because the
    kernel itself stays convex in ``t``.  Only the equality holds without
    a nonnegative density.  Each power mean is one pass over the rule.
    """
    bounds = [lower for lower, _ in lifted_kernel_bounds(params, sigma, zs)]
    psi0 = _atomic_mass(params)[0]
    z = np.array(zs)
    mean_sigma, mean_one = (
        [v / psi0 for v in _stieltjes_integral(params, s, z)[0].tolist()] for s in (sigma, 1.0)
    )
    relation = "==" if abs(sigma - 1.0) <= 1e-12 else ">=" if sigma > 1.0 else "<="
    return tuple(
        (bound, _record(
            f"power-mean[sigma={sigma:g}]", x, lhs, rhs**sigma, _OK_SLACK, relation,
            applies=relation == "==" or bound.verdict != "n/a",
        ))
        for x, bound, lhs, rhs in zip(zs, bounds, mean_sigma, mean_one)
    )


# ---------------------------------------------------------------------------
# complete-monotonicity finite-difference checker
# ---------------------------------------------------------------------------


def cm_check(
    f: Callable[[np.ndarray], np.ndarray] | ParameterSet, grid: Sequence[float]
) -> tuple[IdentityRecord, ...]:
    """Check ``(-1)^n * forward_diff_h^n f(x) >= -eps_n`` for n = 0..6, h = 0.05.

    ``f`` is called once, on the 1-D array of every abscissa ``x + j h``
    (sorted grid points x, j = 0..6, x-major), and returns their values in
    the same order.  A parameter set stands for its F(-x): from the
    measure, in one pass over its rule, where the set has one, else the
    series as one grid.  ``eps_n = 1e-7 * (2/h)^n * max|f|`` absorbs the
    worst-case noise growth of order-n differencing, so this is a
    consistency check on numerically evaluated functions, not a proof.
    One ``>=`` record per (order, x), named ``cm-order-<n>``, lowest order
    first and then increasing x: the first that fails is a sign defect no
    nonnegative representing density is compatible with.  A non-finite
    value of f leaves max|f| undefined, so every record fails.
    """
    xs = [float(x) for x in grid]
    if not xs:
        raise ParameterError("grid must be non-empty")
    if not all(map(math.isfinite, xs)):
        raise ParameterError("grid points must be finite")
    xs.sort()
    if xs[0] <= 0:
        raise ParameterError("grid points must be positive")

    if isinstance(f, ParameterSet):
        params = f
        f = lambda x: _values(params, -x)  # noqa: E731
    points = (np.array(xs)[:, None] + np.arange(_CM_MAX_ORDER + 1) * _CM_STEP).ravel()
    values = np.asarray(f(points), dtype=float)
    if values.shape != points.shape:
        raise ParameterError(f"f returned shape {values.shape} for {points.size} abscissae")
    fmax = float(np.abs(values).max()) if np.isfinite(values).all() else math.nan
    if fmax == 0.0:
        fmax = 1.0
    table = values.reshape(len(xs), _CM_MAX_ORDER + 1).tolist()

    records = []
    for n in range(_CM_MAX_ORDER + 1):
        eps = 1e-7 * (2.0 / _CM_STEP) ** n * fmax
        sign = -1.0 if n % 2 else 1.0
        for x, row in zip(xs, table):
            diff = sum((-1) ** (n - j) * comb(n, j) * row[j] for j in range(n + 1))
            records.append(_record(f"{_CM_ORDER}{n}", x, sign * diff, -eps, 0.0, ">="))
    return tuple(records)


def _cm_order(record: IdentityRecord) -> int:
    """The differencing order n of a :func:`cm_check` record."""
    return int(record.identity.removeprefix(_CM_ORDER))


# ---------------------------------------------------------------------------
# shifted-ratio monotonicity
# ---------------------------------------------------------------------------


def _shifted_stieltjes_ratio(
    params: ParameterSet, sigma: float, delta: float, zs: Sequence[float]
) -> tuple[IdentityRecord, ...]:
    """Quotient ``integral t^(delta-1) H/(1+tz)^sigma dt  over  the same at
    delta = 0``, computed two independent ways, one record per z.

    Route one (lhs) goes through series space: shifting every row by
    ``delta`` times its scale multiplies the density by ``t^delta`` (and
    the atom weight by ``rho^delta``), so the numerator is the shifted
    set's lifted series minus its own atom term.  Route two (rhs)
    integrates the density directly.  The gamma(sigma) factors cancel in
    the quotient.  The record passes when the routes agree to 1e-6.  Each
    route's numerator and denominator is one grid.
    """
    _require_exponent("sigma", sigma)
    _atomic_mass(params)  # the single-atom gate, and a density that carries mass
    ev = get_evaluator(params)
    z = np.array(zs)
    den_q = _stieltjes_integral(params, sigma, z)[0].tolist()
    num_q = ev.measure_integral(
        lambda t: t ** (delta - 1.0) * (1.0 + np.multiply.outer(z, t)) ** (-sigma)
    )[0].tolist()
    _require_denominators("quadrature", den_q)
    quad = [n / d for n, d in zip(num_q, den_q)]

    num_s = _lifted_regular(shift_parameters(params, delta), sigma, zs)
    den_s = _lifted_regular(params, sigma, zs)
    _require_denominators("series", den_s)
    name = f"shifted-ratio[sigma={sigma:g},delta={delta:g}]"
    return tuple(_record(name, *point, _ROUTE_TOL)
                 for point in zip(zs, [n / d for n, d in zip(num_s, den_s)], quad))


def _require_denominators(route: str, values: list[float]) -> None:
    """DivisionError where a route's denominator is too small for the quotient."""
    for value in values:
        if abs(value) < _DENOM_FLOOR:
            raise DivisionError(f"{route} denominator ~ {value:.2e}: quotient undefined")


def ratio_monotonicity_scan(
    params: ParameterSet,
    sigma: float,
    delta: float,
    z_grid: Sequence[float],
) -> tuple[IdentityRecord, ...]:
    """Evaluate the quotient across ``z_grid`` and test its direction.

    Increasing ``z`` sharpens the kernel ``(1+tz)^(-sigma)`` against large
    ``t``, so the kernel-weighted mean of ``t^delta`` drifts toward the
    origin: the quotient is nonincreasing in ``z`` for ``delta >= 0`` and
    nondecreasing for ``delta < 0``.  (Chebyshev's integral inequality on
    the synchronous pair ``t^delta``, ``t/(1+tz)`` fixes the sign of the
    z-derivative of the quotient.)

    Returns the :func:`_shifted_stieltjes_ratio` record of each grid point in
    increasing z (rhs the quadrature route, lhs the series route as a
    cross-check), then one ``<=`` record per step z_i -> z_(i+1), at z_i,
    named after that direction: lhs is the step of the quadrature route
    against it, rhs the step tolerance 1e-8.  A different direction claim
    can be probed from the route records' rhs values.
    """
    zs = sorted(float(z) for z in z_grid)
    if len(zs) < 2:
        raise ParameterError("z_grid needs at least two points")
    try:
        records = _shifted_stieltjes_ratio(params, sigma, delta, zs)
    except FoxwrightError:
        # the grid runs each step over every point before the next: the
        # points one by one raise the first point's own error instead
        records = tuple(_shifted_stieltjes_ratio(params, sigma, delta, [z])[0] for z in zs)
    values = [r.rhs for r in records]
    if delta >= 0:
        expected = "nonincreasing"
        violations = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    else:
        expected = "nondecreasing"
        violations = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    name = f"{expected}[sigma={sigma:g},delta={delta:g}]"
    return records + tuple(
        _record(name, z, v, _STEP_TOL, 0.0, "<=") for z, v in zip(zs, violations)
    )


def _scan_direction(record: IdentityRecord) -> str:
    """The direction, ``nondecreasing`` or ``nonincreasing``, that a step
    record of :func:`ratio_monotonicity_scan` tests."""
    return record.identity.partition("[")[0]
