"""Integral representations of balanced row series and their identity checks.

Every balanced parameter set whose gamma-ratio Mellin asymptotic terminates
in an integer power (``mu == -m``) splits into a density ``H`` on ``(0, rho)``
plus endpoint atoms at ``rho``.  This module rebuilds the series from that
split three different ways and cross-checks the results:

* exponential kernel: ``sum = integral_0^rho e^(zt) H(t) dt/t + atoms``
* Stieltjes kernel: the sigma-lifted series as an integral of
  ``(1+tz)^(-sigma)`` against the same measure
* Laplace lift: the gamma-weighted integral of the series equals the series
  of the lifted parameter set

plus the moment identity (the gamma ratio at s against the measure's
Mellin transform) and a numerical adjudication between two candidate
closed forms for a finite Laplace-type integral of the collapsed example
set.

All checks emit :class:`IdentityRecord` rows with signed and relative
discrepancies, each judged at one module tolerance (1e-6 in rel_err);
nothing here asserts.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .catalog import EXP_COLLAPSE
from .errors import (
    ConstraintError,
    DomainError,
    NonConvergentError,
    OutsideDomainError,
    ParameterError,
)
from .hfun import get_evaluator
from .params import ParameterSet, _require_exponent, derive_constants, gamma_ratio
from .quadrature import integrate_gamma_weighted
from .series import (
    EvalResult,
    IdentityRecord,
    SeriesStatus,
    _atoms,
    _checked,
    _fox_wright_grid,
    _fox_wright_values,
    _record,
    correction_series,
    fox_wright_value,
)

__all__ = [
    "eval_via_representation",
    "verify_representation",
    "moment_identity_check",
    "verify_stieltjes",
    "lifted_value",
    "laplace_lift_check",
]

_TOL = 1e-6  # rel_err within which the two sides of every identity here agree


def _power_kernel(
    rho: float, sigma: float, z: float | np.ndarray
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[int], np.ndarray]]:
    """The power kernel K(t) = (1+tz)^(-sigma) at each z of an array, as its two
    halves: the integrand ``t -> K(t) / t`` of its integral against H on
    (0, rho), one row per z, and its scaled derivatives
    ``i -> rho^i K^(i)(rho) = (-w)^i (sigma)_i (1+w)^(-sigma-i)``, w = rho z and
    (sigma)_i the rising factorial, one per z, each formed in floats as for
    that z alone.  DomainError where 1 + tz vanishes on the support."""
    if np.any(1.0 + rho * np.asarray(z) <= 0.0):
        raise DomainError(
            f"kernel 1+tz vanishes inside the support: z={np.min(z)} <= {-1.0 / rho:.6g}"
        )

    def derivative(i: int) -> np.ndarray:
        rising = math.prod(sigma + r for r in range(i))
        return np.array([(-w) ** i * rising * (1.0 + w) ** (-sigma - i)
                         for w in (rho * np.atleast_1d(z)).tolist()])

    return lambda t: (1.0 + np.multiply.outer(z, t)) ** (-sigma) / t, derivative


def _stieltjes_integral(
    params: ParameterSet, sigma: float, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``integral_0^rho (1+tz)^(-sigma) H(t) dt/t`` at each z of an array, with
    the measure integral's estimate, in one pass over the cached rule: only
    the regular (density) part of the measure, without gamma(sigma)."""
    ev = get_evaluator(params)
    return ev.measure_integral(_power_kernel(ev.rho, sigma, z)[0])


def _exp_kernel(z: float | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand ``t -> e^(zt) / t`` of the exponential-kernel integral
    against H on (0, rho), one row per z of an array."""
    return lambda t: np.exp(np.multiply.outer(z, t)) / t


# ---------------------------------------------------------------------------
# exponential-kernel representation
# ---------------------------------------------------------------------------


def eval_via_representation(params: ParameterSet, z: float | np.ndarray) -> EvalResult:
    """Series value rebuilt from the representing measure.

    ``integral_0^rho e^(zt) H(t) dt/t`` plus the endpoint atoms' part,
    :func:`correction_series`.  Works for the
    atomic regimes ``mu == -m`` and for the pure-density regime ``mu > 0``
    (where the atom part is identically zero); ``get_evaluator`` raises
    ConstraintError for any other set.  An array of real z is served by
    one pass over the cached rule; value and estimate are then arrays, and
    each point equals its one-point call bit for bit.
    """
    ev = get_evaluator(params)
    zr = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    integral, err = ev.measure_integral(_exp_kernel(zr))
    corr = correction_series(params, zr) if ev.m is not None else 0.0
    return EvalResult(integral + corr, ev._res_nodes_used, err, SeriesStatus.CONVERGED)


def verify_representation(
    params: ParameterSet, zs: Sequence[float]
) -> tuple[IdentityRecord, ...]:
    """Direct series vs :func:`eval_via_representation`, one record per z:
    one series grid and one pass over the rule."""
    lhs = _fox_wright_values(params, zs)
    rhs = eval_via_representation(params, np.array(zs)).value.tolist()
    return tuple(_record("exp-kernel-representation", z, a, b, _TOL)
                 for z, a, b in zip(zs, lhs, rhs))


def _values(params: ParameterSet, x: np.ndarray) -> np.ndarray:
    """F at each point of a real 1-D array, the one place that chooses its
    route: the representing measure where the set has one (its integral
    adds same-sign terms however negative x is), else the series as one
    grid, which raises the error of the first point whose status is not ok."""
    if derive_constants(params).represented:
        return eval_via_representation(params, x).value
    return np.array(_fox_wright_values(params, x.tolist()))


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def moment_identity_check(
    params: ParameterSet, k_list: list[float]
) -> tuple[IdentityRecord, ...]:
    """gamma_ratio(k) against moment(k) + atom part, one record per k:
    z = k, lhs the gamma ratio, rhs the measure's Mellin transform."""
    if not all(math.isfinite(k) for k in k_list):
        raise ParameterError("moment orders must be finite")
    ev = get_evaluator(params)
    if len(k_list) == 0:  # no rows to integrate
        return ()
    ratios = [gamma_ratio(params, k) for k in k_list]
    # every moment in one pass over the rule, each row as ``ev.moment(k)`` forms it
    moments = ev.measure_integral(lambda t: np.array([t ** (k - 1.0) for k in k_list]))[0]
    return tuple(
        _record("moment-identity", k, ratio, moment + ev.atom_mellin(k), _TOL)
        for k, ratio, moment in zip(k_list, ratios, moments.tolist())
    )


# ---------------------------------------------------------------------------
# Stieltjes-kernel representation
# ---------------------------------------------------------------------------


def verify_stieltjes(
    params: ParameterSet, sigma: float, zs: Sequence[float]
) -> tuple[IdentityRecord, ...]:
    """Stieltjes quadrature vs the lifted series minus its atom term, one
    record per z.

    The lifted series (extra upper row ``(sigma, 1)``) at ``-z`` equals
    ``gamma(sigma) [ integral (1+tz)^(-sigma) H dt/t + A[(1+tz)^(-sigma)] ]``
    for every set the measure represents, A the endpoint atoms on the kernel
    (0 when mu > 0), so the two sides compared here must agree.  Past the
    series disk (``rho z >= 1``) :func:`lifted_value` is itself that
    Stieltjes integral plus the atom term this check subtracts again, so
    there the record compares the quadrature with itself and its error
    reads about 0.
    """
    _require_exponent("sigma", sigma)
    lhs = (math.gamma(sigma) * _stieltjes_integral(params, sigma, np.array(zs))[0]).tolist()
    rhs = _lifted_regular(params, sigma, zs)
    name = f"stieltjes-kernel[sigma={sigma:g}]"
    return tuple(_record(name, z, a, b, _TOL) for z, a, b in zip(zs, lhs, rhs))


# ---------------------------------------------------------------------------
# gamma-lifted series and the Laplace lift
# ---------------------------------------------------------------------------


def lifted_value(params: ParameterSet, lam: float, zs: Sequence[float]) -> tuple[float, ...]:
    """``sum_k gamma(lam + k) ratio(k) z^k / k!`` with analytic continuation,
    one value per z.

    Adding an upper row ``(lam, 1)`` to a balanced set drops the scale
    balance to -1, so the lifted series only converges on a disk of radius
    ``1/rho``.  Inside it the series is summed.  Where it does not converge,
    on the negative real axis, the same function extends through the measure
    as ``gamma(lam) [ integral (1-tz)^(-lam) H dt/t + A[(1-tz)^(-lam)] ]``
    for every set it represents, A the endpoint atoms on the kernel.
    Anywhere else the series' own error passes through: OutsideDomainError
    off the disk, NonConvergentError where a term overflows a double.  The
    lifted set is built once, its series is one grid, and the points past
    the series take the continuation in one pass over the rule.
    """
    _require_exponent("lam", lam)
    lifted = ParameterSet([(lam, 1.0), *params.upper], list(params.lower))
    values: list = []
    far = []  # the indices of the points that take the continuation
    for i, (z, res) in enumerate(zip(zs, _fox_wright_grid(lifted, zs))):
        try:
            values.append(_checked(res, z))
        except (OutsideDomainError, NonConvergentError):
            if not (z < 0 and derive_constants(params).represented):
                raise
            values.append(None)
            far.append(i)
    if far:
        z = -np.array([zs[i] for i in far])
        derivative = _power_kernel(derive_constants(params).rho, lam, z)[1]
        far_values = math.gamma(lam) * (_stieltjes_integral(params, lam, z)[0]
                                        + _atoms(params, derivative))
        for i, v in zip(far, far_values.tolist()):
            values[i] = v
    return tuple(values)


def _lifted_regular(params: ParameterSet, sigma: float, zs: Sequence[float]) -> list[float]:
    """The lifted series at ``-z`` minus its atom term
    ``gamma(sigma) A[(1+tz)^(-sigma)]`` at each z of a grid: the regular
    (density) part of the power-kernel transform,
    ``gamma(sigma) integral (1+tz)^(-sigma) H dt/t``, for any set the
    measure represents."""
    values = np.array(lifted_value(params, sigma, [-z for z in zs]))
    derivative = _power_kernel(derive_constants(params).rho, sigma, np.array(zs))[1]
    return (values - math.gamma(sigma) * _atoms(params, derivative)).tolist()


def laplace_lift_check(
    params: ParameterSet, lam: float, zs: Sequence[float]
) -> tuple[IdentityRecord, ...]:
    """Gamma-weighted integral of the series vs the lifted series, one
    record per z.

    ``integral_0^inf t^(lam-1) e^(-t) F(zt) dt`` where ``F`` is the base
    series, against ``lifted_value(params, lam, zs)``.  F(zt) grows like
    e^(rho z t) for z > 0, so the integrand decays like
    e^(-(1 - rho max(z, 0)) t) and the tail cut scales with the inverse of
    that rate; the lift diverges for z >= 1/rho, and the check refuses to
    run there or where F would overflow before the cut.  The right-hand
    sides are computed first, as one grid, so a lifted value out of reach
    costs no quadrature.

    F on the new nodes of the first five exp-sinh levels is one call of
    :func:`_values`, and each finer level one more; every point equals its
    one-point call, so the records do not depend on how the nodes are
    grouped.
    """
    _require_exponent("lam", lam)
    c = derive_constants(params)
    if not c.balanced:
        raise ConstraintError(
            f"the Laplace lift needs balanced scale sums; got delta={c.delta:.3g}"
        )
    decays = [1.0 - c.rho * max(z, 0.0) for z in zs]
    for z, decay in zip(zs, decays):
        if decay <= 1e-9:
            raise OutsideDomainError(
                f"the gamma-weighted integrand grows like e^(-(1 - rho z) t); "
                f"z={z} with rho={c.rho:g} does not decay"
            )
    rhs = lifted_value(params, lam, zs)
    name = f"laplace-lift[lam={lam:g}]"
    return tuple(
        _record(name, z,
                integrate_gamma_weighted(lambda t: _values(params, z * t), lam, decay=decay),
                b, _TOL)
        for z, decay, b in zip(zs, decays, rhs)
    )


# ---------------------------------------------------------------------------
# finite Laplace adjudication for the collapsed example set
# ---------------------------------------------------------------------------

def _finite_laplace_identity(z: float) -> tuple[IdentityRecord, ...]:
    """Numerically adjudicate a finite Laplace-type integral evaluation.

    Two closed forms are candidates for
    ``integral_0^(1/2) e^(-zt) H(t) dt/t`` on the collapsed example set
    ``EXP_COLLAPSE`` (series e^(2z)/sqrt(pi), density identically zero):
    (a) ``(e^(-2z) - e^(-z))/sqrt(pi)`` and (b) ``(e^(-2z) - e^(-z/2))/sqrt(pi)``.
    Four ``==`` records state what the blind quadrature
    (the measure's cached rule, with the integrand cut at t = 1/2) and an
    independent series-side oracle (the closed-form series value minus the
    endpoint-atom term) actually give against each: quadrature vs a,
    quadrature vs b, series side vs a, series side vs b.
    """
    ps = EXP_COLLAPSE
    quadrature = get_evaluator(ps).measure_integral(
        lambda t: np.where(t < 0.5, np.exp(-z * t) / t, 0.0)
    )[0]
    series_side = fox_wright_value(ps, -z) - correction_series(ps, -z)
    rt_pi = math.sqrt(math.pi)
    forms = {
        "a": (math.exp(-2.0 * z) - math.exp(-z)) / rt_pi,
        "b": (math.exp(-2.0 * z) - math.exp(-0.5 * z)) / rt_pi,
    }
    return tuple(
        _record(f"finite-laplace[{side}~{name}]", z, value, form, _TOL)
        for side, value in (("quadrature", quadrature), ("series", series_side))
        for name, form in forms.items()
    )
