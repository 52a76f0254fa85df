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
from typing import Callable

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
    four_param_wright,
    fox_wright_value,
)

__all__ = [
    "eval_via_representation",
    "verify_representation",
    "moment_identity_check",
    "stieltjes_eval",
    "verify_stieltjes",
    "lifted_value",
    "laplace_lift_check",
    "finite_laplace_identity",
    "four_param_representation",
]

_TOL = 1e-6  # rel_err within which the two sides of every identity here agree


def _power_kernel(
    rho: float, sigma: float, z: float | np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand ``t -> (1+tz)^(-sigma) / t`` of the power-kernel integral
    against H on (0, rho), one row per z of an array; DomainError where
    1 + tz vanishes on the support."""
    if np.any(1.0 + rho * np.asarray(z) <= 0.0):
        raise DomainError(
            f"kernel 1+tz vanishes inside the support: z={np.min(z)} <= {-1.0 / rho:.6g}"
        )
    return lambda t: (1.0 + np.multiply.outer(z, t)) ** (-sigma) / t


def _exp_kernel(z: float | np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The integrand ``t -> e^(zt) / t`` of the exponential-kernel integral
    against H on (0, rho), one row per z of an array."""
    return lambda t: np.exp(np.multiply.outer(z, t)) / t


def _power_atoms(params: ParameterSet, sigma: float, z: float) -> float:
    """The endpoint atoms on the power kernel ``(1+tz)^(-sigma)``, whose
    scaled derivatives at rho are (-w)^i (sigma)_i (1+w)^(-sigma-i) with
    w = rho z and (sigma)_i the rising factorial; 0 for a set without atoms."""
    w = derive_constants(params).rho * z
    return _atoms(params, lambda i: (-w) ** i * math.prod(sigma + r for r in range(i))
                  * (1.0 + w) ** (-sigma - i))


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
    one pass over the cached rule, refined until every point meets the
    tolerance; value and estimate are then arrays.
    """
    ev = get_evaluator(params)
    zr = np.asarray(z, dtype=float) if np.ndim(z) else float(z)
    integral, err = ev.measure_integral(_exp_kernel(zr))
    corr = correction_series(params, zr) if ev.m is not None else 0.0
    return EvalResult(integral + corr, ev._res_nodes_used, err, SeriesStatus.CONVERGED)


def verify_representation(params: ParameterSet, z: float) -> IdentityRecord:
    """Direct series vs the measure-rebuilt value, as an IdentityRecord."""
    return _verify_representation(params, [z])[0]


def _verify_representation(params: ParameterSet, zs: list[float]) -> list[IdentityRecord]:
    """:func:`verify_representation` at each z of a grid, each record equal to
    the one-point call: one series grid and one pass over the rule.  The
    atoms are added point by point, as the one-point value adds them: the
    array form of :func:`correction_series` rounds its exponentials apart."""
    lhs = _fox_wright_values(params, zs)
    ev = get_evaluator(params)
    integral = ev.measure_integral(_exp_kernel(np.array(zs)))[0].tolist()
    key = params.hash_key()
    return [
        _record("exp-kernel-representation", key, z, a,
                v + (correction_series(params, z) if ev.m is not None else 0.0), _TOL)
        for z, a, v in zip(zs, lhs, integral)
    ]


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
    key = params.hash_key()
    ratios = [gamma_ratio(params, k) for k in k_list]
    # every moment in one pass over the rule, each row as ``ev.moment(k)`` forms it
    moments = ev.measure_integral(lambda t: np.array([t ** (k - 1.0) for k in k_list]))[0]
    return tuple(
        _record("moment-identity", key, k, ratio, moment + ev.atom_mellin(k), _TOL)
        for k, ratio, moment in zip(k_list, ratios, moments.tolist())
    )


# ---------------------------------------------------------------------------
# Stieltjes-kernel representation
# ---------------------------------------------------------------------------


def stieltjes_eval(params: ParameterSet, sigma: float, z: float | np.ndarray) -> EvalResult:
    """``gamma(sigma) * integral_0^rho H(t) / (t (1+tz)^sigma) dt``.

    Only the regular (density) part of the measure; the endpoint atoms'
    matching term ``gamma(sigma) A[(1+tz)^(-sigma)]`` is what separates this
    from the lifted series, see :func:`verify_stieltjes`.  An array of z is
    one pass over the cached rule; value and estimate are then arrays.
    """
    _require_exponent("sigma", sigma)
    ev = get_evaluator(params)
    integral, err = ev.measure_integral(_power_kernel(ev.rho, sigma, z))
    g = math.gamma(sigma)
    return EvalResult(g * integral, ev._res_nodes_used, g * err, SeriesStatus.CONVERGED)


def verify_stieltjes(params: ParameterSet, sigma: float, z: float) -> IdentityRecord:
    """Stieltjes quadrature vs the lifted series minus its atom term.

    The lifted series (extra upper row ``(sigma, 1)``) at ``-z`` equals
    ``gamma(sigma) [ integral (1+tz)^(-sigma) H dt/t + A[(1+tz)^(-sigma)] ]``
    for every set the measure represents, A the endpoint atoms on the kernel
    (0 when mu > 0), so the two sides compared here must agree.  Past the
    series disk (``rho z >= 1``) :func:`lifted_value` is itself that
    Stieltjes integral plus the atom term this check subtracts again, so
    there the record compares the quadrature with itself and its error
    reads about 0.
    """
    return _verify_stieltjes(params, sigma, [z])[0]


def _verify_stieltjes(params: ParameterSet, sigma: float, zs: list[float]) -> list[IdentityRecord]:
    """:func:`verify_stieltjes` at each z of a grid, each record equal to the
    one-point call."""
    lhs = stieltjes_eval(params, sigma, np.array(zs)).value.tolist()
    rhs = _lifted_regular(params, sigma, zs)
    name, key = f"stieltjes-kernel[sigma={sigma:g}]", params.hash_key()
    return [_record(name, key, z, a, b, _TOL) for z, a, b in zip(zs, lhs, rhs)]


# ---------------------------------------------------------------------------
# gamma-lifted series and the Laplace lift
# ---------------------------------------------------------------------------


def lifted_value(params: ParameterSet, lam: float, z: float) -> float:
    """``sum_k gamma(lam + k) ratio(k) z^k / k!`` with analytic continuation.

    Adding an upper row ``(lam, 1)`` to a balanced set drops the scale
    balance to -1, so the lifted series only converges on a disk of radius
    ``1/rho``.  Inside it the series is summed.  Where it does not converge,
    on the negative real axis, the same function extends through the measure
    as ``gamma(lam) [ integral (1-tz)^(-lam) H dt/t + A[(1-tz)^(-lam)] ]``
    for every set it represents, A the endpoint atoms on the kernel.
    Anywhere else the series' own error passes through: OutsideDomainError
    off the disk, NonConvergentError where a term overflows a double.
    """
    return _lifted_values(params, lam, [z])[0]


def _lifted_values(params: ParameterSet, lam: float, zs: list[float]) -> list[float]:
    """:func:`lifted_value` at each z of a grid, each equal to the one-point
    call: the lifted set is built once, its series is one grid, and the
    points past the series take the continuation in one pass over the rule."""
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
        ev = get_evaluator(params)
        kernel = _power_kernel(ev.rho, lam, -np.array([zs[i] for i in far]))
        g = math.gamma(lam)
        for i, v in zip(far, ev.measure_integral(kernel)[0].tolist()):
            values[i] = g * (v + _power_atoms(params, lam, -zs[i]))
    return values


def _lifted_regular(params: ParameterSet, sigma: float, zs: list[float]) -> list[float]:
    """The lifted series at ``-z`` minus its atom term
    ``gamma(sigma) A[(1+tz)^(-sigma)]`` at each z of a grid: the regular
    (density) part of the power-kernel transform,
    ``gamma(sigma) integral (1+tz)^(-sigma) H dt/t``, for any set the
    measure represents."""
    values = _lifted_values(params, sigma, [-z for z in zs])
    g = math.gamma(sigma)
    return [v - g * _power_atoms(params, sigma, z) for v, z in zip(values, zs)]


def laplace_lift_check(params: ParameterSet, lam: float, z: float) -> IdentityRecord:
    """Gamma-weighted integral of the series vs the lifted series.

    ``integral_0^inf t^(lam-1) e^(-t) F(zt) dt`` where ``F`` is the base
    series, against ``lifted_value(params, lam, z)``.  F(zt) grows like
    e^(rho z t) for z > 0, so the integrand decays like
    e^(-(1 - rho max(z, 0)) t) and the tail cut scales with the inverse of
    that rate; the lift diverges for z >= 1/rho, and the check refuses to
    run there or where F would overflow before the cut.  The right-hand
    side is computed first, so a lifted value out of reach costs no
    quadrature.

    F comes from the representing measure wherever it exists (mu == -m or
    mu > 0): one vectorised pass over the rule per exp-sinh level, adding
    only same-sign quantities however negative zt is.  Other balanced sets
    sum the series on each level's nodes as one grid.
    """
    _require_exponent("lam", lam)
    c = derive_constants(params)
    if not c.balanced:
        raise ConstraintError(
            f"the Laplace lift needs balanced scale sums; got delta={c.delta:.3g}"
        )
    decay = 1.0 - c.rho * max(z, 0.0)
    if decay <= 1e-9:
        raise OutsideDomainError(
            f"the gamma-weighted integrand grows like e^(-(1 - rho z) t); "
            f"z={z} with rho={c.rho:g} does not decay"
        )
    rhs = lifted_value(params, lam, z)

    if c.represented:
        def f(t: np.ndarray) -> np.ndarray:
            return eval_via_representation(params, z * t).value
    else:
        def f(t: np.ndarray) -> np.ndarray:
            return np.array(_fox_wright_values(params, (z * t).tolist()))

    lhs = integrate_gamma_weighted(f, lam, decay=decay)
    return _record(f"laplace-lift[lam={lam:g}]", params.hash_key(), z, lhs, rhs, _TOL)


# ---------------------------------------------------------------------------
# finite Laplace adjudication for the collapsed example set
# ---------------------------------------------------------------------------

def finite_laplace_identity(z: float) -> tuple[IdentityRecord, ...]:
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
    key = ps.hash_key()
    return tuple(
        _record(f"finite-laplace[{side}~{name}]", key, z, value, form, _TOL)
        for side, value in (("quadrature", quadrature), ("series", series_side))
        for name, form in forms.items()
    )


# ---------------------------------------------------------------------------
# four-parameter family front end
# ---------------------------------------------------------------------------


def four_param_representation(
    mu1: float, a: float, nu1: float, b: float, z: float
) -> IdentityRecord:
    """Representation check for ``sum_k z^k / (gamma(a+k mu1) gamma(b+k nu1))``.

    Only two constraint families keep the measure split in the integer-atom
    regime: ``mu1 + nu1 == 1`` with ``a + b == 3/2`` (single atom) or with
    ``a + b == 1/2`` (linear-in-k atom polynomial).  Anything else raises
    ConstraintError.
    """
    if mu1 <= 0 or nu1 <= 0:
        raise ParameterError("mu1 and nu1 must be positive")
    ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
    # delta = mu1 + nu1 - 1 and mu = a + b - 3/2
    c = derive_constants(ps)
    if not c.balanced:
        raise ConstraintError(f"need mu1 + nu1 == 1, got {mu1 + nu1!r}")
    if c.m_order not in (0, 1):
        raise ConstraintError(
            f"need a + b == 3/2 (single atom) or a + b == 1/2 (linear atom); got {a + b!r}"
        )
    lhs = _checked(four_param_wright(mu1, a, nu1, b, z), z)
    rhs = eval_via_representation(ps, z).value
    return _record(f"four-param[m={c.m_order}]", ps.hash_key(), z, lhs, rhs, _TOL)
