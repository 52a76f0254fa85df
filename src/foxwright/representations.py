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

plus a numerical adjudication between two candidate closed forms for a
finite Laplace-type integral of the collapsed example set.

All checks emit :class:`IdentityRecord` rows with signed and relative
discrepancies; nothing here asserts, callers decide what counts as failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstraintError,
    DomainError,
    NonConvergentError,
    OutsideDomainError,
    ParameterError,
)
from .hfun import HfunEvalConfig, get_evaluator
from .params import ParameterSet, derive_constants
from .quadrature import integrate_adaptive, integrate_gamma_weighted
from .series import (
    EvalResult,
    SeriesStatus,
    correction_series,
    four_param_wright,
    fox_wright,
    fox_wright_value,
)
from .special import gamma_real

__all__ = [
    "IdentityRecord",
    "FiniteLaplaceReport",
    "eval_via_representation",
    "verify_representation",
    "stieltjes_eval",
    "verify_stieltjes",
    "lifted_value",
    "laplace_lift_check",
    "finite_laplace_identity",
    "four_param_representation",
]

_BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class IdentityRecord:
    """One identity evaluated at one point, with both sides and the verdict."""

    identity: str
    params_hash: str
    z: float
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    verdict: str


def _record(
    identity: str, params_hash: str, z: float, lhs: float, rhs: float, tol: float
) -> IdentityRecord:
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / (1.0 + max(abs(lhs), abs(rhs)))
    verdict = "pass" if rel_err <= tol else "fail"
    return IdentityRecord(identity, params_hash, float(z), lhs, rhs, abs_err, rel_err, verdict)


def _require_balanced(params: ParameterSet):
    c = derive_constants(params)
    if abs(c.delta) > _BALANCE_TOL:
        raise ConstraintError(
            "integral representations require balanced scale sums "
            f"(sum of upper scales {sum(s for _, s in params.upper):.6g} != "
            f"sum of lower scales {sum(s for _, s in params.lower):.6g})"
        )
    return c


# ---------------------------------------------------------------------------
# exponential-kernel representation
# ---------------------------------------------------------------------------


def eval_via_representation(
    params: ParameterSet, z: float, config: HfunEvalConfig | None = None
) -> EvalResult:
    """Series value rebuilt from the representing measure.

    ``integral_0^rho e^(zt) H(t) dt/t`` plus the endpoint-atom polynomial
    ``eta e^(rho z) sum_j l_(m-j) * (Touchard_j at rho z)``.  Works for the
    atomic regimes ``mu == -m`` and for the pure-density regime ``mu > 0``
    (where the atom part is identically zero).
    """
    c = _require_balanced(params)
    if c.m_order is None and not c.mu > _BALANCE_TOL:
        raise ConstraintError(
            "representation needs mu to be a non-positive integer or mu > 0; "
            f"got mu={c.mu:.6g}"
        )
    zr = float(z)
    ev = get_evaluator(params, config)
    integral, err = ev._integral(lambda t: np.exp(zr * t) / t)
    corr = complex(correction_series(params, zr)).real if c.m_order is not None else 0.0
    return EvalResult(integral + corr, ev._res_nodes_used, err, SeriesStatus.CONVERGED)


def verify_representation(
    params: ParameterSet,
    z: float,
    tol: float = 1e-6,
    config: HfunEvalConfig | None = None,
) -> IdentityRecord:
    """Direct series vs the measure-rebuilt value, as an IdentityRecord."""
    lhs = complex(fox_wright_value(params, z)).real
    rhs = float(eval_via_representation(params, z, config).value)
    return _record("exp-kernel-representation", params.hash_key(), z, lhs, rhs, tol)


# ---------------------------------------------------------------------------
# Stieltjes-kernel representation
# ---------------------------------------------------------------------------


def stieltjes_eval(
    params: ParameterSet,
    sigma: float,
    z: float,
    config: HfunEvalConfig | None = None,
) -> EvalResult:
    """``gamma(sigma) * integral_0^rho H(t) / (t (1+tz)^sigma) dt``.

    Only the regular (density) part of the measure; the endpoint atom's
    matching term ``gamma(sigma) eta (1+rho z)^(-sigma)`` is what separates
    this from the lifted series, see :func:`verify_stieltjes`.
    """
    if sigma <= 0:
        raise ParameterError("sigma must be positive")
    c = _require_balanced(params)
    if 1.0 + c.rho * z <= 0.0:
        raise DomainError(
            f"kernel 1+tz vanishes inside the support: z={z} <= {-1.0 / c.rho:.6g}"
        )
    ev = get_evaluator(params, config)
    integral, err = ev._integral(lambda t: (1.0 + t * z) ** (-sigma) / t)
    g = gamma_real(sigma)
    return EvalResult(g * integral, ev._res_nodes_used, g * err, SeriesStatus.CONVERGED)


def verify_stieltjes(
    params: ParameterSet,
    sigma: float,
    z: float,
    tol: float = 1e-6,
    config: HfunEvalConfig | None = None,
) -> IdentityRecord:
    """Stieltjes quadrature vs the lifted series minus its atom term.

    The lifted series (extra upper row ``(sigma, 1)``) at ``-z`` equals
    ``gamma(sigma) [ integral (1+tz)^(-sigma) H dt/t + eta (1+rho z)^(-sigma) ]``
    whenever the measure has a single endpoint atom (``mu == 0``), so the
    two sides compared here must agree.
    """
    c = _require_balanced(params)
    if c.m_order != 0:
        raise ConstraintError(
            "the Stieltjes identity needs a single endpoint atom (mu == 0); "
            f"got mu={c.mu:.6g}"
        )
    lhs = float(stieltjes_eval(params, sigma, z, config).value)
    atom = gamma_real(sigma) * c.eta * (1.0 + c.rho * z) ** (-sigma)
    rhs = lifted_value(params, sigma, -z, config=config) - atom
    return _record(
        f"stieltjes-kernel[sigma={sigma:g}]", params.hash_key(), z, lhs, rhs, tol
    )


# ---------------------------------------------------------------------------
# gamma-lifted series and the Laplace lift
# ---------------------------------------------------------------------------


def lifted_value(
    params: ParameterSet,
    lam: float,
    z: float,
    route: str = "auto",
    config: HfunEvalConfig | None = None,
) -> float:
    """``sum_k gamma(lam + k) ratio(k) z^k / k!`` with analytic continuation.

    Adding an upper row ``(lam, 1)`` to a balanced set drops the scale
    balance to -1, so the lifted series only converges on a disk of radius
    ``1/rho``.  On the negative real axis the same function extends through
    the measure as ``gamma(lam) [ integral (1-tz)^(-lam) H dt/t +
    eta (1-rho z)^(-lam) ]``, which this helper uses once the series is out
    of reach (or on request via ``route="kernel"``).
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    if route not in ("auto", "series", "kernel"):
        raise ParameterError(f"unknown route {route!r}")
    c = derive_constants(params)

    if route in ("auto", "series"):
        lifted = ParameterSet([(lam, 1.0), *params.upper], list(params.lower))
        res = fox_wright(lifted, z)
        if res.status is SeriesStatus.CONVERGED:
            return complex(res.value).real
        if route == "series":
            if res.status is SeriesStatus.MAX_TERMS:
                raise NonConvergentError(
                    f"lifted series did not settle at z={z} "
                    f"(last relative term ~ {res.trunc_estimate:.3e})"
                )
            raise OutsideDomainError(f"z={z} outside the lifted series disk")

    atomic_ok = c.m_order == 0 or (c.m_order is None and c.mu > _BALANCE_TOL)
    if z < 0 and abs(c.delta) <= _BALANCE_TOL and atomic_ok:
        x = -z
        ev = get_evaluator(params, config)
        integral = ev.measure_integral(lambda t: (1.0 + t * x) ** (-lam) / t)
        atom = c.eta * (1.0 + c.rho * x) ** (-lam) if c.m_order == 0 else 0.0
        return gamma_real(lam) * (integral + atom)
    raise OutsideDomainError(
        f"z={z} is outside the lifted series disk and the kernel continuation "
        "needs a balanced set with a single endpoint atom and z < 0"
    )


def laplace_lift_check(
    params: ParameterSet,
    lam: float,
    z: float,
    tol: float = 1e-6,
    config: HfunEvalConfig | None = None,
) -> IdentityRecord:
    """Gamma-weighted integral of the series vs the lifted series.

    ``integral_0^inf t^(lam-1) e^(-t) F(zt) dt`` where ``F`` is the base
    series, against ``lifted_value(params, lam, z)``.  The integrand only
    decays for ``z < 1/rho``; past that the lift diverges and the check
    refuses to run.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    c = _require_balanced(params)
    if z * c.rho >= 1.0 - 1e-9:
        raise OutsideDomainError(
            f"the gamma-weighted integrand grows like e^(-(1 - rho z) t); "
            f"z={z} with rho={c.rho:g} does not decay"
        )

    # Deep on the negative axis the alternating series cancels down to
    # rounding noise of order e^(rho |w|) * eps, so past rho|w| ~ 20 the
    # integrand switches to the measure route, which only ever adds
    # same-sign quantities.
    switch = 20.0 / max(c.rho, 1e-12)
    representable = c.m_order is not None or c.mu > _BALANCE_TOL

    def f_point(w: float) -> float:
        if w < -switch and representable:
            return float(eval_via_representation(params, w, config).value)
        return complex(fox_wright_value(params, w)).real

    def f(t: np.ndarray) -> np.ndarray:
        return np.array([f_point(z * ti) for ti in np.atleast_1d(t)])

    lhs = integrate_gamma_weighted(f, lam)
    rhs = lifted_value(params, lam, z, config=config)
    return _record(f"laplace-lift[lam={lam:g}]", params.hash_key(), z, lhs, rhs, tol)


# ---------------------------------------------------------------------------
# finite Laplace adjudication for the collapsed example set
# ---------------------------------------------------------------------------

# upper=(1,1) over lower=(1/2,1/2),(1,1/2): the series is e^(2z)/sqrt(pi)
# and the representing density vanishes identically (gamma duplication
# collapses the full mass into the endpoint atom).
_COLLAPSED_SET = ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (1.0, 0.5)])


@dataclass(frozen=True)
class FiniteLaplaceReport:
    """Adjudication of two candidate closed forms for one finite integral.

    ``quadrature`` is ``integral_0^(1/2) e^(-zt) H(t) dt/t`` for the
    collapsed example set, evaluated blind.  ``series_side`` is the
    independent oracle: the closed-form series value minus the endpoint-atom
    term.  Each is compared against both candidates; a verdict names which
    candidate (if any) it matches.
    """

    z: float
    quadrature: float
    series_side: float
    closed_form_a: float  # (e^(-2z) - e^(-z)) / sqrt(pi)
    closed_form_b: float  # (e^(-2z) - e^(-z/2)) / sqrt(pi)
    err_a: float
    err_b: float
    verdict: str
    series_verdict: str


def _adjudicate(value: float, form_a: float, form_b: float, tol: float) -> str:
    scale = 1.0 + max(abs(value), abs(form_a), abs(form_b))
    match_a = abs(value - form_a) <= tol * scale
    match_b = abs(value - form_b) <= tol * scale
    if match_a and match_b:
        return "both"
    if match_a:
        return "a"
    if match_b:
        return "b"
    return "neither"


def finite_laplace_identity(
    z: float, tol: float = 1e-6, config: HfunEvalConfig | None = None
) -> FiniteLaplaceReport:
    """Numerically adjudicate a finite Laplace-type integral evaluation.

    Two closed forms are candidates for
    ``integral_0^(1/2) e^(-zt) H(t) dt/t`` on the collapsed example set:
    ``(e^(-2z) - e^(-z))/sqrt(pi)`` and ``(e^(-2z) - e^(-z/2))/sqrt(pi)``.
    The report states what the quadrature and an independent series-route
    oracle actually give, and which candidate (if either) each matches.
    """
    ps = _COLLAPSED_SET
    c = derive_constants(ps)
    ev = get_evaluator(ps, config)
    hi = 0.5

    def left(u: np.ndarray) -> np.ndarray:
        t = hi * u * u
        return np.exp(-z * t) / t * ev.density(t) * 2.0 * hi * u

    quadrature = integrate_adaptive(left, 0.0, 1.0, tol_abs=1e-12, tol_rel=1e-10)
    series_side = complex(fox_wright_value(ps, -z)).real - c.eta * math.exp(-c.rho * z)
    rt_pi = math.sqrt(math.pi)
    form_a = (math.exp(-2.0 * z) - math.exp(-z)) / rt_pi
    form_b = (math.exp(-2.0 * z) - math.exp(-0.5 * z)) / rt_pi
    return FiniteLaplaceReport(
        z=float(z),
        quadrature=quadrature,
        series_side=series_side,
        closed_form_a=form_a,
        closed_form_b=form_b,
        err_a=abs(quadrature - form_a),
        err_b=abs(quadrature - form_b),
        verdict=_adjudicate(quadrature, form_a, form_b, tol),
        series_verdict=_adjudicate(series_side, form_a, form_b, tol),
    )


# ---------------------------------------------------------------------------
# four-parameter family front end
# ---------------------------------------------------------------------------


def four_param_representation(
    mu1: float,
    a: float,
    nu1: float,
    b: float,
    z: float,
    tol: float = 1e-6,
    config: HfunEvalConfig | None = None,
) -> IdentityRecord:
    """Representation check for ``sum_k z^k / (gamma(a+k mu1) gamma(b+k nu1))``.

    Only two constraint families keep the measure split in the integer-atom
    regime: ``mu1 + nu1 == 1`` with ``a + b == 3/2`` (single atom) or with
    ``a + b == 1/2`` (linear-in-k atom polynomial).  Anything else raises
    ConstraintError.
    """
    if mu1 <= 0 or nu1 <= 0:
        raise ParameterError("mu1 and nu1 must be positive")
    if abs(mu1 + nu1 - 1.0) > _BALANCE_TOL:
        raise ConstraintError(f"need mu1 + nu1 == 1, got {mu1 + nu1!r}")
    if abs(a + b - 1.5) <= _BALANCE_TOL:
        m = 0
    elif abs(a + b - 0.5) <= _BALANCE_TOL:
        m = 1
    else:
        raise ConstraintError(
            f"need a + b == 3/2 (single atom) or a + b == 1/2 (linear atom); got {a + b!r}"
        )
    ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
    lhs = complex(four_param_wright(mu1, a, nu1, b, z).value).real
    rhs = float(eval_via_representation(ps, z, config).value)
    return _record(f"four-param[m={m}]", ps.hash_key(), z, lhs, rhs, tol)
