"""Direct power-series evaluation.

The main entry point is :func:`fox_wright`, which sums

    sum_k  gamma_ratio(k) * z^k / k!

in signed log space so that huge gamma ratios and huge factorials cancel
before anything is exponentiated.  Classical specialisations (generalized
hypergeometric, the two-parameter Wright function, Mittag-Leffler) are
parameter sets; the README lists their rows.  The four-parameter Wright
function supplies its own terms because its scales may be negative, which
the row-based model deliberately rejects; reciprocal-gamma semantics (zeros
at poles) make the sum well defined there.  Both sum through one private
loop, :func:`_sum_point`, and decide their domain by one rule,
``params._converges``.  A grid of z of the row series is summed point by
point on one table of term coefficients, each computed the first time a
point needs it, so a point that needs no new term pays only for its own
arithmetic; one z is the grid of one point.

Summation is honest about its own failure modes: every call returns an
:class:`EvalResult` carrying the term count, a truncation estimate, and a
status flag, and the strict wrapper turns bad statuses into exceptions.

:class:`IdentityRecord` is the package's other result type: one comparison
``lhs <relation> rhs`` at one point, built by :func:`_record`.  It lives here,
beside :class:`EvalResult`, so that every layer above can build one.
"""

from __future__ import annotations

import cmath
import enum
import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .errors import DomainError, NonConvergentError, OutsideDomainError, ParameterError
from .params import (
    ParameterSet,
    _converges,
    _per_set,
    _pole_order,
    correction_coeffs,
    derive_constants,
    gamma_ratio_log_signed,
    in_domain,
)
from .special import log_abs_gamma_signed, stirling2_row

__all__ = [
    "EvalResult",
    "IdentityRecord",
    "SeriesStatus",
    "fox_wright",
    "fox_wright_value",
    "four_param_wright",
    "correction_series",
]

_TERM_CAP = 10_000
_TOL = 1e-12  # a term this far below the running sum is negligible
_STOP_STREAK = 3


class SeriesStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_TERMS = "max-terms"
    OUTSIDE_DOMAIN = "outside-domain"


class EvalResult(NamedTuple):
    """Outcome of a series summation, a named tuple: it unpacks as
    ``value, terms_used, trunc_estimate, status``.

    ``trunc_estimate`` is the magnitude of the last computed term relative
    to the accumulated value, i.e. an a-posteriori bound stand-in, not a
    rigorous error bound.  A result rebuilt from the representing measure
    by ``eval_via_representation`` carries instead the measure integral's
    estimate: the absolute difference of its last two quadrature levels,
    floored at eps times the integral of |f| (``quadrature.integrate_levels``);
    for an array of z, value and estimate are arrays.
    """

    value: complex
    terms_used: int
    trunc_estimate: float
    status: SeriesStatus

    def ok(self) -> bool:
        return self.status is SeriesStatus.CONVERGED


_OUTSIDE = EvalResult(complex("nan"), 0, math.inf, SeriesStatus.OUTSIDE_DOMAIN)


class IdentityRecord(NamedTuple):
    """One comparison ``lhs <relation> rhs`` at one point, with the verdict:
    a named tuple of the eight fields below, in their order.

    ``relation`` is ``==``, ``<=`` or ``>=``.  ``abs_err`` is |lhs - rhs| and
    ``rel_err`` is abs_err / (1 + max(|lhs|, |rhs|)).  ``verdict`` is
    ``pass``, ``fail``, or ``n/a`` for a conditional statement whose
    hypothesis does not hold.  A record does not name its parameter set;
    the CLI's report rows add the set's content hash.
    """

    identity: str
    z: float
    lhs: float
    relation: str
    rhs: float
    abs_err: float
    rel_err: float
    verdict: str

    def ok(self) -> bool:
        return self.verdict == "pass"


def _record(
    identity: str,
    z: float,
    lhs: float,
    rhs: float,
    tol: float,
    relation: str = "==",
    applies: bool = True,
) -> IdentityRecord:
    """Judge ``lhs <relation> rhs``: it passes when the two sides agree to
    ``tol`` in rel_err or, for an inequality, when it holds outright.  Every
    comparison with a NaN side is false, so a NaN fails.  ``applies=False``
    marks a hypothesis that fails: the verdict is ``n/a``.  ``identity``
    names the check, and ``z`` the point it compares at."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / (1.0 + max(abs(lhs), abs(rhs)))
    if not applies:
        verdict = "n/a"
    elif rel_err <= tol or (relation == "<=" and lhs <= rhs) or (relation == ">=" and lhs >= rhs):
        verdict = "pass"
    else:
        verdict = "fail"
    return IdentityRecord(identity, float(z), lhs, relation, rhs, abs_err, rel_err, verdict)


def fox_wright(params: ParameterSet, z: complex) -> EvalResult:
    """Sum the series at z, stopping after three consecutive negligible terms.

    Outside the convergence domain no summation is attempted and the result
    carries ``SeriesStatus.OUTSIDE_DOMAIN`` with a NaN value.  Hitting the
    10000-term cap reports ``MAX_TERMS`` along with the relative size of the
    last term, so near-boundary evaluations are never silently trusted.
    """
    return next(_fox_wright_grid(params, (z,)))


def _fox_wright_grid(params: ParameterSet, zs: Iterable[complex]) -> Iterator[EvalResult]:
    """:func:`fox_wright` at each z of a grid, in order, each result equal to
    the one-point call: the ``OUTSIDE_DOMAIN`` result off the domain, else
    the sum on one table of term coefficients, each computed the first time
    a point needs it and read by every point after."""

    def coefficient(k: int) -> tuple[float, float, float]:
        log_ratio, sign = gamma_ratio_log_signed(params, k)
        return log_ratio, sign, math.lgamma(k + 1.0)

    table: list[tuple[float, float, float]] = []
    for z in zs:
        yield _sum_point(coefficient, table, z) if in_domain(params, z) else _OUTSIDE


def _fox_wright_values(params: ParameterSet, zs: Sequence[complex]) -> list:
    """:func:`fox_wright_value` at each z of a grid: raises the error of the
    first point whose status is not ok, as the one-point calls in order would."""
    return [_checked(res, z) for z, res in zip(zs, _fox_wright_grid(params, zs))]


def _log_abs(z: complex) -> float:
    return math.log(abs(z)) if z != 0 else -math.inf


def _sum_point(
    coefficient: Callable[[int], tuple[float, float, float]], table: list, z: complex
) -> EvalResult:
    """Sum the terms at one z, reading the coefficients from ``table`` and
    appending to it the first time term k is needed.  ``coefficient(k)``
    gives (log_c, sign, log_f) of term k: it is
    sign * e^(log_c + k log|z| - log_f) * e^(i k arg z), log_c = -inf for a
    zero term.

    Stops after three consecutive small terms: each below ``_TOL`` relative
    to the running sum, and so is the geometric tail mag r / (1 - r) it
    starts, r < 1 being its ratio to the term before.  A slowly converging
    series thus runs on until what it leaves out is small, not only its
    next term.  Otherwise reports ``MAX_TERMS`` with the last term's
    relative size, or with a NaN value when a term or the sum overflows a
    double.  A real z sums in floats and returns a float.
    """
    zc = complex(z)
    is_real = zc.imag == 0.0
    alternating = is_real and zc.real < 0
    arg_z = cmath.phase(zc)
    log_abs_z = _log_abs(zc)

    # locals: the loop reads them on every term
    tol, log_zero, exp = _TOL, -math.inf, math.exp
    total = 0.0 if is_real else 0.0 + 0.0j
    small_streak = 0
    last_mag = math.inf
    terms = 0
    try:
        for k in range(_TERM_CAP):
            if k == len(table):
                table.append(coefficient(k))
            log_c, sign, log_f = table[k]
            terms = k + 1
            if log_c == log_zero:
                term = mag = 0.0
            else:
                mag = exp(log_c + k * log_abs_z - log_f if k else log_c)
                if is_real:
                    term = sign * mag * (-1.0 if alternating and k % 2 else 1.0)
                elif k == 0:
                    term = complex(sign * mag)
                else:
                    term = sign * mag * cmath.exp(1j * k * arg_z)
            total += term
            if zc == 0:
                return EvalResult(total, 1, 0.0, SeriesStatus.CONVERGED)
            scale = abs(total)
            if scale < 1e-300:  # max(|total|, 1e-300) without a call per term
                scale = 1e-300
            # mag r / (1 - r) = mag^2 / (last_mag - mag) for r = mag / last_mag
            if mag <= tol * scale and mag * mag <= tol * scale * (last_mag - mag):
                small_streak += 1
                if small_streak >= _STOP_STREAK:
                    if not cmath.isfinite(total):  # every term fits a double, their sum not
                        raise OverflowError
                    return EvalResult(total, terms, mag / scale, SeriesStatus.CONVERGED)
            else:
                small_streak = 0
            if mag:  # a zero term counts toward the streak but sets no ratio
                last_mag = mag
    except OverflowError:  # a term or the sum left the double range: no value to report
        return EvalResult(math.nan if is_real else complex(math.nan, math.nan), terms,
                          math.inf, SeriesStatus.MAX_TERMS)
    return EvalResult(
        total,
        terms,
        last_mag / max(abs(total), 1e-300),
        SeriesStatus.MAX_TERMS,
    )


def fox_wright_value(params: ParameterSet, z: complex) -> float | complex:
    """Like :func:`fox_wright` but raises instead of returning a bad status."""
    return _checked(fox_wright(params, z), z)


def _checked(res: EvalResult, z: complex) -> float | complex:
    """The value of ``res``, or the error its status names."""
    if res.status is SeriesStatus.OUTSIDE_DOMAIN:
        raise OutsideDomainError(f"z={z} lies outside the convergence domain")
    if res.status is SeriesStatus.MAX_TERMS:  # a NaN value is an overflow
        raise NonConvergentError(
            f"a term or the sum overflows a double within {res.terms_used} terms"
            if cmath.isnan(res.value)
            else f"series did not settle within {res.terms_used} terms "
            f"(relative last term ~ {res.trunc_estimate:.3e})"
        )
    return res.value


def four_param_wright(
    mu1: float,
    a: float,
    nu1: float,
    b: float,
    z: complex,
) -> EvalResult:
    """sum_k z^k / (gamma(a + mu1*k) * gamma(b + nu1*k)) with rgamma semantics.

    mu1 and nu1 may have either sign.  A gamma pole in either factor zeroes
    that term rather than failing, matching the reciprocal-gamma reading
    under which the sum is defined for all parameter signs.  For positive
    scales this equals the row series with upper=[(1,1)],
    lower=[(a,mu1),(b,nu1)] since gamma(1+k)/k! = 1.

    Its domain follows the row series' rule with that set's constants:
    balance mu1 + nu1 - 1, radius |mu1|^mu1 * |nu1|^nu1 and mu = a + b - 3/2.
    So it is entire for mu1 + nu1 > 0, a disk for mu1 + nu1 == 0 (edge
    included when a + b > 2), and only z = 0 otherwise.  A non-finite mu1,
    a, nu1 or b raises ParameterError, as a parameter row does.
    """
    if not all(math.isfinite(v) for v in (mu1, a, nu1, b)):
        raise ParameterError(f"four-parameter form ({mu1}, {a}, {nu1}, {b}) is not finite")
    # |mu1|^mu1 * |nu1|^nu1 from logs: one factor alone may overflow, while
    # the product is near 1 wherever mu1 + nu1 == 0 makes it the radius
    log_radius = sum(s * math.log(abs(s)) for s in (mu1, nu1) if s)
    radius = math.exp(min(log_radius, 700.0))

    def coefficient(k: int) -> tuple[float, float, float]:
        log_den = 0.0
        sign = 1.0
        for shift, scl in ((a, mu1), (b, nu1)):
            arg = shift + k * scl
            if _pole_order(arg, abs(scl)) is not None:
                return -math.inf, 1.0, 0.0  # reciprocal gamma vanishes at its poles
            la, sg = log_abs_gamma_signed(arg)
            log_den += la
            sign *= sg
        # -log_den + k log|z| - 0.0 rounds as k log|z| - log_den does
        return -log_den, sign, 0.0

    if not _converges(mu1 + nu1 - 1.0, radius, a + b - 1.5, complex(z)):
        return _OUTSIDE
    return _sum_point(coefficient, [], z)


# ---------------------------------------------------------------------------
# The endpoint atoms in the balanced integer case
# ---------------------------------------------------------------------------


def _atoms(params: ParameterSet, derivative: Callable[[int], Any]) -> Any:
    """The endpoint atoms of a set with mu == -m on a kernel K, 0 when mu != -m:
    eta sum_j l_(m-j) ((t d/dt)^j K)(rho), as their Mellin transform is
    eta rho^s sum_j l_(m-j) s^j.  As (t d/dt)^j = sum_i S(j, i) t^i d^i/dt^i, that
    is eta sum_i w_i ``derivative(i)``, K supplying ``derivative(i)`` = rho^i K^(i)(rho)
    as a float or, one per point, a numpy array.

    Every kernel's one overflow policy: DomainError where the sum leaves the
    double range, a float ``**`` raising OverflowError or a float or array sum
    coming out non-finite; numpy warns of nothing on the way."""
    import numpy as np  # here, not at module level: the series needs no numpy

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            value = derive_constants(params).eta * sum(
                w * derivative(i) for i, w in enumerate(_atom_weights(params)))
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise DomainError("the endpoint atoms' sum overflows a double")
    return value


@_per_set
def _atom_weights(params: ParameterSet) -> tuple[float, ...]:
    """w_i = sum_j l_(m-j) S(j, i) for i = 0..m, the set fixes them; () when mu != -m."""
    m = derive_constants(params).m_order
    ell = correction_coeffs(params, m) if m is not None else ()
    return tuple(sum(ell[m - j] * stirling2_row(j)[i] for j in range(i, m + 1))
                 for i in range(len(ell)))


def correction_series(params: ParameterSet, z: Any) -> Any:
    """eta * sum_k rho^k P(k) z^k / k!  where P(k) = sum_j l_{m-j} k^j.

    This is the part of the series contributed by the endpoint atoms when
    the scale sums balance and mu == -m for an integer m >= 0: their
    functional :func:`_atoms` on the kernel e^(zt), whose scaled
    derivatives at rho are w^i e^w with w = rho z.  A numpy array of z
    gives the array of values, each equal bit for bit to its one-point
    call; a real z gives a float and a complex z a complex.
    """
    import numpy as np  # here, not at module level: the series needs no numpy

    c = derive_constants(params)
    if not c.balanced:
        raise OutsideDomainError("correction series requires balanced scale sums")
    if c.m_order is None:
        raise OutsideDomainError("correction series requires mu to be a non-positive integer")
    w = c.rho * np.asarray(z)
    value = _atoms(params, lambda i: w**i * np.exp(w))
    return value if np.ndim(z) else value.item()
