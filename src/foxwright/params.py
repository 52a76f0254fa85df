"""Parameter model for generalized Wright series.

A parameter set is two rows of (shift, scale) gamma pairs.  The series built
from it is

    sum_k  [prod_i gamma(a_i + k*A_i) / prod_j gamma(b_j + k*B_j)] * z^k / k!

Everything downstream (domain classification, measure support, asymptotic
normalisation, correction coefficients) is a pure function of the rows, so
each is built once per set and kept in the set's one record (``_per_set``).

Two closely related scale products show up and are easy to conflate:

* ``rho``: the product prod A_i^A_i * prod B_j^(-B_j).  This is the growth
  base of the coefficient ratio, the endpoint of the support of the
  representing measure, and the rate in every exponential bound.
* ``conv_radius``: its reciprocal, which is the radius of convergence of
  the power series in the delta == -1 case.

Keeping both as named fields avoids a whole class of sign errors.
"""

from __future__ import annotations

import cmath
import json
import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Sequence

from .errors import DomainError, ParameterError, PoleError
from .special import _bernoulli_all, log_abs_gamma_signed

__all__ = [
    "ParameterSet",
    "DerivedConstants",
    "derive_constants",
    "in_domain",
    "correction_coeffs",
    "gamma_ratio",
    "gamma_ratio_log_signed",
    "shift_parameters",
]

Pair = tuple[float, float]

_INT_TOL = 1e-9
_BALANCE_TOL = 1e-9  # |delta| and mu > 0 tolerance of the measure's regimes
_EDGE_RTOL = 1e-12  # |z| this close to the radius, relatively, is on the disk's edge
_POLE_SCAN_CAP = 10_000
_LOG_MAX = math.log(sys.float_info.max)  # e^x overflows a double beyond it


@lru_cache(maxsize=32)
def _set_record(params: ParameterSet) -> dict:
    """One set's kept fields by builder; the 32 sets used last keep theirs."""
    return {}


def _per_set(build):
    """``build(params)``, kept in the set's record; a build that raises keeps nothing."""
    @wraps(build)
    def kept(params):
        if build not in (record := _set_record(params)):
            record[build] = build(params)
        return record[build]
    return kept


def _pair(row: Sequence[float]) -> Pair:
    """``row`` as (shift, scale) floats, a -0.0 shift as 0.0 so that equal
    sets serialise alike; TypeError unless it is two real numbers, which the
    characters of a string such as "12" and a bool are not."""
    a, s = row
    for v in (a, s):
        if type(v) not in (float, int):
            import numbers  # a float or an int skips the import and the slower check
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise TypeError(f"row {row!r} is not two real numbers")
    return float(a) + 0.0, float(s)


@dataclass(frozen=True)
class ParameterSet:
    """Immutable pair of gamma rows, validated on construction.

    ``upper`` are the numerator pairs (a_i, A_i), ``lower`` the denominator
    pairs (b_j, B_j).  Scales must be positive; numerator pairs must not put
    a gamma pole on any series index k = 0, 1, 2, ...
    """

    upper: tuple[Pair, ...]
    lower: tuple[Pair, ...]

    def __init__(self, upper: Sequence[Sequence[float]], lower: Sequence[Sequence[float]]):
        # a row that is not two real numbers is a ParameterError too
        try:
            object.__setattr__(self, "upper", tuple(map(_pair, upper)))
            object.__setattr__(self, "lower", tuple(map(_pair, lower)))
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"malformed parameter rows: {exc}") from exc
        self._validate()

    def _validate(self) -> None:
        if not self.upper and not self.lower:
            raise ParameterError("at least one of upper/lower must be non-empty")
        for name, row in (("upper", self.upper), ("lower", self.lower)):
            for shift, scale in row:
                if not (math.isfinite(shift) and math.isfinite(scale)):
                    raise ParameterError(f"{name} pair ({shift}, {scale}) is not finite")
                if scale <= 0.0:
                    raise ParameterError(f"{name} scale must be positive, got {scale}")
        for shift, scale in self.upper:
            # gamma(shift + k*scale) sits in the numerator for every k >= 0;
            # a pole there makes a series term infinite.  Only finitely many
            # k can land on a non-positive argument, so scan exactly those.
            k_max = int(math.floor(-shift / scale)) if shift <= 0.0 else -1
            for k in range(0, min(k_max, _POLE_SCAN_CAP) + 1):
                if _pole_order(shift + k * scale, scale) is not None:
                    raise ParameterError(
                        f"upper pair ({shift}, {scale}) hits a gamma pole at term k={k}"
                    )

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "upper": [[a, s] for a, s in self.upper],
            "lower": [[b, s] for b, s in self.lower],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ParameterSet":
        try:
            return cls(data["upper"], data["lower"])
        except (KeyError, TypeError) as exc:
            raise ParameterError(f"malformed parameter dict: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ParameterSet":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"invalid parameter JSON: {exc}") from exc
        return cls.from_dict(data)

    @_per_set
    def hash_key(self) -> str:
        """16-hex-char digest of the canonical JSON form, kept for every report row."""
        import hashlib  # loaded (with OpenSSL) by the first report row, not on import

        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar invariants of a parameter set.

    delta           scale balance sum(B) - sum(A); sign decides the domain
    rho             growth base prod A^A * prod B^(-B); support endpoint
    conv_radius     1/rho; series radius when delta == -1
    mu              second-order exponent sum(b) - sum(a) + (p - q)/2
    eta             asymptotic normalisation of the coefficient ratio
    gamma_abscissa  -min(a_i / A_i) over upper pairs (-inf when upper is empty)
    m_order         m when mu == -m for an integer m >= 0, else None
    """

    delta: float
    rho: float
    conv_radius: float
    mu: float
    eta: float
    gamma_abscissa: float
    m_order: int | None

    @property
    def balanced(self) -> bool:
        """The scale sums agree: |delta| <= 1e-9."""
        return abs(self.delta) <= _BALANCE_TOL

    @property
    def represented(self) -> bool:
        """Balanced, with mu == -m (density plus endpoint atoms) or mu > 0
        (a pure density): the regimes the representing measure covers."""
        return self.balanced and (self.m_order is not None or self.mu > _BALANCE_TOL)


@_per_set
def derive_constants(params: ParameterSet) -> DerivedConstants:
    a_shifts = [a for a, _ in params.upper]
    a_scales = [s for _, s in params.upper]
    b_shifts = [b for b, _ in params.lower]
    b_scales = [s for _, s in params.lower]

    delta = sum(b_scales) - sum(a_scales)
    log_rho = sum(s * math.log(s) for s in a_scales) - sum(s * math.log(s) for s in b_scales)
    rho = math.exp(log_rho)
    mu = sum(b_shifts) - sum(a_shifts) + (params.p - params.q) / 2.0

    log_eta = ((params.p - params.q) / 2.0) * math.log(2.0 * math.pi)
    log_eta += sum((a - 0.5) * math.log(s) for a, s in params.upper)
    log_eta += sum((0.5 - b) * math.log(s) for b, s in params.lower)
    eta = math.exp(log_eta)

    if params.upper:
        gamma_abscissa = -min(a / s for a, s in params.upper)
    else:
        gamma_abscissa = -math.inf

    m_order: int | None = None
    mu_rounded = round(mu)
    if abs(mu - mu_rounded) < _INT_TOL and mu_rounded <= 0:
        m_order = int(-mu_rounded)

    return DerivedConstants(
        delta=delta,
        rho=rho,
        conv_radius=1.0 / rho,
        mu=mu,
        eta=eta,
        gamma_abscissa=gamma_abscissa,
        m_order=m_order,
    )


def _converges(delta: float, radius: float, mu: float, z: complex) -> bool:
    """Whether a series with scale balance ``delta``, disk radius ``radius``
    and second-order exponent ``mu`` converges at z; never at a non-finite z.

    delta > -1 gives an entire function; delta == -1 (to within _INT_TOL) a
    disk of that radius, whose edge is summable exactly when mu > 1/2;
    delta < -1 leaves only z = 0.  The row series and the four-parameter
    form both decide their domain here.
    """
    if not cmath.isfinite(z):
        return False
    if delta > -1.0 + _INT_TOL:
        return True
    if not delta > -1.0 - _INT_TOL:
        return z == 0
    r = abs(z)
    if r < radius * (1.0 - _EDGE_RTOL):
        return True
    return abs(r - radius) <= radius * _EDGE_RTOL and mu > 0.5


def in_domain(params: ParameterSet, z: complex) -> bool:
    """Whether the series at z converges for this parameter set; never at a
    non-finite z."""
    c = derive_constants(params)
    return _converges(c.delta, c.conv_radius, c.mu, z)


def _require_exponent(name: str, value: float) -> None:
    """ParameterError unless ``value`` is a positive kernel exponent whose
    gamma function fits a double (``value`` below about 171.62)."""
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite")
    try:
        math.gamma(value)
    except OverflowError:
        raise ParameterError(f"gamma({name}={value:g}) overflows a double") from None


def shift_parameters(params: ParameterSet, delta: float) -> ParameterSet:
    """Shift every pair's offset by delta times its own scale.

    This transform leaves delta-balance, rho and mu unchanged, multiplies
    eta by rho**delta, and multiplies the representing density by t**delta;
    it is the workhorse behind the quotient-monotonicity checks.
    """
    return ParameterSet(
        [(a + delta * s, s) for a, s in params.upper],
        [(b + delta * s, s) for b, s in params.lower],
    )


def _pole_order(arg: float, scale: float) -> int | None:
    """n when gamma(arg) sits at its pole -n, to within _INT_TOL in the index
    (|arg + n| <= _INT_TOL * scale); None away from every pole.  A zero scale
    (a constant factor of the four-parameter form) admits the exact pole only."""
    if arg >= 0.5:
        return None
    n = round(arg)
    return -n if abs(arg - n) <= _INT_TOL * scale else None


def gamma_ratio_log_signed(params: ParameterSet, k: float) -> tuple[float, float]:
    """(log|r|, sign) of the coefficient ratio prod gamma(a+kA) / prod gamma(b+kB).

    Away from every pole this is a plain sum of log-gammas.  As soon as one
    factor is within tolerance of a pole the ratio is handed to
    ``_ratio_at_pole``, which counts pole factors in each row: more below
    than above make the ratio zero, reported as (-inf, 1.0); more above make
    it infinite and raise PoleError; equal counts cancel to the finite limit.
    """
    log_acc = 0.0
    sign = 1.0
    for a, s in params.upper:
        arg = a + k * s
        if arg < 0.5 and _pole_order(arg, s) is not None:
            return _ratio_at_pole(params, k)
        la, sg = log_abs_gamma_signed(arg)
        log_acc += la
        sign *= sg
    for b, s in params.lower:
        arg = b + k * s
        if arg < 0.5 and _pole_order(arg, s) is not None:
            return _ratio_at_pole(params, k)
        la, sg = log_abs_gamma_signed(arg)
        log_acc -= la
        sign *= sg
    return log_acc, sign


def _ratio_at_pole(params: ParameterSet, k: float) -> tuple[float, float]:
    """``gamma_ratio_log_signed`` at a k within tolerance of some factor's
    pole: more pole factors below than above make the ratio zero, more
    above raise PoleError, and equal counts cancel to the finite limit.

    Each factor's nearest pole -n sits at index k0 = (-n - shift)/scale.
    Poles are decided per coincident group, not per factor: every factor
    whose k0 lies within _INT_TOL of the k0 of a factor that is within
    tolerance of k counts as a pole.  Rounding can put two coincident poles
    on either side of the tolerance; deciding them apart would leave one
    uncancelled.  Once the common 1/(k - k0) is divided out, a pole factor
    contributes its residue weight w = (-1)^n / (n! * scale): gamma(c +
    k*scale) near its pole -n at k0 behaves like w / (k - k0).
    """
    walk = []  # (row sign, scale, argument, nearest pole order n, its index k0)
    hits = []  # the k0 of the factors within tolerance of k
    for side, row in ((1, params.upper), (-1, params.lower)):
        for shift, scale in row:
            arg = shift + k * scale
            n = k0 = None
            if arg < 0.5:
                n = -round(arg)
                k0 = (-n - shift) / scale
                if _pole_order(arg, scale) is not None:
                    hits.append(k0)
            walk.append((side, scale, arg, n, k0))
    # every hit is within _INT_TOL of k, so the points within _INT_TOL of
    # some hit make up the one interval [lo - _INT_TOL, hi + _INT_TOL]
    lo, hi = min(hits), max(hits)
    excess = 0
    log_acc = 0.0
    sign = 1.0
    for side, scale, arg, n, k0 in walk:
        if n is not None and k0 - hi <= _INT_TOL and lo - k0 <= _INT_TOL:
            excess += side
            la, sg = -math.lgamma(n + 1.0) - math.log(scale), (-1.0) ** n
        else:
            la, sg = log_abs_gamma_signed(arg)
        log_acc += side * la
        sign *= sg
    if excess < 0:
        return -math.inf, 1.0
    if excess > 0:
        raise PoleError(f"gamma ratio has a numerator pole at k={k}")
    return log_acc, sign


def gamma_ratio(params: ParameterSet, k: float) -> float:
    """The coefficient ratio at finite real index k, as an ordinary float;
    DomainError where it overflows a double."""
    if not math.isfinite(k):
        raise ParameterError(f"the gamma ratio's index must be finite, got {k}")
    log_abs, sign = gamma_ratio_log_signed(params, k)
    if log_abs == -math.inf:
        return 0.0
    if log_abs > _LOG_MAX:
        raise DomainError(f"the gamma ratio at k={k:g} overflows a double")
    return sign * math.exp(log_abs)


# ---------------------------------------------------------------------------
# Correction coefficients for the asymptotics of the coefficient ratio
# ---------------------------------------------------------------------------
#
# In the balanced case sum(A) == sum(B) the ratio behaves like
#
#     gamma_ratio(k) ~ eta * rho^k * k^(-mu) * (l_0 + l_1/k + l_2/k^2 + ...)
#
# The l_r follow from exponentiating the Stirling-series expansions of the
# individual log-gammas.  Writing the log-correction as sum_n q_n / (n k^n)
# with
#
#     q_n = (-1)^(n+1)/(n+1) * [ sum_i B_{n+1}(a_i)/A_i^n
#                                - sum_j B_{n+1}(b_j)/B_j^n ]
#
# (B_m the Bernoulli polynomials), the exponential gives the convolution
# recurrence l_0 = 1, r*l_r = sum_{n=1}^{r} q_n * l_{r-n}.


def _q_sequence(params: ParameterSet, count: int) -> tuple[float, ...]:
    import numpy as np

    if count == 0:
        return ()
    n = np.arange(1, count + 1)
    # B_(n+1)(shift) / scale^n for n = 1..count, one row per gamma factor
    terms = [side * _bernoulli_all(count + 1, a)[2:] / s**n
             for row, side in ((params.upper, 1.0), (params.lower, -1.0)) for a, s in row]
    acc = np.array([math.fsum(col) for col in np.array(terms).T.tolist()])
    return tuple(((-1.0) ** (n + 1) / (n + 1.0) * acc).tolist())


def correction_coeffs(params: ParameterSet, order: int) -> tuple[float, ...]:
    """(l_0, l_1, ..., l_order) for the ratio asymptotics above.

    Only meaningful when the scale sums balance; callers in the measure
    layer enforce that, this function just computes the recurrence.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    q = _q_sequence(params, order)
    ell = [1.0]
    for r in range(1, order + 1):
        # q_n l_(r-n) for n = 1..r; fsum rounds exactly in any order
        ell.append(math.fsum(map(operator.mul, q, reversed(ell))) / r)
    return tuple(ell)
