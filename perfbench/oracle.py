"""Independent mpmath oracles for the benchmark's checks.

Nothing here imports foxwright.  Three kinds of truth are provided:

* ``SeriesOracle``: the Fox-Wright series summed in mpmath at >= 60 correct
  digits.  Coefficients are computed once per set (gamma rows by exact
  recurrence from one mpmath gamma per residue class of the scale), so each
  extra z costs only the summation.  The working precision is raised until
  the cancellation factor sum|t_k| / |sum t_k| leaves 60 digits.
* ``gamma_ratio``: prod gamma(a + kA) / prod gamma(b + kB).
* ``DensityOracle``: the representing density of an equal-scale p = q set,
  H(t) = G^{p,0}_{p,p}(t^(1/c) | b; a) / c via ``mpmath.meijerg`` (closed form
  for p = 1).  Near the support end, where mpmath's 3F2 series crawl, the
  convergent expansion H = eta sum_r l_r u^(mu+r-1) / gamma(mu+r) in
  u = log(rho/t) is summed instead; the two are cross-checked where both
  are cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

TARGET_DIGITS = 60
_ENDPOINT_SWITCH = 0.85  # t/rho at and above which the endpoint expansion is used
_ENDPOINT_TERMS = 40
_DENSITY_DPS = 30


class OracleError(RuntimeError):
    """The oracle could not certify a value (precision or cross-check)."""


def _rational(scale: float) -> tuple[int, int] | None:
    frac = Fraction(scale).limit_denominator(8)
    if float(frac) == scale and frac.numerator <= 8:
        return frac.numerator, frac.denominator
    return None


def gamma_row(shift: float, scale: float, count: int, reciprocal: bool) -> list:
    """gamma(shift + k*scale) (or its reciprocal) for k < count at current precision.

    For a rational scale u/v the step k -> k+v adds u to the argument, so
    gamma(x + u) = gamma(x) * x (x+1) ... (x+u-1) extends the row exactly
    from one mpmath gamma per residue class.  Arguments at or left of zero
    are evaluated directly (reciprocal gamma is 0 at the poles).
    """
    fn = mp.rgamma if reciprocal else mp.gamma
    step = mp.mpf(scale)
    frac = _rational(scale)
    xs = [mp.mpf(shift) + k * step for k in range(count)]
    out = []
    for k, x in enumerate(xs):
        if frac is None or k < frac[1] or xs[k - frac[1]] <= 0:
            out.append(fn(x))
            continue
        prev = xs[k - frac[1]]
        factor = prev
        for i in range(1, frac[0]):
            factor = factor * (prev + i)
        out.append(out[k - frac[1]] / factor if reciprocal else out[k - frac[1]] * factor)
    return out


def gamma_ratio(upper, lower, k: float, dps: int = 40):
    with mp.workdps(dps):
        num = mp.fprod(mp.gamma(mp.mpf(a) + mp.mpf(k) * s) for a, s in upper)
        den = mp.fprod(mp.rgamma(mp.mpf(b) + mp.mpf(k) * s) for b, s in lower)
        return +(num * den)


def constants(upper, lower, dps: int = 40):
    """(rho, eta) of a parameter set in mpmath."""
    with mp.workdps(dps):
        p, q = len(upper), len(lower)
        rho = mp.fprod(mp.mpf(s) ** s for _, s in upper) / mp.fprod(mp.mpf(s) ** s for _, s in lower)
        eta = (2 * mp.pi) ** (mp.mpf(p - q) / 2)
        eta *= mp.fprod(mp.mpf(s) ** (mp.mpf(a) - 0.5) for a, s in upper)
        eta *= mp.fprod(mp.mpf(s) ** (0.5 - mp.mpf(b)) for b, s in lower)
        return +rho, +eta


class SeriesOracle:
    """sum_k gamma_ratio(k) z^k / k! for one parameter set, at any z in its domain."""

    def __init__(self, upper, lower):
        self.upper = [(float(a), float(s)) for a, s in upper]
        self.lower = [(float(b), float(s)) for b, s in lower]
        self._coeffs: dict[int, list] = {}

    def _coefficients(self, dps: int, count: int) -> list:
        """c_k = ratio(k)/k! for k < count, from the cache when a list at
        this precision or higher is long enough."""
        for have_dps, have in self._coeffs.items():
            if have_dps >= dps and len(have) >= count:
                return have
        dps = max([dps, *self._coeffs])
        count = max([count, 256, *(2 * len(c) for c in self._coeffs.values())])
        with mp.workdps(dps + 10):
            rows = [gamma_row(a, s, count, False) for a, s in self.upper]
            rows += [gamma_row(b, s, count, True) for b, s in self.lower]
            fact = mp.mpf(1)
            coeffs = []
            for k in range(count):
                if k:
                    fact *= k
                c = mp.mpf(1)
                for row in rows:
                    c *= row[k]
                coeffs.append(c / fact)
        self._coeffs = {dps: coeffs}
        return coeffs

    def _sum(self, z, dps: int):
        """(sum, cancellation factor) at working precision dps."""
        with mp.workdps(dps + 10):
            zz = mp.mpc(z) if isinstance(z, complex) else mp.mpf(z)
            tol = mp.mpf(10) ** (-(dps + 5))
            total = 0
            abs_total = mp.mpf(0)
            peak = mp.mpf(0)
            small = 0
            k = 0
            power = mp.mpf(1)
            coeffs = self._coefficients(dps, 1)
            while True:
                if k >= len(coeffs):
                    if k > 200_000:
                        raise OracleError(f"series oracle did not settle at z={z}")
                    coeffs = self._coefficients(dps, 2 * k)
                term = coeffs[k] * power
                mag = abs(term)
                total += term
                abs_total += mag
                if mag > peak:
                    peak = mag
                    small = 0
                elif k > 2 and mag <= tol * peak:
                    small += 1
                    if small >= 3:
                        break
                power *= zz
                k += 1
            if total == 0:
                return total, mp.inf
            return total, abs_total / abs(total)

    def value(self, z):
        """The sum at z with at least TARGET_DIGITS correct digits (estimated)."""
        return self.evaluate(z)[0]

    def evaluate(self, z) -> tuple:
        """(value, cancellation factor sum|t_k| / |sum t_k|) at z.

        The factor is the condition number of summing the series term by
        term: a double-precision sum loses about log10 of it in digits.
        Precision goes up in steps of 40 digits so that the points of one
        set share a few coefficient lists.
        """
        dps = TARGET_DIGITS + 40
        for _ in range(6):
            total, kappa = self._sum(z, dps)
            lost = int(mp.ceil(mp.log10(kappa))) if kappa != mp.inf else dps
            if dps - lost >= TARGET_DIGITS:
                return total, float(kappa)
            dps = 40 * math.ceil((TARGET_DIGITS + lost + 10) / 40)
        raise OracleError(f"series oracle lost too many digits at z={z}")


def lifted_rows(upper, lam: float) -> list:
    """Upper rows of the gamma-lifted set: an extra (lam, 1) pair."""
    return [(float(lam), 1.0)] + [(float(a), float(s)) for a, s in upper]


class DensityOracle:
    """H(t) on (0, 1) for an equal-scale balanced set with p = q (so rho = 1)."""

    def __init__(self, upper, lower):
        scales = {s for _, s in upper} | {s for _, s in lower}
        if len(scales) != 1 or len(upper) != len(lower):
            raise ValueError("density oracle needs p = q and one common scale")
        with mp.workdps(_DENSITY_DPS):
            self.c = mp.mpf(scales.pop())
            self.a = [mp.mpf(x) for x, _ in upper]
            self.b = [mp.mpf(x) for x, _ in lower]
            self.p = len(self.a)
            self.mu = sum(self.b) - sum(self.a)
            _, self.eta = constants(upper, lower, _DENSITY_DPS)
        self._ell = None

    def _meijer(self, t):
        x = t ** (1 / self.c)
        if self.p == 1:
            return x ** self.a[0] * (1 - x) ** (self.mu - 1) * mp.rgamma(self.mu) / self.c
        return mp.meijerg([[], self.b], [self.a, []], x) / self.c

    def _ell_coeffs(self):
        """l_0..l_R of gamma_ratio(s) ~ eta rho^s s^-mu sum_r l_r s^-r, in s."""
        if self._ell is None:
            c = self.c
            q = []
            for n in range(1, _ENDPOINT_TERMS + 1):
                acc = mp.fsum(mp.bernpoly(n + 1, a) for a in self.a)
                acc -= mp.fsum(mp.bernpoly(n + 1, b) for b in self.b)
                q.append((-1) ** (n + 1) * acc / ((n + 1) * c**n))
            ell = [mp.mpf(1)]
            for r in range(1, _ENDPOINT_TERMS + 1):
                ell.append(mp.fsum(q[n - 1] * ell[r - n] for n in range(1, r + 1)) / r)
            self._ell = ell
        return self._ell

    def _endpoint(self, t):
        u = -mp.log(t)
        acc = mp.mpf(0)
        for r, lr in enumerate(self._ell_coeffs()):
            x = self.mu + r
            if x <= 0 and mp.almosteq(x, mp.nint(x), 1e-20):
                continue  # an endpoint atom: nothing on the open interval
            acc += lr * u ** (x - 1) * mp.rgamma(x)
        return self.eta * acc

    def value(self, t: float, delta: float = 0.0):
        """t**delta * H(t), the density of the set shifted by delta."""
        with mp.workdps(_DENSITY_DPS):
            tt = mp.mpf(t)
            if self.p == 1:
                base = self._meijer(tt)
            elif tt >= _ENDPOINT_SWITCH:
                base = self._endpoint(tt)
            else:
                base = self._meijer(tt)
            return +(tt ** mp.mpf(delta) * base)

    def self_check(self) -> float:
        """Relative gap between the two routes at the switch point."""
        if self.p == 1:
            return 0.0
        with mp.workdps(_DENSITY_DPS):
            tt = mp.mpf(_ENDPOINT_SWITCH)
            g = self._meijer(tt)
            e = self._endpoint(tt)
            return float(abs(g - e) / max(abs(g), mp.mpf(10) ** -25))


def rel_error(value, truth) -> float:
    """|value - truth| / |truth| (0 truth: exact match or infinite error)."""
    if value is None:
        return math.inf
    if isinstance(value, float) and not math.isfinite(value):
        return math.inf
    diff = abs(mp.mpc(value) - truth) if isinstance(value, complex) else abs(mp.mpf(value) - truth)
    if truth == 0:
        return 0.0 if diff == 0 else math.inf
    return float(diff / abs(truth))


def digits(err: float) -> float:
    """Correct decimal digits implied by a relative error, in [0, 16]."""
    if err <= 1e-16:
        return 16.0
    if not math.isfinite(err):
        return 0.0
    return max(0.0, min(16.0, -math.log10(err)))
