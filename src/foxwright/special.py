"""Low-level special-function kernels.

Contents:

* Lanczos log-gamma for real scalars, and a numpy-vectorised complex
  variant used by the residue engine's circle quadrature.
* A signed real log-gamma (value and sign of gamma(x)) that stays finite
  for negative non-integer arguments.
* Exact Bernoulli numbers and Bernoulli polynomials over ``fractions.Fraction``.
* Stirling numbers of the second kind and the weighted exponential sums
  built from them (sum_k k^j x^k / k!).

Everything here is dependency-light on purpose: the rest of the package
treats this module as its numerical bedrock, so it must not import any of
the higher layers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "log_gamma",
    "log_gamma_complex_vec",
    "log_abs_gamma_signed",
    "gamma_real",
    "bernoulli_number",
    "bernoulli_poly",
    "stirling2_row",
    "touchard_poly",
    "touchard_sum",
]

# Lanczos approximation, g = 7, 9 coefficients.  Classic table; accurate to
# roughly 1e-13 relative over the right half-plane, which is more than the
# quadratures downstream can resolve anyway.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_2PI = 0.9189385332046727  # log(sqrt(2*pi))


def log_gamma(x: float) -> float:
    """log(gamma(x)) for real x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    xx = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (xx + i)
    t = xx + _LANCZOS_G + 0.5
    return _LOG_SQRT_2PI + (xx + 0.5) * math.log(t) - t + math.log(acc)


def log_abs_gamma_signed(x: float) -> tuple[float, float]:
    """Return (log|gamma(x)|, sign of gamma(x)) for real non-pole x.

    For x > 0 this is just (log_gamma(x), +1).  For negative non-integer x
    the reflection formula gives both magnitude and sign.  The sine factor
    is evaluated on the reduced argument x - round(x) so that large negative
    inputs don't lose precision in sin(pi*x).
    """
    if x > 0.0:
        return log_gamma(x), 1.0
    if x == int(x):
        raise ValueError(f"gamma pole at x={x}")
    # gamma(x) = pi / (sin(pi x) * gamma(1 - x))
    r = x - round(x)
    sin_val = math.sin(math.pi * r)
    if round(x) % 2 != 0:
        sin_val = -sin_val
    log_abs = math.log(math.pi) - math.log(abs(sin_val)) - log_gamma(1.0 - x)
    return log_abs, math.copysign(1.0, sin_val)


def gamma_real(x: float) -> float:
    """gamma(x) for real non-pole x, via the signed log form."""
    log_abs, sign = log_abs_gamma_signed(x)
    return sign * math.exp(log_abs)


def log_gamma_complex_vec(z: np.ndarray) -> np.ndarray:
    """Vectorised log-gamma over a complex numpy array.

    Callers (the residue circles in particular) keep z away from the poles.
    Arguments with Re z < 0.5 go through reflection,
    log gamma(z) = log(pi / sin(pi z)) - log gamma(1 - z), so the Lanczos
    sum only sees the right half-plane; there the result may differ from
    the principal branch by a multiple of 2 pi i.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    left = z.real < 0.5
    zr = np.where(left, 1.0 - z, z)

    zz = zr - 1.0
    acc = np.full_like(zr, _LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    main = _LOG_SQRT_2PI + (zz + 0.5) * np.log(t) - t + np.log(acc)

    if np.any(left):
        refl = np.log(math.pi) - np.log(np.sin(math.pi * z[left])) - main[left]
        out[left] = refl
        out[~left] = main[~left]
    else:
        out = main
    return out


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials (exact rational arithmetic)
# ---------------------------------------------------------------------------

_BERNOULLI_CACHE: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}

_BERNOULLI_MAX = 64


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n with the B_1 = -1/2 convention.

    Computed from the defining recurrence sum_{k=0}^{n} C(n+1,k) B_k = 0
    (n >= 1) and cached.  Capped at n = 64; the correction-coefficient
    recurrence never needs anywhere near that many, and the numerators grow
    fast enough that silently proceeding would just be a footgun.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli numbers capped at n={_BERNOULLI_MAX}")
    if n in _BERNOULLI_CACHE:
        return _BERNOULLI_CACHE[n]
    if n % 2 == 1:
        _BERNOULLI_CACHE[n] = Fraction(0)
        return _BERNOULLI_CACHE[n]
    total = Fraction(0)
    for k in range(n):
        total += Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
    value = -total / (n + 1)
    _BERNOULLI_CACHE[n] = value
    return value


@lru_cache(maxsize=None)
def _bernoulli_row(n: int) -> tuple[float, ...]:
    """C(n,k) B_k(1/2) for k = 0..n, B_k(1/2) = (2^(1-k) - 1) B_k, each
    rounded once: the coefficients of B_n(x) in powers of x - 1/2."""
    return tuple(
        float(Fraction(math.comb(n, k)) * (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k))
        for k in range(n + 1)
    )


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k(1/2) (x - 1/2)^(n-k).

    x is first reduced to y in [0, 1) by B_n(x + 1) = B_n(x) + n x^(n-1).
    On [0, 1) the powers of y - 1/2 stay below 2^-(n-k), so the sum loses
    no digits to cancellation; the expansion about 0 loses about six at
    n = 41.  The exact rational coefficients are rounded once per degree
    and cached.
    """
    if n < 0:
        raise ValueError("Bernoulli polynomial degree must be non-negative")
    whole = math.floor(x)
    y = x - whole
    acc = 0.0
    for coeff in _bernoulli_row(n):
        acc = acc * (y - 0.5) + coeff
    if whole > 0:
        acc += n * sum((y + j) ** (n - 1) for j in range(whole))
    elif whole < 0:
        acc -= n * sum((y + j) ** (n - 1) for j in range(whole, 0))
    return acc


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind and weighted exponential sums
# ---------------------------------------------------------------------------

_STIRLING_CACHE: dict[int, tuple[int, ...]] = {0: (1,)}


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling-second-kind triangle: (S(n,0), ..., S(n,n))."""
    if n < 0:
        raise ValueError("Stirling row index must be non-negative")
    if n in _STIRLING_CACHE:
        return _STIRLING_CACHE[n]
    prev = stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        left = prev[k - 1]
        right = prev[k] if k < n else 0
        row[k] = left + k * right
    out = tuple(row)
    _STIRLING_CACHE[n] = out
    return out


def touchard_poly(j: int, x: complex | np.ndarray) -> complex | np.ndarray:
    """The Touchard polynomial sum_i S(j,i) x^i, for a float, complex or array x."""
    poly = 0.0
    for i, s in enumerate(stirling2_row(j)):
        if s:
            poly += s * x**i
    return poly


def touchard_sum(j: int, x: float) -> float:
    """sum_{k>=0} k^j x^k / k!  =  e^x * sum_i S(j,i) x^i.

    The right-hand closed form (Dobinski-style) turns the infinite sum into
    a degree-j polynomial in x times e^x, exact up to rounding.
    """
    if j < 0:
        raise ValueError("power j must be non-negative")
    return math.exp(x) * touchard_poly(j, x)
