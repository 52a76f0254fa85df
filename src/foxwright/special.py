"""Low-level special-function kernels.

Contents:

* A signed real log-gamma (value and sign of gamma(x)) for every non-pole
  real x: ``math.lgamma`` and the sign of gamma.  Elsewhere the package
  calls ``math.lgamma`` and ``math.gamma`` directly.
* A numpy-vectorised complex Lanczos log-gamma, the residue engine's only
  complex-gamma path.  It works on the real and imaginary float64 parts
  (real log, atan2, hypot, sin and cos of pi x reduced exactly mod 2) and
  imports numpy when called.
* Exact Bernoulli numbers over ``fractions.Fraction``, and Bernoulli
  polynomials of every degree at once from their coefficients rounded to
  float64.
* Stirling numbers of the second kind and the Touchard polynomials built
  from them (sum_k k^j x^k / k! is e^x times one).

Everything here is dependency-light on purpose: the rest of the package
treats this module as its numerical bedrock, so it must not import any of
the higher layers, and it loads no numpy until a complex log-gamma or a
Bernoulli polynomial is asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Any

__all__ = [
    "log_gamma_complex_vec",
    "log_abs_gamma_signed",
    "bernoulli_number",
    "bernoulli_poly",
    "stirling2_row",
    "touchard_poly",
]

# Lanczos approximation for the complex kernel, g = 7, 9 coefficients
# (Lanczos 1964; the classic table); its accuracy is measured in
# ``log_gamma_complex_vec``.
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
_LOG_PI = 1.1447298858494002  # log(pi)


def log_abs_gamma_signed(x: float) -> tuple[float, float]:
    """Return (log|gamma(x)|, sign of gamma(x)) for real non-pole x.

    The magnitude is ``math.lgamma``; gamma(x) is negative exactly when
    x < 0 and floor(x) is odd.  A pole (x a non-positive integer) raises
    ``ValueError``.
    """
    if x > 0.0:
        return math.lgamma(x), 1.0
    whole = math.floor(x)
    if x == whole:
        raise ValueError(f"gamma pole at x={x}")
    return math.lgamma(x), -1.0 if whole % 2 else 1.0


def log_gamma_complex_vec(z: Any) -> Any:
    """Vectorised log-gamma over a complex numpy array, in real float64 arithmetic.

    Every step runs on the real and imaginary parts of z = x + i y, as
    numpy's real log, atan2, sin and cos cost a few ns per element and its
    complex log and sin about 100.  Arguments with x < 0.5 go through
    reflection, log gamma(z) = log pi - log sin(pi z) - log gamma(1 - z),
    so the Lanczos sum only sees w with Re w >= 0.5; there the result may
    differ from the principal branch by a multiple of 2 pi i.  Callers (the
    residue circles in particular) keep z away from the poles.

    * The Lanczos sum c_0 + sum_i c_i / (w - 1 + i) is accumulated as a
      real and an imaginary array.  Its modulus stays within [1, 800] for
      Re w >= 0.5, so log|sum| comes from the squares.
    * log t = log|t| + i atan2(Im t, Re t) for t = w + g - 1/2, with |t|
      from ``hypot``, so the result stays finite up to |z| ~ 1e300.
    * sin(pi z) e^(-pi |y|) = sin(pi r) (1 + e^(-2 pi |y|)) / 2
      + i sign(y) cos(pi r) (1 - e^(-2 pi |y|)) / 2 takes one ``expm1``,
      and pi |y| is added back to its log, so nothing overflows at large
      |y|.  r = x - 2 rint(x / 2) in [-1, 1] is x reduced mod 2 exactly
      (each step is exact in binary floating point), so pi r loses nothing
      to the size of x.  sin(pi r) is taken as exactly 0 where r is an
      integer, so log gamma is +inf at every pole, odd ones included.

    Against mpmath over Re z in [-300, 300], |Im z| <= 50 and radius-0.3
    circles around the poles, the real part and the imaginary part mod
    2 pi are within 8 eps max(1, |log gamma(z)|) (``tests/test_special.py``
    checks 32).  z and the result are numpy arrays of the same shape; numpy
    is imported in here so that the real-argument layers never load it.
    """
    import numpy as np

    z = np.asarray(z, dtype=np.complex128)
    x, y = z.real, z.imag
    left = x < 0.5
    # w = conj(1 - z) on the left, z elsewhere, and xm + i y = w - 1; as
    # log gamma(conj w) = conj log gamma(w), the left negates the imaginary part
    xm = np.where(left, -x, x - 1.0)

    # past |w| ~ 1e154 the squares overflow and those Lanczos terms drop out as 0
    acc_re = np.full_like(xm, _LANCZOS_C[0])
    acc_im = np.zeros_like(xm)
    with np.errstate(over="ignore"):
        y2 = y * y
        for i, c in enumerate(_LANCZOS_C[1:], start=1):
            d = xm + i
            q = c / (d * d + y2)
            acc_re += d * q
            acc_im += q
    acc_im *= -y

    # log gamma(w) = log sqrt(2 pi) + (w - 1/2) log t - t + log(acc)
    tr = xm + (_LANCZOS_G + 0.5)
    log_t_re = np.log(np.hypot(tr, y))
    log_t_im = np.arctan2(y, tr)
    h = xm + 0.5
    re = (_LOG_SQRT_2PI - tr + h * log_t_re - y * log_t_im
          + 0.5 * np.log(acc_re * acc_re + acc_im * acc_im))
    im = h * log_t_im + y * (log_t_re - 1.0) + np.arctan2(acc_im, acc_re)

    if left.any():
        r = x - 2.0 * np.rint(0.5 * x)
        pi_r = math.pi * r
        pi_y = math.pi * np.abs(y)
        em = np.expm1(-2.0 * pi_y)
        # sin(pi r) is exactly 0 at an integer r, so every pole gives +inf
        sin_pi_r = np.where(r == np.rint(r), 0.0, np.sin(pi_r))
        sin_re = sin_pi_r * (1.0 + 0.5 * em)
        sin_im = np.cos(pi_r) * np.copysign(-0.5 * em, y)
        # the unused right-hand elements may sit on a zero of sin(pi z)
        with np.errstate(divide="ignore"):
            log_sin = np.log(np.hypot(sin_re, sin_im))
        re = np.where(left, _LOG_PI - pi_y - log_sin - re, re)
        im = np.where(left, im - np.arctan2(sin_im, sin_re), im)
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials (exact rational arithmetic)
# ---------------------------------------------------------------------------

_BERNOULLI_MAX = 64


@cache
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
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
    return -total / (n + 1)


@cache
def _bernoulli_matrix(deg: int) -> Any:
    """C[N, j] = C(N, N-j) B_(N-j)(1/2), B_k(1/2) = (2^(1-k) - 1) B_k, for
    N, j = 0..deg, each rounded once: row N holds the coefficients of
    B_N(x) in powers (x - 1/2)^j."""
    import numpy as np

    mat = np.zeros((deg + 1, deg + 1))
    for n in range(deg + 1):
        for k in range(n + 1):
            exact = Fraction(math.comb(n, k)) * (Fraction(2) ** (1 - k) - 1) * bernoulli_number(k)
            mat[n, n - k] = float(exact)
    return mat


def _bernoulli_all(deg: int, x: float) -> Any:
    """B_N(x) for N = 0..deg, as one numpy array.

    x is first reduced to y in [0, 1) by B_N(x + 1) = B_N(x) + N x^(N-1).
    On [0, 1) the powers of y - 1/2 stay below 2^-j, so the expansion in
    them loses no digits to cancellation, where the expansion about 0
    loses about six at N = 41.  All degrees take one product of the cached
    coefficient matrix with the vector of those powers, and the integer
    shift is one more vector.  Every exponent is a non-negative integer,
    so 0^0 = 1 and nothing divides by zero at y = 0.
    """
    import numpy as np

    whole = math.floor(x)
    y = x - whole
    out = _bernoulli_matrix(deg) @ (y - 0.5) ** np.arange(deg + 1)
    if whole:
        # sum over the integer steps of (y + j)^(N-1), N = 1..deg
        steps = y + (np.arange(whole) if whole > 0 else np.arange(whole, 0))
        shift = (steps[:, None] ** np.arange(deg)).sum(axis=0)
        out[1:] += math.copysign(1.0, whole) * np.arange(1, deg + 1) * shift
    return out


def bernoulli_poly(n: int, x: float) -> float:
    """Bernoulli polynomial B_n(x), from the expansion about 1/2 that
    ``_bernoulli_all`` takes for every degree up to n."""
    if n < 0:
        raise ValueError("Bernoulli polynomial degree must be non-negative")
    return float(_bernoulli_all(n, x)[n])


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind and weighted exponential sums
# ---------------------------------------------------------------------------

@cache
def stirling2_row(n: int) -> tuple[int, ...]:
    """Row n of the Stirling-second-kind triangle: (S(n,0), ..., S(n,n))."""
    if n < 0:
        raise ValueError("Stirling row index must be non-negative")
    if n == 0:
        return (1,)
    prev = stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k in range(1, n + 1):
        left = prev[k - 1]
        right = prev[k] if k < n else 0
        row[k] = left + k * right
    return tuple(row)


def touchard_poly(j: int, x: Any) -> Any:
    """The Touchard polynomial sum_i S(j,i) x^i, for a float, complex or numpy
    array x."""
    poly = 0.0
    for i, s in enumerate(stirling2_row(j)):
        if s:
            poly += s * x**i
    return poly
