"""Low-level special-function kernels.

Contents:

* A signed real log-gamma (value and sign of gamma(x)) for every non-pole
  real x: ``math.lgamma`` and the sign of gamma.  Elsewhere the package
  calls ``math.lgamma`` and ``math.gamma`` directly.
* The Taylor coefficients of log gamma(x + h) at real x >= 1/2 over a
  numpy array, from the polygamma by recurrence and its asymptotic series,
  whose coefficients are one table per process: the pole groups of the
  residue table expand the gamma ratio with them.
* Exact Bernoulli numbers, computed in integers as (numerator,
  denominator) pairs, and Bernoulli polynomials of every degree at once
  from their coefficients, each one integer division rounded to float64.
* Stirling numbers of the second kind, which turn the powers of t d/dt
  into plain derivatives for the endpoint atoms (``series._atoms``).

Everything here is dependency-light on purpose: the rest of the package
treats this module as its numerical bedrock, so it must not import any of
the higher layers.  It loads no numpy until a log-gamma Taylor row or a
Bernoulli polynomial is asked for, and no ``fractions`` at all.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Any

__all__ = [
    "log_abs_gamma_signed",
    "stirling2_row",
]

_PSI_SHIFT = 16  # recurrence steps of the polygamma before its asymptotic series


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


def _log_gamma_taylor(x: Any, terms: int) -> Any:
    """Taylor coefficients of log gamma(x + h) in h, h^0 .. h^(terms-1), at
    every x >= 1/2 of a numpy array: one row of ``terms`` per x.

    The first is ``math.lgamma(x)``, the second psi(x), and the k-th
    psi^(k-1)(x) / k! = (-1)^k zeta(k, x) / k, zeta the Hurwitz zeta (DLMF
    5.15, 25.11).  Both psi and zeta take _PSI_SHIFT steps of the
    recurrence psi(x) = psi(x + 1) - 1/x, zeta(k, x) = zeta(k, x + 1) + x^-k
    up to y = x + _PSI_SHIFT, and there their asymptotic series in
    B_2 .. B_22 (DLMF 5.11, 25.11), summed for every k at once on the
    cached table ``_zeta_coeffs``.  Against mpmath every coefficient
    through k = 24 is within 8 eps of max(1, |coefficient|).
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (terms,))
    out[..., 0] = np.reshape([math.lgamma(v) for v in x.ravel().tolist()], x.shape)
    if terms == 1:
        return out
    flat = x.ravel()
    steps = 1.0 / (flat[:, None] + np.arange(_PSI_SHIFT))
    w = 1.0 / (flat + _PSI_SHIFT)
    w2 = w * w
    # row k-1 sums the series of psi (k = 1) or of zeta(k, y) (k >= 2):
    # psi(y) ~ ln y - 1/(2y) - sum_j B_2j / (2j y^2j),
    # zeta(k, y) ~ y^(1-k) / (k-1) + y^-k / 2 + sum_j B_2j (k)_(2j-1) y^(1-k-2j) / (2j)!
    acc = np.zeros((terms - 1, flat.size))
    for coeffs in _zeta_coeffs(terms):
        acc += coeffs
        acc *= w2
    acc[0] = np.log(flat + _PSI_SHIFT) - 0.5 * w - acc[0] - steps.sum(axis=-1)
    if terms > 2:
        k = np.arange(2, terms)[:, None]
        tail = 1.0 / (k - 1) + 0.5 * w + acc[1:]
        for i in range(terms - 2):
            tail[i] *= w ** (i + 1)
            tail[i] += (steps ** (i + 2)).sum(axis=-1)
        acc[1:] = np.where(k % 2, -1.0, 1.0) * tail / k
    out[..., 1:] = acc.T.reshape(x.shape + (terms - 1,))
    return out


@cache
def _zeta_coeffs(terms: int) -> Any:
    """The coefficients of w^2j, j = 11 down to 1, in the asymptotic series
    of psi (row 0: B_2j / 2j) and of zeta(k, y) (row k-1, k = 2 .. terms-1:
    B_2j (k)_(2j-1) / (2j)!), each rounded as ``float(B_2j)`` times the
    integer, over the integer: shape (11, terms - 1, 1)."""
    import numpy as np

    bern = _even_bernoulli()
    return np.array([[bern[j - 1] / (2 * j)]
                     + [bern[j - 1] * math.prod(range(k, k + 2 * j - 1)) / math.factorial(2 * j)
                        for k in range(2, terms)]
                     for j in range(bern.size, 0, -1)])[..., None]


@cache
def _even_bernoulli() -> Any:
    """B_2, B_4, .., B_22 as a float array."""
    import numpy as np

    return np.array([num / den for num, den in map(_bernoulli_pair, range(2, 24, 2))])


# ---------------------------------------------------------------------------
# Bernoulli numbers / polynomials (integer arithmetic)
# ---------------------------------------------------------------------------

_BERNOULLI_MAX = 64


@cache
def _bernoulli_pair(n: int) -> tuple[int, int]:
    """B_n (B_1 = -1/2) as (numerator, denominator) in lowest terms, the
    denominator positive.

    Computed in integers from the defining recurrence
    sum_{k=0}^{n} C(n+1,k) B_k = 0 (n >= 1) over the common denominator of
    B_0 .. B_(n-1), and cached.  Capped at n = 64; the correction-coefficient
    recurrence never needs anywhere near that many, and the numerators grow
    fast enough that silently proceeding would just be a footgun.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n > _BERNOULLI_MAX:
        raise OverflowError(f"Bernoulli numbers capped at n={_BERNOULLI_MAX}")
    if n == 0:
        return 1, 1
    if n > 1 and n % 2 == 1:
        return 0, 1
    pairs = [_bernoulli_pair(k) for k in range(n)]
    common = math.lcm(*(den for _, den in pairs))
    num = -sum(math.comb(n + 1, k) * p * (common // d) for k, (p, d) in enumerate(pairs))
    den = common * (n + 1)
    g = math.gcd(num, den)
    return num // g, den // g


@cache
def _bernoulli_matrix(deg: int) -> Any:
    """C[N, j] = C(N, N-j) B_(N-j)(1/2), B_k(1/2) = (2^(1-k) - 1) B_k, for
    N, j = 0..deg: row N holds the coefficients of B_N(x) in powers
    (x - 1/2)^j.  Each is one integer true division,
    C(N, k) (2 - 2^k) num_k / (2^k den_k), which Python rounds once."""
    import numpy as np

    mat = np.zeros((deg + 1, deg + 1))
    for n in range(deg + 1):
        for k in range(n + 1):
            num, den = _bernoulli_pair(k)
            mat[n, n - k] = math.comb(n, k) * (2 - 2**k) * num / (2**k * den)
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


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind
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
