"""Scalar special-function layer: log-gamma, Bernoulli, Stirling.

The real log-gamma is ``math.lgamma``; ``log_abs_gamma_signed`` adds the sign
of gamma and rejects the poles, and ``_log_gamma_taylor`` gives the Taylor
rows of log gamma(x + h) that the residue table's pole groups expand with."""

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from foxwright import (
    NAMED_SETS,
    MeasureEvaluator,
    ParameterSet,
    correction_series,
    derive_constants,
    hfun,
)
from foxwright.params import correction_coeffs
from foxwright.special import (
    _PSI_SHIFT,
    _bernoulli_all,
    _bernoulli_matrix,
    _bernoulli_pair,
    _even_bernoulli,
    _log_gamma_taylor,
    log_abs_gamma_signed,
    stirling2_row,
)


# Reference forms: the Bernoulli tables in exact ``Fraction`` arithmetic and
# the Taylor rows with one asymptotic series per k, each coefficient
# recomputed in the loop.  The package's forms must equal them to the bit.

@cache
def bernoulli_fraction(n):
    """B_n from sum_{k=0}^{n} C(n+1,k) B_k = 0 over ``Fraction``."""
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for k in range(n):
        total += Fraction(math.comb(n + 1, k)) * bernoulli_fraction(k)
    return -total / (n + 1)


def bernoulli_matrix_fraction(deg):
    mat = np.zeros((deg + 1, deg + 1))
    for n in range(deg + 1):
        for k in range(n + 1):
            exact = Fraction(math.comb(n, k)) * (Fraction(2) ** (1 - k) - 1) * bernoulli_fraction(k)
            mat[n, n - k] = float(exact)
    return mat


def even_bernoulli_fraction():
    return np.array([float(bernoulli_fraction(2 * j)) for j in range(1, 12)])


def log_gamma_taylor_loop(x, terms):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape + (terms,))
    out[..., 0] = np.reshape([math.lgamma(v) for v in x.ravel().tolist()], x.shape)
    if terms == 1:
        return out
    steps = 1.0 / (x[..., None] + np.arange(_PSI_SHIFT))
    w = 1.0 / (x + _PSI_SHIFT)
    w2 = w * w
    bern = even_bernoulli_fraction()
    acc = np.zeros_like(w)
    for j in range(bern.size, 0, -1):
        acc = (acc + bern[j - 1] / (2 * j)) * w2
    out[..., 1] = np.log(x + _PSI_SHIFT) - 0.5 * w - acc - steps.sum(axis=-1)
    for k in range(2, terms):
        acc = np.zeros_like(w)
        for j in range(bern.size, 0, -1):
            rising = math.prod(range(k, k + 2 * j - 1))
            acc = (acc + bern[j - 1] * rising / math.factorial(2 * j)) * w2
        tail = w ** (k - 1) * (1.0 / (k - 1) + 0.5 * w + acc)
        out[..., k] = (-1) ** k * ((steps**k).sum(axis=-1) + tail) / k
    return out


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 42.5, 171.0])
    def test_matches_stdlib_on_positive_axis(self, x):
        assert log_abs_gamma_signed(x) == (pytest.approx(math.lgamma(x), rel=1e-14), 1.0)

    def test_recurrence(self):
        # log gamma(x + 1 + h) = log gamma(x + h) + log(x + h): the rows at
        # x + 1 and x differ by the Taylor row of log(x + h)
        x = np.array([0.5, 0.83, 2.0, 15.5, 16.25, 99.0])
        terms = 12
        step = _log_gamma_taylor(x + 1.0, terms) - _log_gamma_taylor(x, terms)
        k = np.arange(1, terms)
        log_row = np.column_stack([np.log(x), (-1.0) ** (k + 1) / (k * x[:, None] ** k)])
        np.testing.assert_allclose(step, log_row, rtol=1e-13, atol=1e-15)

    def test_vectorized_agrees_with_scalar(self):
        # a row of a larger array is the row of its x alone, bit for bit
        x = np.array([0.5, 1.0, 3.7, 16.0, 250.5])
        table = _log_gamma_taylor(x, 8)
        for i, xi in enumerate(x):
            np.testing.assert_array_equal(table[i], _log_gamma_taylor(np.array([xi]), 8)[0])

    def test_taylor_rows_against_mpmath(self):
        # log gamma(x), psi(x) and psi^(k-1)(x) / k! for k up to 24, from
        # x = 1/2 (the smallest argument a pole group asks for) past the
        # recurrence's shift of 16, within 8 eps of the larger of 1 and
        # the coefficient
        mpmath = pytest.importorskip("mpmath")
        x = np.array([0.5, 0.7, 1.0, 1.5, 1.9999, 3.3, 15.9, 16.0, 40.5, 250.25])
        got = _log_gamma_taylor(x, 25)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for row, xi in zip(got, x):
                for k, value in enumerate(row):
                    want = mpmath.loggamma(xi) if k == 0 else (
                        mpmath.psi(k - 1, xi) / mpmath.factorial(k))
                    assert abs(value - want) <= 8 * eps * max(1.0, abs(want)), (xi, k)

    def test_taylor_rows_keep_shape(self):
        grid = np.array([[0.5, 2.5, 4.0], [1.0, 17.0, 7.5]])
        table = _log_gamma_taylor(grid, 5)
        assert table.shape == (2, 3, 5)
        np.testing.assert_array_equal(table.reshape(6, 5), _log_gamma_taylor(grid.ravel(), 5))
        assert _log_gamma_taylor(np.array([2.0]), 1).shape == (1, 1)

    def test_signed_log_gamma_negative_axis(self):
        # gamma(-1.5) = 4 sqrt(pi) / 3 > 0, gamma(-0.5) = -2 sqrt(pi) < 0
        mag, sign = log_abs_gamma_signed(-1.5)
        assert sign == 1.0
        assert math.exp(mag) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-13)
        mag, sign = log_abs_gamma_signed(-0.5)
        assert sign == -1.0
        assert math.exp(mag) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)

    def test_gamma_real_half_integers(self):
        for x, want in ((0.5, math.sqrt(math.pi)), (5.0, 24.0)):
            mag, sign = log_abs_gamma_signed(x)
            assert sign * math.exp(mag) == pytest.approx(want, rel=1e-14)
            assert math.gamma(x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("x", [-0.5, -1.5, -2.5, -170.5, -1000.3, 1.0 - 1e-9])
    def test_signed_log_gamma_against_mpmath(self, x):
        # |gamma| to 1e-14 relative is log|gamma| to 1e-14 absolute; past
        # |log| = 1 the log itself to 1e-14 relative, since a double cannot
        # hold log|gamma(-1000.3)| ~ -5913 to 1e-14 absolute
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            want = mpmath.gamma(x)
            want_mag = mpmath.log(abs(want))
        mag, sign = log_abs_gamma_signed(x)
        assert abs(mag - want_mag) <= 1e-14 * max(1.0, abs(want_mag))
        assert sign == (1.0 if want > 0 else -1.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_signed_log_gamma_rejects_poles(self, x):
        with pytest.raises(ValueError, match="pole"):
            log_abs_gamma_signed(x)


class TestBernoulli:
    def test_exact_small_numbers(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for n, want in expected.items():
            assert Fraction(*_bernoulli_pair(n)) == want

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_odd_numbers_vanish(self, n):
        assert _bernoulli_pair(n) == (0, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 2.5, -1.2])
    def test_difference_identity(self, n, x):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        got = _bernoulli_all(n, x + 1.0)[n] - _bernoulli_all(n, x)[n]
        assert got == pytest.approx(n * x ** (n - 1), abs=1e-10)

    @pytest.mark.parametrize("call, error", [
        (lambda: _bernoulli_pair(-1), ValueError),
        (lambda: _bernoulli_pair(65), OverflowError),
        (lambda: stirling2_row(-1), ValueError),
    ], ids=["number(-1)", "number(65)", "stirling2_row(-1)"])
    def test_index_out_of_range_rejected(self, call, error):
        with pytest.raises(error):
            call()

    def test_poly_at_zero_is_number(self):
        for n in range(8):
            want = float(Fraction(*_bernoulli_pair(n)))
            assert _bernoulli_all(n, 0.0)[n] == pytest.approx(want, abs=1e-15)


class TestStirlingTouchard:
    def test_rows(self):
        assert stirling2_row(0) == (1,)
        assert stirling2_row(1) == (0, 1)
        assert stirling2_row(3) == (0, 1, 3, 1)
        assert stirling2_row(4) == (0, 1, 7, 6, 1)
        assert stirling2_row(5) == (0, 1, 15, 25, 10, 1)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, -0.7])
    def test_touchard_matches_brute_force(self, n, x):
        # the atoms of a set with m = n on e^(zt), rho z = x, go through the
        # Stirling rows 0..n (sum_k k^j x^k / k! = e^x sum_i S(j, i) x^i);
        # the brute force sums eta sum_k P(k) x^k / k!, P(k) = sum_j l_(n-j) k^j
        ps = ParameterSet([(1.0, 1.0)], [(0.25, 0.5), (1.25 - n, 0.5)])
        c = derive_constants(ps)
        assert c.m_order == n
        ell = correction_coeffs(ps, n)
        brute = c.eta * sum(
            sum(ell[n - j] * k**j for j in range(n + 1))
            * x**k / math.factorial(k)
            for k in range(80)
        )
        got = correction_series(ps, x / c.rho)
        assert got == pytest.approx(brute, rel=1e-10, abs=1e-12)


class TestReferenceForms:
    """The integer-built Bernoulli tables and the one-pass Taylor rows equal
    the reference forms above to the bit."""

    def test_bernoulli_tables(self):
        for deg in (0, 1, 2, 7, 41, 64):
            assert _bernoulli_matrix(deg).tobytes() == bernoulli_matrix_fraction(deg).tobytes()
        assert _even_bernoulli().tobytes() == even_bernoulli_fraction().tobytes()

    def test_bernoulli_numbers(self):
        for n in range(65):
            assert Fraction(*_bernoulli_pair(n)) == bernoulli_fraction(n), n
        with pytest.raises(ValueError, match="^Bernoulli index must be non-negative$"):
            _bernoulli_pair(-1)
        with pytest.raises(OverflowError, match="^Bernoulli numbers capped at n=64$"):
            _bernoulli_pair(65)

    @pytest.mark.parametrize("terms", [1, 2, 3, 8, 25, 34])
    def test_taylor_rows_on_the_bench_block(self, terms):
        # the layer bench's L0 block, x = 0.5, 1.25, .., 23.75, and a 2-D grid
        for x in (np.array([0.5 + 0.75 * i for i in range(32)]),
                  np.array([[0.5, 2.5, 4.0], [1.0, 17.0, 250.25]])):
            got, want = _log_gamma_taylor(x, terms), log_gamma_taylor_loop(x, terms)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_taylor_rows_on_the_catalog_pole_groups(self, monkeypatch):
        # every block of arguments the residue tables of the catalog sets ask for
        calls = []

        def record(x, terms):
            calls.append((np.array(x), terms))
            return _log_gamma_taylor(x, terms)

        monkeypatch.setattr(hfun, "_log_gamma_taylor", record)
        for params in NAMED_SETS.values():
            MeasureEvaluator(params)
        assert calls
        for x, terms in calls:
            assert _log_gamma_taylor(x, terms).tobytes() == log_gamma_taylor_loop(x, terms).tobytes()
