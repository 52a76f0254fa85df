"""Scalar special-function layer: log-gamma, Bernoulli, Stirling, Touchard.

The real log-gamma is ``math.lgamma``; ``log_abs_gamma_signed`` adds the sign
of gamma and rejects the poles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from foxwright.special import (
    bernoulli_number,
    bernoulli_poly,
    log_abs_gamma_signed,
    log_gamma_complex_vec,
    stirling2_row,
    touchard_poly,
)


class TestLogGamma:
    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 42.5, 171.0])
    def test_matches_stdlib_on_positive_axis(self, x):
        assert log_abs_gamma_signed(x) == (pytest.approx(math.lgamma(x), rel=1e-14), 1.0)

    @pytest.mark.parametrize("z", [0.3 + 0.7j, 2.5 - 1.25j, -1.5 + 0.5j, 5.0 + 5.0j])
    def test_reflection_identity(self, z):
        # gamma(z) gamma(1-z) = pi / sin(pi z)
        lhs = log_gamma_complex_vec(np.array([z, 1.0 - z])).sum()
        rhs = np.log(np.pi / np.sin(np.pi * z))
        # compare exp() because the logs may differ by 2*pi*i
        assert np.exp(lhs) == pytest.approx(np.exp(rhs), rel=1e-11)

    def test_recurrence(self):
        z = 0.37 + 1.2j
        at_z, at_z1 = log_gamma_complex_vec(np.array([z, z + 1]))
        assert np.exp(at_z1) == pytest.approx(z * np.exp(at_z), rel=1e-12)

    def test_vectorized_agrees_with_scalar(self):
        # against mpmath's scalar log-gamma; at these points the reflection
        # lands on the principal branch as well
        mpmath = pytest.importorskip("mpmath")
        zs = np.array([0.5 + 0.1j, 3.0 - 2.0j, 1.0 + 0.0j, 0.25 + 4.0j])
        vec = log_gamma_complex_vec(zs)
        for got, z in zip(vec, zs):
            assert got == pytest.approx(complex(mpmath.loggamma(z)), rel=1e-13)

    def test_complex_kernel_against_mpmath(self):
        # the residue circles' geometry: the strip left of the reflection
        # line out to Re z = -300, radius-0.3 circles around the poles -n,
        # the right half-plane and |Im z| up to 50, all in one call; then
        # two points 1e-6 from the poles -1e6 and -1e6 - 1, where pi z
        # without the exact reduction of x mod 2 is off by ~4000 units.  The
        # imaginary part may differ from mpmath's principal branch by a
        # multiple of 2 pi
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(14)
        theta = rng.uniform(0.0, 2.0 * np.pi, 50)
        zs = np.concatenate([
            rng.uniform(-300.0, 0.5, 50) + 1j * rng.uniform(-0.5, 0.5, 50),
            -rng.integers(0, 301, 50) + 0.3 * np.exp(1j * theta),
            rng.uniform(0.5, 300.0, 50) + 1j * rng.uniform(-50.0, 50.0, 50),
            rng.uniform(-300.0, 0.5, 50) + 1j * rng.uniform(-50.0, 50.0, 50),
            [-1e6 + 1e-6, -1e6 - 1.0 + 1e-6 + 1e-6j],
        ])
        got = log_gamma_complex_vec(zs)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for g, z in zip(got, zs):
                want = mpmath.loggamma(mpmath.mpc(z.real, z.imag))
                re_err = abs(g.real - want.real)
                im_err = (g.imag - want.imag) % (2 * mpmath.pi)
                im_err = min(im_err, 2 * mpmath.pi - im_err)
                bound = 32 * eps * max(1.0, abs(want))
                assert re_err <= bound and im_err <= bound, z

    def test_complex_kernel_conjugate_symmetric(self):
        # the residue circles evaluate their upper halves only and take the
        # lower ones as conjugates, which needs log gamma(conj z) to be
        # conj log gamma(z) exactly: bit for bit off the real axis (circles
        # about the poles, and the strip); on it, where +0 and -0 imaginary
        # parts may come out as zeros of either sign, in value
        rng = np.random.default_rng(18)
        theta = rng.uniform(0.0, np.pi, 4000)
        off = np.concatenate([
            -rng.integers(0, 301, 4000) + rng.uniform(0.01, 0.3, 4000) * np.exp(1j * theta),
            rng.uniform(-300.0, 300.0, 4000) + 1j * rng.uniform(-50.0, 50.0, 4000),
        ])
        got, want = log_gamma_complex_vec(off.conj()), log_gamma_complex_vec(off).conj()
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        axis = np.concatenate([rng.uniform(-300.0, 300.0, 4000), np.arange(-20, 21) + 0.5,
                               [1.0, 2.0, 3.0]]).astype(complex)
        np.testing.assert_array_equal(log_gamma_complex_vec(axis.conj()),
                                      log_gamma_complex_vec(axis).conj())

    @pytest.mark.parametrize("n", [-4, -3, -2, -1, 0, -1000001])
    def test_complex_kernel_infinite_at_poles(self, n):
        # sin(pi z) at an odd pole once rounded to 1.2e-16, not 0, and gave
        # a finite value (35.99 at -3)
        value = log_gamma_complex_vec(np.array([complex(n)]))[0]
        assert value.real == math.inf

    def test_complex_kernel_beside_odd_pole(self):
        # sin(pi x) is exactly 0 at x = -3, while cos(pi x) sinh(pi y) is not
        mpmath = pytest.importorskip("mpmath")
        z = -3.0 + 0.5j
        got = log_gamma_complex_vec(np.array([z]))[0]
        want = complex(mpmath.loggamma(z))
        eps = np.finfo(float).eps
        assert abs(got.real - want.real) <= 8 * eps * max(1.0, abs(want))
        im_err = (got.imag - want.imag) % (2 * math.pi)
        assert min(im_err, 2 * math.pi - im_err) <= 8 * eps * max(1.0, abs(want))

    def test_complex_kernel_keeps_shape(self):
        z = 0.3 - 2.5j
        scalar = log_gamma_complex_vec(z)
        assert scalar.shape == ()
        grid = np.array([[z, -3.2 + 0.1j, 4.0], [1.0 - 1e-3j, -0.5j, 7.5 + 40j]])
        table = log_gamma_complex_vec(grid)
        assert table.shape == (2, 3)
        assert table[0, 0] == pytest.approx(complex(scalar), rel=1e-15)
        np.testing.assert_array_equal(table.ravel(), log_gamma_complex_vec(grid.ravel()))

    @pytest.mark.parametrize("z", [1e300, 1e300 + 1e300j, 3e299 - 1e300j, -1e300 + 1e300j, -0.5 - 1e300j])
    def test_complex_kernel_finite_at_large_modulus(self, z):
        # |t|^2 and sinh(pi y) overflow long before this; hypot and the
        # e^(-pi |y|) scaling keep the log finite
        value = log_gamma_complex_vec(np.array([z]))[0]
        assert np.isfinite(value.real) and np.isfinite(value.imag)

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
            assert bernoulli_number(n) == want

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_odd_numbers_vanish(self, n):
        assert bernoulli_number(n) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 2.5, -1.2])
    def test_difference_identity(self, n, x):
        # B_n(x+1) - B_n(x) = n x^(n-1)
        got = bernoulli_poly(n, x + 1.0) - bernoulli_poly(n, x)
        assert got == pytest.approx(n * x ** (n - 1), abs=1e-10)

    @pytest.mark.parametrize("call, error", [
        (lambda: bernoulli_number(-1), ValueError),
        (lambda: bernoulli_number(65), OverflowError),
        (lambda: bernoulli_poly(-1, 0.5), ValueError),
        (lambda: stirling2_row(-1), ValueError),
    ], ids=["number(-1)", "number(65)", "poly(-1)", "stirling2_row(-1)"])
    def test_index_out_of_range_rejected(self, call, error):
        with pytest.raises(error):
            call()

    def test_poly_at_zero_is_number(self):
        for n in range(8):
            assert bernoulli_poly(n, 0.0) == pytest.approx(float(bernoulli_number(n)), abs=1e-15)


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
        # sum_{k>=0} k^n x^k / k!, summed directly to convergence
        brute = sum((k**n if n or k else 1) * x**k / math.factorial(k)
                    for k in range(80))
        assert math.exp(x) * touchard_poly(n, x) == pytest.approx(brute, rel=1e-10, abs=1e-12)
