"""The double-exponential engine: nested levels, the level loop, gamma-weighted transforms."""

import math

import numpy as np
import pytest

from foxwright.errors import OutsideDomainError, QuadratureFailure
from foxwright.quadrature import (
    integrate_gamma_weighted,
    integrate_levels,
    tanh_sinh,
    tanh_sinh_reach,
)


def _vec(f):
    return lambda t: np.asarray([f(x) for x in np.atleast_1d(t)], dtype=float)


class TestLevels:
    def test_tanh_sinh_absorbs_endpoint_singularities(self):
        # integral_0^2 dt / sqrt(t (2 - t)) = pi, singular at both ends;
        # the complement u = ln(2/t) gives 2 - t = t (e^u - 1) exactly
        reach = tanh_sinh_reach(1e-29)

        def terms(level):
            t, u, w = tanh_sinh(level, 2.0, reach, reach)
            return 1.0 / np.sqrt(t * t * np.expm1(u)), w

        got, err = integrate_levels(terms, 1e-12, (0.0, 2.0))
        assert got == pytest.approx(math.pi, rel=1e-12)
        assert err < 1e-11

    def test_jump_raises_with_interval(self):
        reach = tanh_sinh_reach(1e-29)

        def terms(level):
            t, _, w = tanh_sinh(level, 1.0, reach, reach)
            return np.sign(t - 0.3), w

        with pytest.raises(QuadratureFailure) as exc_info:
            integrate_levels(terms, 1e-12, (0.0, 1.0))
        # failure carries the interval for diagnosis
        assert exc_info.value.interval == (0.0, 1.0)

    def test_non_finite_sum_raises(self):
        # 1/t at t = 0 of a rule that includes the endpoint: the sum is not
        # finite at the first level, and no later level can mend it
        def terms(level):
            t = np.linspace(0.0, 1.0, 2**level + 1)
            with np.errstate(divide="ignore"):
                return 1.0 / t, np.full(t.size, 1.0 / t.size)

        with pytest.raises(QuadratureFailure):
            integrate_levels(terms, 1e-12, (0.0, 1.0))


class TestRows:
    """A (k, n) integrand: each row keeps the level at which it first met the
    tolerance, so it equals the 1-D call on that row bit for bit."""

    reach = tanh_sinh_reach(1e-29)

    def powers(self, cs, levels=None):
        """The rows t^c on (0, 1), whose integrals are 1/(c + 1); the closer
        c is to -1, the later the level a row settles at."""
        def terms(level):
            if levels is not None:
                levels.append(level)
            t, _, w = tanh_sinh(level, 1.0, self.reach, self.reach)
            rows = np.array([t**c for c in cs])
            return (rows if len(cs) > 1 else rows[0]), w

        return terms

    def test_each_row_equals_its_one_row_call(self):
        cs = [3.0, -0.5, 0.0, 1.5, -0.3, 8.0]
        total, err = integrate_levels(self.powers(cs), 1e-12, (0.0, 1.0))
        assert total.shape == err.shape == (len(cs),)
        settled = set()
        for c, got, got_err in zip(cs, total, err):
            levels = []
            want, want_err = integrate_levels(self.powers([c], levels), 1e-12, (0.0, 1.0))
            settled.add(max(levels))
            assert (got, got_err) == (want, want_err)
            assert got == pytest.approx(1.0 / (c + 1.0), rel=1e-11)
        assert len(settled) > 1  # the rows settle at different levels

    def test_a_row_that_misses_the_tolerance_fails_the_batch(self):
        def terms(level):
            t, _, w = tanh_sinh(level, 1.0, self.reach, self.reach)
            return np.array([t, np.sign(t - 0.3)]), w

        with pytest.raises(QuadratureFailure):
            integrate_levels(terms, 1e-12, (0.0, 1.0))

    def test_a_row_that_is_not_finite_fails_the_batch(self):
        # 1/t at t = 0 in the second row only; the first row converges
        def terms(level):
            t = np.linspace(0.0, 1.0, 2**level + 1)
            with np.errstate(divide="ignore"):
                return np.array([t, 1.0 / t]), np.full(t.size, 1.0 / t.size)

        with pytest.raises(QuadratureFailure):
            integrate_levels(terms, 1e-12, (0.0, 1.0))


class TestGammaWeighted:
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0, 1.5, 3.0, 7.5])
    def test_unit_function_gives_gamma(self, sigma):
        got = integrate_gamma_weighted(_vec(lambda t: 1.0), sigma, 1.0)
        assert got == pytest.approx(math.gamma(sigma), rel=1e-11)

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
    def test_exponential_tilt(self, sigma):
        # integral t^(sigma-1) e^(-t) e^(-t) dt = gamma(sigma)/2^sigma
        got = integrate_gamma_weighted(_vec(lambda t: math.exp(-t)), sigma, 1.0)
        assert got == pytest.approx(math.gamma(sigma) / 2.0**sigma, rel=1e-11)

    def test_polynomial_moments(self):
        # integral t^(sigma-1) e^(-t) t^2 dt = gamma(sigma+2)
        sigma = 1.5
        got = integrate_gamma_weighted(_vec(lambda t: t * t), sigma, 1.0)
        assert got == pytest.approx(math.gamma(sigma + 2.0), rel=1e-11)

    @pytest.mark.parametrize("grow", [0.5, 0.9])
    def test_growing_integrand_keeps_its_tail(self, grow):
        # integral e^(-t) e^(grow t) dt = 1/(1-grow): the cut moves out as
        # the decay rate 1 - grow falls
        got = integrate_gamma_weighted(lambda t: np.exp(grow * t), 1.0, decay=1.0 - grow)
        assert got == pytest.approx(1.0 / (1.0 - grow), rel=1e-11)

    @pytest.mark.parametrize("sigma, decay", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, 1.5)])
    def test_bad_sigma_or_decay_rejected(self, sigma, decay):
        with pytest.raises(ValueError, match="sigma" if sigma <= 0 else "decay"):
            integrate_gamma_weighted(lambda t: np.ones_like(t), sigma, decay=decay)

    def test_overflow_before_cut_raises(self):
        # f = e^(0.99 t) would pass e^709 long before the cut at t = 6000
        with pytest.raises(OutsideDomainError):
            integrate_gamma_weighted(lambda t: np.exp(0.99 * t), 1.0, decay=0.01)

    def test_one_call_for_levels_0_to_4_then_one_per_level(self):
        seen = []

        def f(t):
            seen.append(t)
            return np.cos(2.0 * t)

        # integral e^(-t) cos(2t) dt = 1/5, met only at level 6
        got = integrate_gamma_weighted(f, 1.0, 1.0)
        assert got == pytest.approx(0.2, rel=1e-12)
        assert len(seen) == 3
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size
        # each call's nodes in x = asinh(ln t / (pi/2)), and x / h on a step h
        xs = [np.arcsinh(np.log(t) / (0.5 * math.pi)) for t in seen]
        x = np.sort(np.concatenate(xs))

        def steps(x, h):
            j = np.round(x / h)
            assert np.allclose(x / h, j, rtol=0, atol=1e-6)
            return np.sort(j)

        # the first call holds exactly the nodes of levels 0 to 4: every
        # multiple of the level-4 step 1/32 inside the span of all the nodes
        h = 0.5 / 2**4
        lo, hi = math.ceil(x[0] / h - 1e-6), math.floor(x[-1] / h + 1e-6)
        assert np.array_equal(steps(xs[0], h), np.arange(lo, hi + 1))
        # call k > 0 holds level 4 + k's new nodes: the odd multiples of its step
        for k, xk in enumerate(xs[1:], 1):
            j = steps(xk, h / 2**k)
            assert np.all(j % 2 == 1)
            assert np.all(np.diff(j) == 2)
        # together the calls hold the finest level's whole grid, evenly spaced in x
        assert np.allclose(np.diff(x), h / 2 ** (len(seen) - 1), rtol=0, atol=1e-9)
