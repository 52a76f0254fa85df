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

    def test_overflow_before_cut_raises(self):
        # f = e^(0.99 t) would pass e^709 long before the cut at t = 6000
        with pytest.raises(OutsideDomainError):
            integrate_gamma_weighted(lambda t: np.exp(0.99 * t), 1.0, decay=0.01)

    def test_one_call_per_level_on_new_nodes(self):
        seen = []

        def f(t):
            seen.append(t)
            return np.exp(-0.5 * t)

        got = integrate_gamma_weighted(f, 1.5, 1.0)
        assert got == pytest.approx(math.gamma(1.5) / 1.5**1.5, rel=1e-12)
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size
        # together the calls hold the finest level's whole grid, evenly
        # spaced in x = asinh(ln t / (pi/2)): call l held level l's new nodes
        x = np.sort(np.arcsinh(np.log(nodes) / (0.5 * math.pi)))
        assert np.allclose(np.diff(x), 0.5 / 2 ** (len(seen) - 1), rtol=0, atol=1e-9)
