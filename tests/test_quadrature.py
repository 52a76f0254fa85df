"""Gauss-Kronrod panels, adaptive refinement, gamma-weighted transforms."""

import math

import numpy as np
import pytest

from foxwright.errors import QuadratureFailure
from foxwright.quadrature import (
    integrate_adaptive,
    integrate_gamma_weighted,
    kronrod15,
)


def _vec(f):
    return lambda t: np.asarray([f(x) for x in np.atleast_1d(t)], dtype=float)


class TestKronrod:
    def test_polynomial_exactness(self):
        # the 15-point rule integrates degree <= 22 exactly; try degree 10
        val, err = kronrod15(_vec(lambda x: x**10), 0.0, 1.0)
        assert val == pytest.approx(1.0 / 11.0, rel=1e-14)
        assert err < 1e-12

    def test_error_estimate_reflects_roughness(self):
        _, smooth_err = kronrod15(_vec(math.cos), 0.0, 1.0)
        _, rough_err = kronrod15(_vec(lambda x: abs(x - 0.37) ** 0.2), 0.0, 1.0)
        assert smooth_err < rough_err


class TestAdaptive:
    def test_smooth_integrand(self):
        got = integrate_adaptive(_vec(math.exp), 0.0, 2.0)
        assert got == pytest.approx(math.exp(2.0) - 1.0, rel=1e-12)

    def test_sqrt_singularity(self):
        got = integrate_adaptive(_vec(lambda x: 1.0 / math.sqrt(x)), 0.0, 1.0, tol_rel=1e-9)
        assert got == pytest.approx(2.0, rel=1e-8)

    def test_oscillatory(self):
        got = integrate_adaptive(_vec(lambda x: math.sin(40.0 * x)), 0.0, math.pi)
        want = (1.0 - math.cos(40.0 * math.pi)) / 40.0
        assert got == pytest.approx(want, abs=1e-11)

    def test_empty_interval(self):
        assert integrate_adaptive(_vec(math.exp), 1.0, 1.0) == 0.0

    def test_nonintegrable_raises(self):
        with pytest.raises(QuadratureFailure) as exc_info:
            integrate_adaptive(_vec(lambda x: 1.0 / x), 0.0, 1.0)
        # failure carries the offending interval for diagnosis
        assert exc_info.value.interval is not None


class TestGammaWeighted:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1.5, 3.0, 7.5])
    def test_unit_function_gives_gamma(self, sigma):
        got = integrate_gamma_weighted(_vec(lambda t: 1.0), sigma)
        assert got == pytest.approx(math.gamma(sigma), rel=1e-11)

    @pytest.mark.parametrize("sigma", [0.5, 2.0, 4.0])
    def test_exponential_tilt(self, sigma):
        # integral t^(sigma-1) e^(-t) e^(-t) dt = gamma(sigma)/2^sigma
        got = integrate_gamma_weighted(_vec(lambda t: math.exp(-t)), sigma)
        assert got == pytest.approx(math.gamma(sigma) / 2.0**sigma, rel=1e-11)

    def test_polynomial_moments(self):
        # integral t^(sigma-1) e^(-t) t^2 dt = gamma(sigma+2)
        sigma = 1.5
        got = integrate_gamma_weighted(_vec(lambda t: t * t), sigma)
        assert got == pytest.approx(math.gamma(sigma + 2.0), rel=1e-11)

