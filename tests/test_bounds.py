"""Kernel bounds, complete-monotonicity scan, shifted-ratio monotonicity."""

import math

import numpy as np
import pytest

from foxwright import (
    ParameterSet,
    cm_check,
    exp_kernel_bounds,
    lifted_kernel_bounds,
    ratio_monotonicity_scan,
    shifted_stieltjes_ratio,
    stieltjes_lower_bound,
)
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, TWIN_QUARTER
from foxwright.errors import (
    ConstraintError,
    DegenerateError,
    DomainError,
    ParameterError,
)

GRID_17 = [float(v) for v in np.linspace(0.05, 0.95, 17)]
CM_GRID = [float(v) for v in np.logspace(math.log10(0.01), math.log10(10.0), 30)]


class TestExpKernelBounds:
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0])
    def test_sandwich_holds(self, z):
        rep = exp_kernel_bounds(DOUBLE_POLE, z)
        assert rep.hypothesis_nonneg
        assert rep.lower_ok and rep.upper_ok
        assert rep.lower <= rep.value <= rep.upper
        assert rep.lower < rep.upper  # strict away from z = 0

    def test_collapse_at_zero(self):
        rep = exp_kernel_bounds(DOUBLE_POLE, 0.0)
        assert rep.upper - rep.lower == pytest.approx(0.0, abs=1e-12)
        assert rep.value == pytest.approx(rep.lower, abs=1e-12)
        assert rep.value == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_mass_split_values(self):
        rep = exp_kernel_bounds(DOUBLE_POLE, 1.0)
        assert rep.psi0 == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-12)
        # psi1 = ratio(1) - eta rho = gamma(1)gamma(2)/gamma(1.5)^2 - 1
        want = 1.0 / math.gamma(1.5) ** 2 - 1.0
        assert rep.psi1 == pytest.approx(want, rel=1e-11)

    def test_degenerate_measure_rejected(self):
        with pytest.raises(DegenerateError):
            exp_kernel_bounds(EXP_COLLAPSE, 1.0)

    def test_wrong_order_rejected(self):
        with pytest.raises(ConstraintError):
            exp_kernel_bounds(TWIN_QUARTER, 1.0)  # m = 1

    def test_negative_z_rejected(self):
        with pytest.raises(ParameterError):
            exp_kernel_bounds(DOUBLE_POLE, -0.5)


class TestLiftedKernelBounds:
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0])
    def test_sandwich_holds(self, lam, z):
        rep = lifted_kernel_bounds(DOUBLE_POLE, lam, z)
        assert rep.lower_ok and rep.upper_ok
        assert rep.lower <= rep.value <= rep.upper

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_collapse_at_zero(self, lam):
        rep = lifted_kernel_bounds(DOUBLE_POLE, lam, 0.0)
        assert rep.upper - rep.lower == pytest.approx(0.0, abs=1e-12)
        want = math.gamma(lam) * math.pi / 2.0
        assert rep.value == pytest.approx(want, rel=1e-12)

    def test_continuation_points_beyond_disk(self):
        # z in {1, 2} lies beyond the lifted series radius (1/rho = 1);
        # the bound evaluation relies on the kernel continuation
        for z in (1.0, 2.0):
            rep = lifted_kernel_bounds(DOUBLE_POLE, 2.0, z)
            assert rep.lower <= rep.value <= rep.upper


class TestStieltjesLowerBound:
    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    @pytest.mark.parametrize("z", [0.1, 0.3])
    def test_bound_holds(self, sigma, z):
        rep = stieltjes_lower_bound(DOUBLE_POLE, sigma, z)
        assert rep.bound_ok
        assert rep.margin >= 0.0
        assert rep.mean_power_ok

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_equality_at_zero(self, sigma):
        rep = stieltjes_lower_bound(DOUBLE_POLE, sigma, 0.0)
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_power_mean_direction_flips(self):
        above = stieltjes_lower_bound(DOUBLE_POLE, 3.0, 0.2)
        below = stieltjes_lower_bound(DOUBLE_POLE, 0.5, 0.2)
        assert above.mean_power_direction == ">="
        assert above.mean_power_lhs >= above.mean_power_rhs
        assert below.mean_power_direction == "<="
        assert below.mean_power_lhs <= below.mean_power_rhs


class TestCmCheck:
    def test_exponential_clean(self):
        rep = cm_check(lambda x: math.exp(-x), CM_GRID, 0.05, 6)
        assert rep.clean and rep.note is None

    def test_inverse_linear_clean(self):
        rep = cm_check(lambda x: 1.0 / (1.0 + x), CM_GRID, 0.05, 6)
        assert rep.clean

    def test_sum_of_cm_clean(self):
        rep = cm_check(lambda x: math.exp(-x) + 0.5 / (1.0 + x), CM_GRID, 0.05, 6)
        assert rep.clean

    def test_linear_fails_first_order(self):
        rep = cm_check(lambda x: x, CM_GRID, 0.05, 6)
        assert rep.first_violation is not None
        assert rep.first_violation[0] == 1
        assert "hypothesis" in rep.note

    def test_sign_crossing_fails_order_zero(self):
        f = lambda x: (math.exp(-2.0 * x) - math.exp(-x / 2.0)) / math.sqrt(math.pi)
        rep = cm_check(f, CM_GRID, 0.05, 6)
        assert rep.first_violation is not None
        assert rep.first_violation[0] == 0
        assert "hypothesis" in rep.note

    def test_series_value_completely_monotone(self):
        from foxwright import fox_wright_value

        f = lambda x: complex(fox_wright_value(DOUBLE_POLE, -x)).real
        rep = cm_check(f, CM_GRID, 0.05, 6)
        assert rep.clean

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            cm_check(math.exp, CM_GRID, -0.1)
        with pytest.raises(ParameterError):
            cm_check(math.exp, [], 0.05)
        with pytest.raises(ParameterError):
            cm_check(math.exp, [-1.0, 1.0], 0.05)
        with pytest.raises(ParameterError):
            cm_check(math.exp, CM_GRID, 0.05, max_order=9)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_step_raises(self, h):
        # NaN slipped past an ``h <= 0`` guard and every difference compared False
        with pytest.raises(ParameterError):
            cm_check(lambda x: x, CM_GRID, h)


class TestShiftedRatio:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [-0.5, 1.0])
    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_routes_agree(self, sigma, delta, z):
        r = shifted_stieltjes_ratio(DOUBLE_POLE, sigma, delta, z)
        assert r.rel_err < 1e-6

    def test_zero_shift_is_unity(self):
        r = shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 0.0, 0.5)
        assert r.rhs == pytest.approx(1.0, rel=1e-12)  # quadrature route
        assert r.lhs == pytest.approx(1.0, rel=1e-12)  # series route

    def test_degenerate_measure_rejected(self):
        with pytest.raises(DegenerateError):
            shifted_stieltjes_ratio(EXP_COLLAPSE, 1.0, 1.0, 0.5)

    def test_kernel_zero_rejected(self):
        with pytest.raises(DomainError):
            shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 1.0, -1.5)


class TestRatioScan:
    def test_positive_shift_nonincreasing(self):
        rep = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, 1.0, GRID_17)
        assert rep.expected == "nonincreasing"
        assert rep.monotone_ok
        assert rep.max_violation <= 1e-8
        assert rep.max_route_gap < 1e-6

    def test_negative_shift_nondecreasing(self):
        rep = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, -0.5, GRID_17)
        assert rep.expected == "nondecreasing"
        assert rep.monotone_ok
        assert rep.max_route_gap < 1e-6

    def test_probing_opposite_direction_fails(self):
        rep = ratio_monotonicity_scan(
            DOUBLE_POLE, 1.0, 1.0, GRID_17, expected="nondecreasing"
        )
        assert not rep.monotone_ok
        assert rep.max_violation > 1e-4

    def test_scan_needs_two_points(self):
        with pytest.raises(ParameterError):
            ratio_monotonicity_scan(DOUBLE_POLE, 1.0, 1.0, [0.5])
