"""Kernel bounds, complete-monotonicity scan, shifted-ratio monotonicity."""

import math

import numpy as np
import pytest

from foxwright import (
    ParameterSet,
    bounds,
    cm_check,
    derive_constants,
    eval_via_representation,
    exp_kernel_bounds,
    hfun_nonneg_scan,
    lifted_kernel_bounds,
    lifted_value,
    ratio_monotonicity_scan,
    stieltjes_lower_bound,
)
from foxwright.bounds import (_OK_SLACK, _atomic_mass, _cm_order, _scan_direction,
                              _shifted_stieltjes_ratio)
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, TWIN_QUARTER
from foxwright.errors import (
    ConstraintError,
    DegenerateError,
    DivisionError,
    DomainError,
    ParameterError,
)
from foxwright.params import _set_record
from foxwright.series import _fox_wright_values, _record

GRID_17 = [float(v) for v in np.linspace(0.05, 0.95, 17)]
NON_FINITE = [math.nan, math.inf, -math.inf]
CM_GRID = [float(v) for v in np.logspace(math.log10(0.01), math.log10(10.0), 30)]
# mu = 0 sets.  Simple poles and a nonnegative density (the lone-pole set of
# test_hfun carries no regular mass, psi0 < 0, so its lower rows are moved):
LONE_POLES = ParameterSet([(0.4, 1.0), (1.15, 1.0), (1.9, 1.0)], [(0.6, 1.0), (1.25, 1.0), (1.6, 1.0)])
# A density that scans negative, and a barycentre psi1/psi0 = -0.634 outside [0, rho]:
SIGNED = ParameterSet([(0.25, 1.0), (0.5, 0.25)], [(0.5, 0.5), (0.25, 0.75)])


# The two bounds, each formula written out by hand: reference forms whose
# records the one Jensen-chord sandwich must equal to the bit.
def reference_pair(name, params, z, lower, value, upper):
    nonneg = hfun_nonneg_scan(params).ok()
    return (_record(f"{name}-lower", z, lower, value, _OK_SLACK, "<=", applies=nonneg),
            _record(f"{name}-upper", z, value, upper, _OK_SLACK, "<=", applies=nonneg))


def reference_exp_bounds(params, zs):
    psi0, psi1, c = _atomic_mass(params)
    lower = [psi0 * math.exp(-(psi1 / psi0) * z) + c.eta * math.exp(-c.rho * z) for z in zs]
    upper = [(psi0 - psi1 / c.rho) + (c.eta + psi1 / c.rho) * math.exp(-c.rho * z) for z in zs]
    values = _fox_wright_values(params, [-z for z in zs])
    return tuple(reference_pair("exp-kernel", params, *point)
                 for point in zip(zs, lower, values, upper))


def reference_lifted_bounds(params, lam, zs):
    psi0, psi1, c = _atomic_mass(params)
    g = math.gamma(lam)
    lower = [g * c.eta * (1.0 + c.rho * z) ** (-lam)
             + g * psi0 * (1.0 + (psi1 / psi0) * z) ** (-lam) for z in zs]
    upper = [g * (psi0 - psi1 / c.rho)
             + g * (c.eta + psi1 / c.rho) * (1.0 + c.rho * z) ** (-lam) for z in zs]
    values = lifted_value(params, lam, [-z for z in zs])
    return tuple(reference_pair(f"lifted-kernel[lam={lam:g}]", params, *point)
                 for point in zip(zs, lower, values, upper))


def first_defect(records):
    """(order, x) of the first failing cm_check record, or None when clean."""
    bad = next((r for r in records if not r.ok()), None)
    return None if bad is None else (_cm_order(bad), bad.z)


class TestExpKernelBounds:
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0])
    def test_sandwich_holds(self, z):
        lower, upper = exp_kernel_bounds(DOUBLE_POLE, [z])[0]
        assert lower.relation == upper.relation == "<="
        assert lower.verdict == upper.verdict == "pass"  # not n/a: the scan passed
        assert lower.rhs == upper.lhs  # the series value F(-z), bounded on both sides
        assert lower.lhs <= lower.rhs <= upper.rhs
        assert lower.lhs < upper.rhs  # strict away from z = 0

    def test_collapse_at_zero(self):
        lower, upper = exp_kernel_bounds(DOUBLE_POLE, [0.0])[0]
        assert upper.rhs - lower.lhs == pytest.approx(0.0, abs=1e-12)
        assert lower.rhs == pytest.approx(lower.lhs, abs=1e-12)
        assert lower.rhs == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_mass_split_values(self):
        psi0, psi1, c = _atomic_mass(DOUBLE_POLE)
        assert psi0 == pytest.approx(math.pi / 2.0 - 1.0, rel=1e-12)
        # psi1 = ratio(1) - eta rho = gamma(1)gamma(2)/gamma(1.5)^2 - 1
        want = 1.0 / math.gamma(1.5) ** 2 - 1.0
        assert psi1 == pytest.approx(want, rel=1e-11)
        # the bounds at z = 1 are built from exactly these masses
        lower, upper = exp_kernel_bounds(DOUBLE_POLE, [1.0])[0]
        e = math.exp(-c.rho)
        assert lower.lhs == pytest.approx(psi0 * math.exp(-psi1 / psi0) + c.eta * e, rel=1e-14)
        assert upper.rhs == pytest.approx(psi0 - psi1 / c.rho + (c.eta + psi1 / c.rho) * e,
                                          rel=1e-14)

    def test_mass_split_computed_once_per_set(self, monkeypatch):
        # the set fixes psi0 and psi1: after the first call no bound or
        # ratio point does gamma_ratio work for them again
        _set_record.cache_clear()
        first = _atomic_mass(DOUBLE_POLE)

        def no_gamma_ratio(*args):
            raise AssertionError("gamma_ratio called again")

        monkeypatch.setattr(bounds, "gamma_ratio", no_gamma_ratio)
        assert _atomic_mass(DOUBLE_POLE) is first
        exp_kernel_bounds(DOUBLE_POLE, [0.5])[0]
        stieltjes_lower_bound(DOUBLE_POLE, 2.0, [0.5])[0]
        _shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 1.0, [0.5])[0]

    def test_failed_scan_gives_not_applicable(self, monkeypatch):
        # the bounds are conditional on H >= 0: a failed scan is n/a, not fail
        failed = _record("density-nonneg", 0.5, -1.0, 0.0, 0.0, ">=")
        monkeypatch.setattr(bounds, "hfun_nonneg_scan", lambda params: failed)
        for records in (exp_kernel_bounds(DOUBLE_POLE, [0.5])[0],
                        lifted_kernel_bounds(DOUBLE_POLE, 2.0, [0.5])[0],
                        stieltjes_lower_bound(DOUBLE_POLE, 3.0, [0.5])[0]):
            assert [r.verdict for r in records] == ["n/a", "n/a"]
            assert not any(r.ok() for r in records)
        # the power-mean equality at sigma = 1 needs no hypothesis
        (pair,) = stieltjes_lower_bound(DOUBLE_POLE, 1.0, [0.5])
        assert [r.verdict for r in pair] == ["n/a", "pass"]

    def test_degenerate_measure_rejected(self):
        with pytest.raises(DegenerateError):
            exp_kernel_bounds(EXP_COLLAPSE, [1.0])[0]

    def test_wrong_order_rejected(self):
        with pytest.raises(ConstraintError):
            exp_kernel_bounds(TWIN_QUARTER, [1.0])[0]  # m = 1

    def test_negative_z_rejected(self):
        with pytest.raises(ParameterError):
            exp_kernel_bounds(DOUBLE_POLE, [-0.5])[0]


class TestLiftedKernelBounds:
    @pytest.mark.parametrize("lam", [1.0, 2.0])
    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 2.0])
    def test_sandwich_holds(self, lam, z):
        lower, upper = lifted_kernel_bounds(DOUBLE_POLE, lam, [z])[0]
        assert lower.ok() and upper.ok()
        assert lower.lhs <= lower.rhs == upper.lhs <= upper.rhs

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_collapse_at_zero(self, lam):
        lower, upper = lifted_kernel_bounds(DOUBLE_POLE, lam, [0.0])[0]
        assert upper.rhs - lower.lhs == pytest.approx(0.0, abs=1e-12)
        want = math.gamma(lam) * math.pi / 2.0
        assert lower.rhs == pytest.approx(want, rel=1e-12)

    def test_negative_z_rejected(self):
        with pytest.raises(ParameterError):
            lifted_kernel_bounds(DOUBLE_POLE, 1.0, [-0.5])[0]

    @pytest.mark.parametrize("z", [0.5, 2.0, 1e10])
    def test_bound_past_the_double_range_raises(self, z):
        # gamma(171.6) fits a double, but gamma(lam) (psi0 - psi1/rho) in
        # the upper bound does not: value <= inf passed, saying nothing
        with pytest.raises(DomainError, match="overflows"):
            lifted_kernel_bounds(DOUBLE_POLE, 171.6, [z])[0]

    @pytest.mark.parametrize("lam, base", [(0.5, "negative"), (1.5, "negative"),
                                           (1.5, "zero"), (2.0, "zero")])
    def test_barycentre_outside_the_support_raises(self, lam, base):
        # (1 + (psi1/psi0) z)^(-lam) of a negative base is complex for a
        # fractional lam, and of a zero base a ZeroDivisionError: each
        # escaped as an untyped error
        psi0, psi1, _ = _atomic_mass(SIGNED)
        z = 2.0 if base == "negative" else -psi0 / psi1
        with pytest.raises(DomainError, match="overflows a double"):
            lifted_kernel_bounds(SIGNED, lam, [z])[0]

    @pytest.mark.parametrize("lam", [1.0, 2.0, 3.0])
    def test_integer_exponent_keeps_its_real_bound(self, lam):
        # a negative base to an integer power is real: the records stand, n/a
        zs = [0.3, 2.0, 30.0]
        pairs = lifted_kernel_bounds(SIGNED, lam, zs)
        assert {r.verdict for pair in pairs for r in pair} == {"n/a"}  # the scan fails
        assert repr(pairs) == repr(reference_lifted_bounds(SIGNED, lam, zs))

    def test_continuation_points_beyond_disk(self):
        # z in {1, 2} lies beyond the lifted series radius (1/rho = 1);
        # the bound evaluation relies on the kernel continuation
        for z in (1.0, 2.0):
            lower, upper = lifted_kernel_bounds(DOUBLE_POLE, 2.0, [z])[0]
            assert lower.lhs <= lower.rhs <= upper.rhs


class TestReferenceForms:
    """Every record of both bound functions equals, by repr, the reference
    form's on double-pole and the lone-pole set, at z in {0, 0.3, 1, 2, 30}
    over rho and every lam; the goldens pin only lam = 2 and sigma = 3.  The
    exponential kernel keeps its bits on the signed set too, whose
    barycentre lies outside the support."""

    SETS = {"double-pole": DOUBLE_POLE, "lone-poles": LONE_POLES}

    @staticmethod
    def grid(params):
        return [z / derive_constants(params).rho for z in (0.0, 0.3, 1.0, 2.0, 30.0)]

    @pytest.mark.parametrize("params", [*SETS.values(), SIGNED], ids=[*SETS, "signed"])
    def test_exp_kernel(self, params):
        zs = self.grid(params)
        assert ([repr(r) for pair in exp_kernel_bounds(params, zs) for r in pair]
                == [repr(r) for pair in reference_exp_bounds(params, zs) for r in pair])

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("params", SETS.values(), ids=SETS.keys())
    def test_lifted_kernel(self, params, lam):
        zs = self.grid(params)
        assert ([repr(r) for pair in lifted_kernel_bounds(params, lam, zs) for r in pair]
                == [repr(r) for pair in reference_lifted_bounds(params, lam, zs) for r in pair])


class TestStieltjesLowerBound:
    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    @pytest.mark.parametrize("z", [0.1, 0.3])
    def test_bound_holds(self, sigma, z):
        bound, step = stieltjes_lower_bound(DOUBLE_POLE, sigma, [z])[0]
        assert bound.ok()
        assert bound.rhs - bound.lhs >= 0.0  # the margin of the value over the bound
        assert step.ok()

    @pytest.mark.parametrize("sigma", [0.5, 3.0])
    def test_equality_at_zero(self, sigma):
        bound, _ = stieltjes_lower_bound(DOUBLE_POLE, sigma, [0.0])[0]
        assert bound.rhs - bound.lhs == pytest.approx(0.0, abs=1e-12)

    def test_power_mean_direction_flips(self):
        _, above = stieltjes_lower_bound(DOUBLE_POLE, 3.0, [0.2])[0]
        _, below = stieltjes_lower_bound(DOUBLE_POLE, 0.5, [0.2])[0]
        assert above.relation == ">="
        assert above.lhs >= above.rhs
        assert below.relation == "<="
        assert below.lhs <= below.rhs


class TestCmCheck:
    def test_exponential_clean(self):
        records = cm_check(lambda x: np.exp(-x), CM_GRID)
        assert first_defect(records) is None
        assert len(records) == 7 * len(CM_GRID)
        assert all(r.relation == ">=" and r.ok() for r in records)

    def test_all_zero_function_clean(self):
        # max|f| = 0 would make every tolerance 0; the scale falls back to 1
        records = cm_check(np.zeros_like, CM_GRID)
        assert all(r.ok() and r.lhs == 0.0 for r in records)

    def test_inverse_linear_clean(self):
        assert first_defect(cm_check(lambda x: 1.0 / (1.0 + x), CM_GRID)) is None

    def test_sum_of_cm_clean(self):
        f = lambda x: np.exp(-x) + 0.5 / (1.0 + x)
        assert first_defect(cm_check(f, CM_GRID)) is None

    def test_linear_fails_first_order(self):
        records = cm_check(lambda x: x, CM_GRID)
        assert first_defect(records) == (1, CM_GRID[0])
        # the defect is a sign: -(f(x + h) - f(x)) = -h falls below -eps_1
        bad = next(r for r in records if not r.ok())
        assert bad.lhs == pytest.approx(-0.05) and bad.lhs < bad.rhs < 0.0

    def test_sign_crossing_fails_order_zero(self):
        f = lambda x: (np.exp(-2.0 * x) - np.exp(-x / 2.0)) / math.sqrt(math.pi)
        order, x = first_defect(cm_check(f, CM_GRID))
        assert order == 0
        assert f(x) < 0.0

    def test_series_value_completely_monotone(self):
        from foxwright import fox_wright_value

        f = lambda xs: [fox_wright_value(DOUBLE_POLE, -x) for x in xs.tolist()]
        assert first_defect(cm_check(f, CM_GRID)) is None

    @pytest.mark.parametrize("params,measure", [
        (DOUBLE_POLE, True),
        (TWIN_QUARTER, True),
        (ParameterSet([(1.0, 1.0)], [(1.0, 0.5)]), False),  # delta = -0.5: no measure
    ], ids=["double-pole", "twin-quarter", "unrepresented"])
    def test_parameter_set_reads_its_values(self, params, measure):
        # a set stands for F(-x): the measure where the set has one, else the series
        if measure:
            f = lambda xs: eval_via_representation(params, -xs).value  # noqa: E731
        else:
            f = lambda xs: _fox_wright_values(params, (-xs).tolist())  # noqa: E731
        assert cm_check(params, CM_GRID) == cm_check(f, CM_GRID)

    def test_f_is_called_once_on_the_whole_table(self):
        calls = []

        def spy(x):
            calls.append(x.copy())
            return np.exp(-x)

        grid = [3.0, 0.5, 1.25]
        records = cm_check(spy, grid)
        (points,) = calls
        assert points.shape == (7 * len(grid),)
        # x-major over the sorted grid, each x followed by x + j h, j = 1..6
        assert points.tolist() == [x + j * 0.05 for x in sorted(grid) for j in range(7)]
        assert first_defect(records) is None

    def test_f_must_return_one_value_per_abscissa(self):
        with pytest.raises(ParameterError):
            cm_check(lambda x: 1.0, CM_GRID)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            cm_check(np.exp, [])
        with pytest.raises(ParameterError):
            cm_check(np.exp, [-1.0, 1.0])

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_grid_point_raises(self, x):
        # a NaN point sorted anywhere and failed no comparison
        with pytest.raises(ParameterError):
            cm_check(np.exp, [1.0, x, 2.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_fail(self, value):
        # NaN differences compared False against -eps_n and passed for clean
        for grid in ([1.0, 2.0], [1.0]):
            records = cm_check(lambda x: np.full_like(x, value), grid)
            assert first_defect(records) == (0, 1.0)
            assert not any(r.ok() for r in records)

    def test_one_nan_value_fails_the_scan(self):
        records = cm_check(lambda x: np.where(x == 2.0, math.nan, np.exp(-x)), [1.0, 2.0])
        assert len(records) == 14
        assert all(r.verdict == "fail" for r in records)  # max|f| is undefined


class TestShiftedRatio:
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("delta", [-0.5, 1.0])
    @pytest.mark.parametrize("z", [0.2, 0.5, 0.8])
    def test_routes_agree(self, sigma, delta, z):
        r = _shifted_stieltjes_ratio(DOUBLE_POLE, sigma, delta, [z])[0]
        assert r.rel_err < 1e-6

    def test_zero_shift_is_unity(self):
        r = _shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 0.0, [0.5])[0]
        assert r.rhs == pytest.approx(1.0, rel=1e-12)  # quadrature route
        assert r.lhs == pytest.approx(1.0, rel=1e-12)  # series route

    def test_degenerate_measure_rejected(self):
        with pytest.raises(DegenerateError):
            _shifted_stieltjes_ratio(EXP_COLLAPSE, 1.0, 1.0, [0.5])[0]

    def test_kernel_zero_rejected(self):
        with pytest.raises(DomainError):
            _shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 1.0, [-1.5])[0]

    def test_signed_measure_rejected(self):
        # m = 1: Chebyshev's inequality needs the nonnegative mu = 0 measure,
        # though the Stieltjes identity holds for every m
        with pytest.raises(ConstraintError, match="kernel bounds and the ratio scan"):
            _shifted_stieltjes_ratio(TWIN_QUARTER, 1.0, 1.0, [0.5])[0]

    def test_zero_quadrature_denominator_rejected(self, monkeypatch):
        monkeypatch.setattr(bounds, "_stieltjes_integral",
                            lambda params, sigma, z: (np.zeros(len(z)), None))
        with pytest.raises(DivisionError, match="quadrature denominator"):
            _shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 1.0, [0.5])[0]

    def test_zero_series_denominator_rejected(self, monkeypatch):
        monkeypatch.setattr(bounds, "_lifted_regular", lambda params, sigma, zs: [0.0] * len(zs))
        with pytest.raises(DivisionError, match="series denominator"):
            _shifted_stieltjes_ratio(DOUBLE_POLE, 1.0, 1.0, [0.5])[0]


def scan_summary(records):
    """(expected direction, max violation, max route gap, every record passes)."""
    routes = [r for r in records if r.relation == "=="]
    steps = [r for r in records if r.relation == "<="]
    assert len(steps) == len(routes) - 1
    return (_scan_direction(steps[0]), max(0.0, max(r.lhs for r in steps)),
            max(r.rel_err for r in routes), all(r.ok() for r in records))


class TestRatioScan:
    def test_positive_shift_nonincreasing(self):
        records = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, 1.0, GRID_17)
        expected, max_violation, max_route_gap, ok = scan_summary(records)
        assert expected == "nonincreasing"
        assert ok
        assert max_violation <= 1e-8
        assert max_route_gap < 1e-6

    def test_negative_shift_nondecreasing(self):
        records = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, -0.5, GRID_17)
        expected, _, max_route_gap, ok = scan_summary(records)
        assert expected == "nondecreasing"
        assert ok
        assert max_route_gap < 1e-6

    def test_probing_opposite_direction_fails(self):
        # the opposite claim, nondecreasing, is read off the route records'
        # quadrature values: every step falls, so every step violates it
        records = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, 1.0, GRID_17)
        values = [r.rhs for r in records[:17]]
        violations = [a - b for a, b in zip(values, values[1:])]
        assert max(violations) > 1e-4
        assert min(violations) > 1e-8
        # the route records all pass: only the claimed direction fails
        assert all(r.ok() for r in records)

    def test_scan_needs_two_points(self):
        with pytest.raises(ParameterError):
            ratio_monotonicity_scan(DOUBLE_POLE, 1.0, 1.0, [0.5])


class TestNonFiniteArguments:
    """NaN and infinite exponents are ParameterErrors; each used to slip past
    a ``<= 0`` guard into an untyped ValueError or a NaN."""

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_lifted_kernel_bounds(self, lam):
        with pytest.raises(ParameterError):
            lifted_kernel_bounds(DOUBLE_POLE, lam, [0.5])[0]

    @pytest.mark.parametrize("sigma", NON_FINITE)
    def test_stieltjes_lower_bound(self, sigma):
        with pytest.raises(ParameterError):
            stieltjes_lower_bound(DOUBLE_POLE, sigma, [0.5])[0]

    @pytest.mark.parametrize("sigma", NON_FINITE)
    def test_shifted_stieltjes_ratio(self, sigma):
        with pytest.raises(ParameterError):
            _shifted_stieltjes_ratio(DOUBLE_POLE, sigma, 1.0, [0.5])[0]

    @pytest.mark.parametrize("sigma", NON_FINITE)
    def test_ratio_monotonicity_scan(self, sigma):
        with pytest.raises(ParameterError):
            ratio_monotonicity_scan(DOUBLE_POLE, sigma, 1.0, [0.2, 0.5])
