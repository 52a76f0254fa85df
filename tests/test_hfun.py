"""The representing density: residue route, endpoint series, moments, atoms."""

import math

import numpy as np
import pytest

from foxwright import (
    HfunEvalConfig,
    HfunMethod,
    ParameterSet,
    derive_constants,
    gamma_ratio,
    get_evaluator,
    hfun_nonneg_scan,
    moment_identity_check,
    shift_parameters,
)
from foxwright import hfun
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.errors import (
    ConstraintError,
    NonConvergentError,
    OutsideDomainError,
    QuadratureFailure,
)
from foxwright.hfun import MeasureEvaluator
from foxwright.quadrature import integrate_adaptive

# an upper/lower pair one step apart has the classical beta density
# t^alpha (1-t)^(beta-alpha-1) / gamma(beta-alpha) as its measure
BETA_LIKE = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])


def beta_density(t, alpha=0.7, beta=2.3):
    return t**alpha * (1.0 - t) ** (beta - alpha - 1.0) / math.gamma(beta - alpha)


def meijer_g(t, a, b, scale=1.0):
    """scale * G^{2,0}_{2,2}(t | ; a / b ;) to 40 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return float(scale * mpmath.meijerg([[], a], [b, []], mpmath.mpf(t)))


class TestRouteAgreement:
    @pytest.mark.parametrize("params", [TWIN_QUARTER, DOUBLE_POLE, BETA_LIKE])
    def test_residue_vs_endpoint(self, params):
        # 0.3 rho and 0.5 rho: both series converge there
        ev = get_evaluator(params)
        ts = np.array([0.3, 0.5]) * ev.rho
        res = ev.density(ts, method=HfunMethod.RESIDUE_SERIES)
        end = ev.density(ts, method=HfunMethod.ENDPOINT_SERIES)
        assert np.max(np.abs(res - end)) < 1e-12

    def test_degenerate_set_both_routes_zero(self):
        ev = get_evaluator(EXP_COLLAPSE)
        assert ev.degenerate
        ts = np.array([0.2, 1.0, 1.8])
        assert np.all(ev.density(ts, method=HfunMethod.RESIDUE_SERIES) == 0.0)
        assert np.all(ev.density(ts, method=HfunMethod.ENDPOINT_SERIES) == 0.0)

    @pytest.mark.parametrize(
        "params",
        [
            EXP_COLLAPSE,
            IDENTITY,
            # Gauss multiplication: the ratio is 3^(s+1/2) / (2 pi)
            ParameterSet([(1.0, 1.0)], [(1 / 3, 1 / 3), (2 / 3, 1 / 3), (1.0, 1 / 3)]),
            # the polynomial (s+1)(s+2)...(s+40): mu = -40, all atoms
            ParameterSet([(41.0, 1.0)], [(1.0, 1.0)]),
        ],
    )
    def test_entire_ratio_is_degenerate(self, params):
        ev = MeasureEvaluator(params)
        assert ev.degenerate
        assert np.all(ev.density(np.array([0.3, 0.7]) * ev.rho) == 0.0)

    def test_near_entire_ratio_is_not_degenerate(self):
        # 1e-6 from exp-collapse: every residue is ~1e-6, not rounding noise
        ev = MeasureEvaluator(ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (1.0 + 1e-6, 0.5)]))
        assert not ev.degenerate


class TestResidueRoute:
    """The principal-part residue route where the circle sum of t^-s failed."""

    @staticmethod
    def double_pole_oracle(t):
        # H(t) = 2 G^{2,0}_{2,2}(t^2 | ; 1,1 / 1/2,3/2 ;), (2/pi) t below 1e-12
        if t <= 1e-12:
            return 2.0 * t / math.pi
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            return float(2 * mpmath.meijerg([[], [1, 1]], [[0.5, 1.5], []], mpmath.mpf(t) ** 2))

    def test_auto_fresh_batch_with_tiny_t(self):
        # the residue table for t_max = 0.23 once ended before the stop rule
        # was met, and AUTO fell back to another route for the whole batch
        ts = np.array([1e-12, 1e-6, 0.23])
        got = MeasureEvaluator(DOUBLE_POLE).density(ts)
        for t, value in zip(ts, got):
            want = self.double_pole_oracle(t)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), t

    def test_residue_route_at_small_table(self):
        ev = MeasureEvaluator(DOUBLE_POLE)
        got = float(ev.density(np.array([0.01]), HfunMethod.RESIDUE_SERIES)[0])
        assert got == pytest.approx(self.double_pole_oracle(0.01), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("t", [1e-15, 1e-20])
    def test_residue_route_exact_at_tiny_t(self, t):
        ev = get_evaluator(DOUBLE_POLE)
        got = float(ev.density(np.array([t]), HfunMethod.RESIDUE_SERIES)[0])
        assert got == pytest.approx(2.0 * t / math.pi, rel=1e-12, abs=0.0)

    def test_auto_cut_drops_to_table_reach(self):
        # four clusters per unit of sigma spend the node budget at sigma ~ 62,
        # short of what 0.79 rho needs: the residue route gives up there,
        # and AUTO, which reads only its own cut of the table, still matches
        # the endpoint series
        params = ParameterSet([(0.3, 2.0), (0.9, 2.0)], [(1.0, 2.0), (0.7, 2.0)])
        ev = MeasureEvaluator(params)
        ts = np.array([0.05, 0.3, 0.5, 0.79]) * ev.rho
        with pytest.raises(NonConvergentError):
            ev.density(ts, HfunMethod.RESIDUE_SERIES)
        assert ev._pole_gen_exhausted
        got = ev.density(ts)
        end = ev.density(ts, HfunMethod.ENDPOINT_SERIES)
        assert np.max(np.abs(got - end) / np.abs(end)) < 1e-12

    @pytest.mark.parametrize("method", list(HfunMethod))
    def test_empty_input_gives_empty_output(self, method):
        got = get_evaluator(DOUBLE_POLE).density(np.array([]), method)
        assert got.shape == (0,)


class TestKnownDensities:
    @pytest.mark.parametrize("t", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_beta_density_oracle(self, t):
        ev = get_evaluator(BETA_LIKE)
        got = float(ev.density(np.array([t]))[0])
        assert got == pytest.approx(beta_density(t), rel=1e-10)

    def test_double_pole_small_t_slope(self):
        # H(t) ~ (2/pi) t as t -> 0 for the double-pole set
        ev = get_evaluator(DOUBLE_POLE)
        ts = np.array([1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
        hs = ev.density(ts)
        assert np.max(np.abs(hs / ts - 2.0 / math.pi)) < 0.02

    @pytest.mark.parametrize("t", [0.7, 0.8])
    def test_twin_quarter_meijer_g(self, t):
        # H(t) = 2/sqrt(pi) G^{2,0}_{2,2}((t/2)^2 | ; 1/4,1/4 / 1/2,1), rho = 2;
        # AUTO there once took residues that cancel to 6e-11
        ev = get_evaluator(TWIN_QUARTER)
        got = float(ev.density(np.array([t * ev.rho]))[0])
        want = meijer_g(t * t, [0.25, 0.25], [0.5, 1.0], 2.0 / math.sqrt(math.pi))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_log_log_slope_matches_gamma_abscissa(self):
        # the small-t exponent of H equals min(alpha_i / A_i)
        ev = get_evaluator(DOUBLE_POLE)
        ts = np.logspace(-4, -2, 9)
        hs = ev.density(ts)
        slope = np.polyfit(np.log(ts), np.log(hs), 1)[0]
        want = min(a / s for a, s in DOUBLE_POLE.upper)
        assert slope == pytest.approx(want, rel=0.05)


class TestMomentIdentity:
    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY])
    def test_integer_and_half_integer_orders(self, params):
        ks = [float(k) for k in range(9)] + [0.5, 1.5, 2.5]
        report = moment_identity_check(params, ks)
        assert report.max_rel_err < 1e-6
        assert report.ok()

    def test_beta_like_moments_exact(self):
        ev = get_evaluator(BETA_LIKE)
        for k in (0.0, 0.5, 1.0, 2.0, 3.5):
            want = gamma_ratio(BETA_LIKE, k)  # = gamma(0.7+k)/gamma(2.3+k)
            assert ev.moment(k) == pytest.approx(want, rel=1e-9)
            assert ev.atom_mellin(k) == 0.0  # mu > 0: no endpoint atom

    @pytest.mark.parametrize("lower", [1.5, 1.2])
    def test_singular_endpoint_moments(self, lower):
        # mu = lower - 1 in (0, 1): H ~ (1 - t)^(mu - 1) at rho = 1, whose
        # tail the rule reaches through the complement 1 - t
        ps = ParameterSet([(1.0, 1.0)], [(lower, 1.0)])
        ev = MeasureEvaluator(ps)
        for k in (0.5, 1.0, 2.0, 4.0):
            assert ev.moment(k) == pytest.approx(gamma_ratio(ps, k), rel=1e-11, abs=0.0), k

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7])
    def test_mu_above_two_moments(self, delta):
        # upper (0.5, 1/2) (1.7, 1/2) over lower (2.0, 1/2) (2.7, 1/2), mu = 2.5,
        # shifted by delta times the scale
        base = ParameterSet([(0.5, 0.5), (1.7, 0.5)], [(2.0, 0.5), (2.7, 0.5)])
        ps = shift_parameters(base, delta)
        ev = MeasureEvaluator(ps)
        for k in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            assert ev.moment(k) == pytest.approx(gamma_ratio(ps, k), rel=1e-13, abs=0.0), k

    def test_atom_mellin_twin_quarter(self):
        # m = 1 atom transform: eta rho^s (s + l1) with l1 = 1/8
        ev = get_evaluator(TWIN_QUARTER)
        c = derive_constants(TWIN_QUARTER)
        for s in (0.0, 1.0, 2.5):
            want = c.eta * c.rho**s * (s + 0.125)
            assert ev.atom_mellin(s) == pytest.approx(want, rel=1e-12)

    def test_collapse_set_is_pure_atom(self):
        ev = get_evaluator(EXP_COLLAPSE)
        assert ev.measure_integral(lambda t: 1.0 / t) == 0.0
        c = derive_constants(EXP_COLLAPSE)
        for k in (0.0, 1.0, 2.0):
            assert gamma_ratio(EXP_COLLAPSE, k) == pytest.approx(
                c.eta * c.rho**k, rel=1e-12
            )


class TestShiftLaw:
    @pytest.mark.parametrize("delta", [0.5, 1.0, -0.25])
    def test_density_picks_up_power(self, delta):
        base = get_evaluator(DOUBLE_POLE)
        shifted = get_evaluator(shift_parameters(DOUBLE_POLE, delta))
        ts = np.array([0.1, 0.4, 0.7, 0.9])
        got = shifted.density(ts)
        want = ts**delta * base.density(ts)
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-10


class TestNonnegScan:
    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, BETA_LIKE])
    def test_catalog_densities_nonnegative(self, params):
        report = hfun_nonneg_scan(params)
        assert report.nonneg
        assert report.min_value >= -report.tol_abs

    def test_default_scan_memoised(self, monkeypatch):
        first = hfun_nonneg_scan(DOUBLE_POLE)
        calls = _count_density_calls(monkeypatch, get_evaluator(DOUBLE_POLE))
        assert hfun_nonneg_scan(DOUBLE_POLE) is first
        assert calls == []

    def test_explicit_grid_bypasses_memo(self, monkeypatch):
        memo = hfun_nonneg_scan(DOUBLE_POLE)
        ev = get_evaluator(DOUBLE_POLE)
        calls = _count_density_calls(monkeypatch, ev)
        grid = np.linspace(ev.rho * 1e-3, ev.rho * (1 - 1e-3), 50)
        fresh = hfun_nonneg_scan(DOUBLE_POLE, grid)
        assert fresh is not memo and fresh == memo
        assert calls == [50]
        assert hfun_nonneg_scan(DOUBLE_POLE) is memo


def _count_density_calls(monkeypatch, ev):
    """Record the point count of every density call on ``ev`` from now on."""
    calls = []
    inner = ev.density

    def counting(t, method=None):
        calls.append(np.size(t))
        return inner(t, method)

    monkeypatch.setattr(ev, "density", counting)
    return calls


def _gk15_integral(ev, fn):
    """integral_0^rho fn H dt by adaptive GK15 on AUTO density, split at rho/2
    with t = rho u^2 on the left: an independent check of the cached rule."""
    rho = ev.rho

    def left(u):
        t = rho * u * u
        return fn(t) * ev.density(t) * 2.0 * rho * u

    def right(t):
        return fn(t) * ev.density(t)

    return integrate_adaptive(
        left, 0.0, math.sqrt(0.5), tol_abs=1e-15, tol_rel=1e-13
    ) + integrate_adaptive(right, rho / 2.0, rho, tol_abs=1e-15, tol_rel=1e-13)


def _kernels(rho):
    out = [(f"exp z={z}", lambda t, z=z: np.exp(z * t) / t) for z in (-400.0, -40.0, -5.0, 0.0, 5.0)]
    out += [
        (f"stieltjes sigma={sigma} x={x}", lambda t, s=sigma, z=x / rho: (1.0 + t * z) ** (-s) / t)
        for sigma, x in ((0.5, 0.3), (2.0, 0.9), (1.0, -0.9), (3.0, -0.5))
    ]
    out += [(f"moment k={k}", lambda t, k=k: t ** (k - 1.0)) for k in (0.0, 0.5, 1.0, 2.5, 8.0)]
    return out


class TestCachedRule:
    @pytest.mark.parametrize("params", [DOUBLE_POLE, TWIN_QUARTER])
    def test_agrees_with_adaptive_gk15(self, params):
        ev = get_evaluator(params)
        for name, fn in _kernels(ev.rho):
            want = _gk15_integral(ev, fn)
            assert ev.measure_integral(fn) == pytest.approx(want, rel=1e-10), name

    def test_density_alone_builds_no_rule(self):
        ev = MeasureEvaluator(DOUBLE_POLE)
        ev.density(np.linspace(0.01, 0.99, 100))
        assert ev._rule == []

    def test_second_integral_evaluates_no_density(self, monkeypatch):
        ev = MeasureEvaluator(DOUBLE_POLE)
        ev.measure_integral(lambda t: np.exp(-40.0 * t) / t)
        levels = len(ev._rule)
        calls = _count_density_calls(monkeypatch, ev)
        ev.moment(1.5)
        assert calls == []
        assert len(ev._rule) == levels

    def test_unreachable_tolerance_raises(self):
        ev = MeasureEvaluator(DOUBLE_POLE, HfunEvalConfig(tol=1e-30))
        with pytest.raises(QuadratureFailure):
            ev.moment(1.0)

    def test_kernel_jump_inside_support_raises(self):
        # a kernel that jumps inside the support converges only to first
        # order in h, so even the finest level misses tol
        ev = MeasureEvaluator(DOUBLE_POLE)
        with pytest.raises(QuadratureFailure):
            ev.measure_integral(lambda t: (t < 0.3).astype(float))

    def test_singular_kernel_near_zero(self):
        # t^-1.5 H ~ t^-0.5 near 0 weighs H down to the rule's smallest node;
        # moment(-0.5) = gamma_ratio(-0.5) - atom, with no pole of the ratio there
        ev = get_evaluator(DOUBLE_POLE)
        want = gamma_ratio(DOUBLE_POLE, -0.5) - ev.atom_mellin(-0.5)
        assert ev.moment(-0.5) == pytest.approx(want, rel=1e-12)


class TestGuards:
    def test_unbalanced_set_rejected(self):
        with pytest.raises(ConstraintError):
            MeasureEvaluator(ParameterSet([(1.0, 1.0)], [(1.0, 2.0)]))

    def test_negative_non_integer_mu_rejected(self):
        # mu = -0.5 is neither a polynomial order nor a positive density case
        with pytest.raises(ConstraintError):
            MeasureEvaluator(ParameterSet([(1.5, 1.0)], [(1.0, 1.0)]))

    def test_density_outside_support(self):
        ev = get_evaluator(DOUBLE_POLE)
        with pytest.raises(OutsideDomainError):
            ev.density(np.array([1.5]))
        with pytest.raises(OutsideDomainError):
            ev.density(np.array([-0.1]))

    def test_pole_collision_detected(self):
        # two upper rows 5e-7 apart put their poles in one Newton group,
        # whose divided differences of t^-s do not cancel
        params = ParameterSet([(1.0, 1.0), (1.0 + 5e-7, 1.0)], [(1.5, 1.0), (1.5, 1.0)])
        ev = get_evaluator(params)
        for t in (1e-20, 1e-6, 0.05, 0.3, 0.5):
            got = float(ev.density(np.array([t]))[0])
            want = meijer_g(t, [1.5, 1.5], [1.0, 1.0 + 5e-7])
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), t

    @pytest.mark.parametrize("t", [1e-20, 1e-6, 0.05, 0.3, 0.5])
    def test_half_scale_pole_collision(self, t):
        # upper (0.5, 1/2) (0.5 + 3e-7, 1/2) over lower (1, 1/2) (1, 1/2):
        # H(t) = 2 G^{2,0}_{2,2}(t^2 | ; 1,1 / 1/2, 1/2 + 3e-7)
        params = ParameterSet([(0.5, 0.5), (0.5 + 3e-7, 0.5)], [(1.0, 0.5), (1.0, 0.5)])
        got = float(get_evaluator(params).density(np.array([t]))[0])
        want = meijer_g(t * t, [1.0, 1.0], [0.5, 0.5 + 3e-7], 2.0)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_residue_route_near_rho_raises_typed_error(self):
        # the table stops at the node budget rather than listing every pole
        # out to the sigma ~ 3e13 that (t/rho)^sigma < 1e-12 asks for here
        ev = MeasureEvaluator(DOUBLE_POLE)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([1.0 - 1e-12]), method=HfunMethod.RESIDUE_SERIES)

    def test_small_budget_gap_raises_typed_error(self):
        # 64 circle nodes end the table at sigma 2, so the residues reach
        # only ~1e-12 rho, and at 0.1 rho the endpoint series has not
        # converged either: AUTO and the rule raise rather than guess
        ev = MeasureEvaluator(TWIN_QUARTER, HfunEvalConfig(max_residue_terms=64))
        with pytest.raises(NonConvergentError):
            ev.density(np.array([0.1 * ev.rho]))
        with pytest.raises(NonConvergentError):
            ev.moment(1.0)

    def test_first_group_over_budget_raises_typed_error(self):
        # the first group's neighbour sits 0.3 away, so its circle needs 33
        # nodes; a 32-node budget must not read as an empty, degenerate table
        params = ParameterSet([(0.3, 2.0), (0.9, 2.0)], [(1.0, 2.0), (0.7, 2.0)])
        with pytest.raises(NonConvergentError):
            MeasureEvaluator(params, HfunEvalConfig(max_residue_terms=32))

    def test_config_validation(self):
        from foxwright.errors import ParameterError

        with pytest.raises(ParameterError):
            HfunEvalConfig(tol=0.0)
        with pytest.raises(ParameterError):
            HfunEvalConfig(max_residue_terms=8)


class TestEvaluatorCache:
    def test_same_params_same_object(self):
        assert get_evaluator(DOUBLE_POLE) is get_evaluator(DOUBLE_POLE)

    def test_cache_bounded_least_recently_used_first(self):
        keep = get_evaluator(DOUBLE_POLE)
        cap = hfun._EVALUATOR_CAP
        sets = [shift_parameters(DOUBLE_POLE, 0.01 * (i + 1)) for i in range(cap + 8)]
        oldest = get_evaluator(sets[0])
        for ps in sets[1:]:
            get_evaluator(ps)
            assert get_evaluator(DOUBLE_POLE) is keep
        assert len(hfun._EVALUATORS) == cap
        assert get_evaluator(sets[0]) is not oldest

    def test_custom_config_not_cached_into_default(self):
        custom = get_evaluator(DOUBLE_POLE, HfunEvalConfig(tol=1e-10))
        default = get_evaluator(DOUBLE_POLE)
        assert custom is not default
