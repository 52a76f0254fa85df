"""The representing density: residue route, endpoint series, moments, atoms."""

import functools
import math
import operator

import numpy as np
import pytest

from foxwright import (
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
    DomainError,
    NonConvergentError,
    OutsideDomainError,
    QuadratureFailure,
)
from foxwright.hfun import MeasureEvaluator

# an upper/lower pair one step apart has the classical beta density
# t^alpha (1-t)^(beta-alpha-1) / gamma(beta-alpha) as its measure
BETA_LIKE = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])


# p = 3 sets with all scales 1: mu = 2.45, and mu = -1 (an endpoint atom)
P3_MU_245 = ParameterSet([(0.5, 1.0), (1.3, 1.0), (2.15, 1.0)], [(1.38, 1.0), (1.98, 1.0), (3.04, 1.0)])
P3_MU_MINUS_1 = ParameterSet([(0.7, 1.0), (1.25, 1.0), (2.05, 1.0)], [(0.15, 1.0), (0.95, 1.0), (1.9, 1.0)])

# two upper rows 5e-7 apart: every residue group holds two nearly coincident poles
CLUSTERED = ParameterSet([(1.0, 1.0), (1.0 + 5e-7, 1.0)], [(1.5, 1.0), (1.5, 1.0)])


def beta_density(t, alpha=0.7, beta=2.3):
    return t**alpha * (1.0 - t) ** (beta - alpha - 1.0) / math.gamma(beta - alpha)


def meijer_g(t, a, b, scale=1.0):
    """scale * G^{p,0}_{p,p}(t | ; a / b ;) to 40 digits, as a float."""
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
        # short of what 0.79 rho needs: the residue route gives up there on
        # a table of its own, and AUTO, which reads the evaluator's table,
        # still matches the endpoint series
        params = ParameterSet([(0.3, 2.0), (0.9, 2.0)], [(1.0, 2.0), (0.7, 2.0)])
        ev = MeasureEvaluator(params)
        centres, coeffs = ev._res_centres, ev._res_coeffs
        ts = np.array([0.05, 0.3, 0.5, 0.79]) * ev.rho
        with pytest.raises(NonConvergentError):
            ev.density(ts, HfunMethod.RESIDUE_SERIES)
        assert ev._res_centres is centres and ev._res_coeffs is coeffs
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

    @pytest.mark.parametrize("params", [P3_MU_245, P3_MU_MINUS_1], ids=["mu=2.45", "mu=-1"])
    @pytest.mark.parametrize("t", [0.3, 0.5, 0.7])
    def test_p3_meijer_g(self, params, t):
        # scale 1, rho = 1: H(t) = G^{3,0}_{3,3}(t | ; b / a ;), the shape of
        # the benchmark's slowest cold-density class; mu = -1 adds atoms at
        # rho, which leave H on (0, rho) as it is
        got = float(get_evaluator(params).density(np.array([t]))[0])
        want = meijer_g(t, [b for b, _ in params.lower], [a for a, _ in params.upper])
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
        records = moment_identity_check(params, ks)
        assert [r.z for r in records] == ks
        assert max(r.rel_err for r in records) < 1e-6
        assert all(r.ok() for r in records)

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE])
    def test_one_pass_equals_one_moment_at_a_time(self, params):
        # every order in one pass over the rule, each record as the order
        # alone gives it; an array of orders and an empty list work too
        ks = np.array([3.0, 0.5, -0.5, 7.0, 1.0])
        records = moment_identity_check(params, ks)
        assert records == tuple(moment_identity_check(params, [k])[0] for k in ks.tolist())
        assert moment_identity_check(params, []) == ()

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

    def test_atom_mellin_past_the_double_range_raises(self):
        # rho^s at rho = 2, s = 1e10: a float power raised an OverflowError
        with pytest.raises(DomainError, match="overflows a double"):
            get_evaluator(EXP_COLLAPSE).atom_mellin(1e10)

    def test_atom_mellin_falling_factorial_past_the_double_range_raises(self):
        # m = 2 at rho = 1: rho^s is 1, while (s)_2 = s (s - 1) overflows to inf
        ps = ParameterSet([(2.5, 1.0), (1.5, 1.0)], [(1.0, 1.0), (1.0, 1.0)])
        assert derive_constants(ps).m_order == 2
        with pytest.raises(DomainError, match="overflows a double"):
            get_evaluator(ps).atom_mellin(1e200)

    def test_atom_mellin_without_atoms_forms_no_power(self):
        # mu > 0: no atoms, so rho^s is never formed, even where it overflows
        assert get_evaluator(BETA_LIKE).atom_mellin(1e10) == 0.0

    def test_second_order_atoms(self):
        # m = 2: the atoms' transform reads (s)_2 rho^s as well as s rho^s
        ps = ParameterSet([(1.0, 1.0)], [(0.25, 0.5), (-0.75, 0.5)])
        assert derive_constants(ps).m_order == 2
        records = moment_identity_check(ps, [float(k) for k in range(9)])
        assert all(r.ok() for r in records)
        assert max(r.rel_err for r in records) < 1e-12

    @pytest.mark.parametrize("s", [-100.0, -400.0, -1e10])
    def test_divergent_moment_raises_without_a_warning(self, s):
        # t^(s-1) overflows on the nodes near 0; numpy's overflow warning
        # is an error under the test configuration
        with pytest.raises(QuadratureFailure):
            get_evaluator(DOUBLE_POLE).moment(s)

    def test_collapse_set_is_pure_atom(self):
        ev = get_evaluator(EXP_COLLAPSE)
        assert ev.measure_integral(lambda t: 1.0 / t) == (0.0, 0.0)
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
        record = hfun_nonneg_scan(params)
        assert record.ok() and record.relation == ">="
        assert record.lhs >= record.rhs  # the minimum against -1e-9 max |H|

    def test_default_scan_memoised(self, monkeypatch):
        first = hfun_nonneg_scan(DOUBLE_POLE)
        calls = _count_density_calls(monkeypatch, get_evaluator(DOUBLE_POLE))
        assert hfun_nonneg_scan(DOUBLE_POLE) is first
        assert calls == []


def _count_density_calls(monkeypatch, ev):
    """Record the point count of every density call on ``ev`` from now on."""
    calls = []
    inner = ev.density

    def counting(t, method=None):
        calls.append(np.size(t))
        return inner(t, method)

    monkeypatch.setattr(ev, "density", counting)
    return calls


def _mpmath_integral(ev, fn):
    """integral_0^rho fn H dt by mpmath.quad on the AUTO density over
    [0, rho/2, rho], one float node at a time: an independent check of the
    cached rule.  Nodes that round onto 0 or rho carry 0."""
    mpmath = pytest.importorskip("mpmath")
    rho = ev.rho

    def integrand(t):
        t = np.array([float(t)])
        if not 0.0 < t[0] < rho:
            return 0.0
        return float(fn(t)[0] * ev.density(t)[0])

    return float(mpmath.quad(integrand, [0.0, rho / 2.0, rho]))


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
    def test_agrees_with_mpmath_quad(self, params):
        ev = get_evaluator(params)
        for name, fn in _kernels(ev.rho):
            want = _mpmath_integral(ev, fn)
            assert ev.measure_integral(fn)[0] == pytest.approx(want, rel=1e-12), name

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

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY])
    def test_rows_match_scalar_calls(self, params):
        # a (k, n) integrand refines until every row meets tol: the level
        # the slowest row needs, and each row keeps the level at which it
        # met tol itself, so it equals its scalar call bit for bit
        ws = np.array([-40.0, -8.0, -1.0, 0.0, 0.5, 2.0, 20.0])
        scalar, levels = [], []
        for w in ws:
            ev = MeasureEvaluator(params)
            scalar.append(ev.measure_integral(lambda t: np.exp(w * t) / t))
            levels.append(len(ev._rule))
        ev = MeasureEvaluator(params)
        total, err = ev.measure_integral(lambda t: np.exp(np.multiply.outer(ws, t)) / t)
        assert total.shape == err.shape == ws.shape
        assert len(ev._rule) == max(levels)
        assert list(zip(total.tolist(), err.tolist())) == scalar

    def test_a_row_past_the_double_range_fails_without_a_warning(self):
        # the second row overflows on the rule's nodes; the test
        # configuration turns any numpy warning into an error
        ev = get_evaluator(DOUBLE_POLE)
        with pytest.raises(QuadratureFailure):
            ev.measure_integral(lambda t: np.exp(np.multiply.outer([1.0, 800.0], t)) / t)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(hfun, "_TOL", 1e-30)
        ev = MeasureEvaluator(DOUBLE_POLE)
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

    def test_density_rejects_nan(self):
        # NaN fails every comparison, so it must not slip past the domain check
        ev = get_evaluator(DOUBLE_POLE)
        with pytest.raises(OutsideDomainError):
            ev.density(np.array([0.1, math.nan, 0.5]))
        with pytest.raises(OutsideDomainError):
            ev.density(math.nan, method=HfunMethod.ENDPOINT_SERIES)

    def test_pole_collision_detected(self):
        # two upper rows 5e-7 apart put their poles in one Newton group,
        # whose divided differences of t^-s do not cancel
        ev = get_evaluator(CLUSTERED)
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

    def test_endpoint_route_near_zero_raises_typed_error(self):
        # the endpoint series in u = ln(rho/t) has not converged at 0.1 rho
        ev = get_evaluator(DOUBLE_POLE)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([0.1 * ev.rho]), method=HfunMethod.ENDPOINT_SERIES)

    def test_residue_route_near_rho_raises_typed_error(self):
        # the table stops at the node budget rather than listing every pole
        # out to the sigma ~ 3e13 that (t/rho)^sigma < 1e-12 asks for here
        ev = MeasureEvaluator(DOUBLE_POLE)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([1.0 - 1e-12]), method=HfunMethod.RESIDUE_SERIES)

    def test_small_budget_gap_raises_typed_error(self, monkeypatch):
        # 64 circle nodes end the table at sigma 2, so the residues reach
        # only ~1e-12 rho, and at 0.1 rho the endpoint series has not
        # converged either: AUTO and the rule raise rather than guess
        monkeypatch.setattr(hfun, "_NODE_BUDGET", 64)
        ev = MeasureEvaluator(TWIN_QUARTER)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([0.1 * ev.rho]))
        with pytest.raises(NonConvergentError):
            ev.moment(1.0)

    def test_first_group_over_budget_raises_typed_error(self, monkeypatch):
        # the first group's neighbour sits 0.3 away, so its circle needs 33
        # nodes; a 32-node budget must not read as an empty, degenerate table
        params = ParameterSet([(0.3, 2.0), (0.9, 2.0)], [(1.0, 2.0), (0.7, 2.0)])
        monkeypatch.setattr(hfun, "_NODE_BUDGET", 32)
        with pytest.raises(NonConvergentError):
            MeasureEvaluator(params)


def built_with_plan(monkeypatch, params):
    """A new evaluator of ``params`` and the circle plan its residue table
    was built from: the arrays (members, size, centre, radius, nodes), one
    entry per group."""
    plans = []
    build = MeasureEvaluator._circle_moments

    def spy(self, *plan):
        plans.append(plan)
        return build(self, *plan)

    with monkeypatch.context() as patch:
        patch.setattr(MeasureEvaluator, "_circle_moments", spy)
        ev = MeasureEvaluator(params)
    return ev, plans[0]


class TestKernelWork:
    @pytest.mark.parametrize("params", [DOUBLE_POLE, P3_MU_245], ids=["double-pole", "p=3"])
    def test_kernel_elements_are_circle_nodes(self, monkeypatch, params):
        # every complex log-gamma the build asks for is one circle node with
        # theta in (0, pi] of one gamma factor, so the benchmark's element
        # count is kernel work; _res_nodes_used still counts whole circles
        seen = []
        kernel = hfun.log_gamma_complex_vec

        def counting(z):
            seen.append(np.size(z))
            return kernel(z)

        monkeypatch.setattr(hfun, "log_gamma_complex_vec", counting)
        ev, plan = built_with_plan(monkeypatch, params)
        ev.density(np.linspace(0.25, 0.7, 20) * ev.rho)
        pq = len(params.upper) + len(params.lower)
        nodes = plan[-1]
        assert ev._res_nodes_used == np.sum(nodes)
        assert seen and sum(seen) == np.sum((nodes + 1) // 2) * pq


class TestConjugateMirror:
    """The rows are real, so ratio(conj s) = conj ratio(s): each residue
    circle evaluates its nodes with theta in (0, pi] and takes the others
    as their conjugates."""

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY,
                                        P3_MU_245, CLUSTERED],
                             ids=["exp-collapse", "twin-quarter", "double-pole", "identity",
                                  "p=3", "clustered"])
    def test_moments_match_full_circle(self, monkeypatch, params):
        # each group's Newton moments against a midpoint rule over every
        # node of its circle, at its planned node count and one more, so
        # that odd and even counts (odd ones have a node at theta = pi that
        # is its own mirror) are both met; the scale is the largest moment,
        # or for a degenerate set, whose moments are rounding noise, the
        # circle's largest |ratio| * radius
        ev, plan = built_with_plan(monkeypatch, params)
        moments = []
        to_power = hfun._newton_to_power

        def spy(c, nodes, extra):
            moments.append(c[0])
            return to_power(c, nodes, extra)

        monkeypatch.setattr(hfun, "_newton_to_power", spy)
        for members, size, centre, radius, nodes in zip(*plan):
            poles = members[:size]
            for n in (nodes, nodes + 1):
                ev._circle_moments(members[None], np.array([size]), np.array([centre]),
                                   np.array([radius]), np.array([n]))
                theta = 2.0 * math.pi * (np.arange(n) + 0.5) / n
                d = radius * np.exp(1j * theta)
                log_ratio = ev._log_ratio(d - centre)
                w = np.exp(log_ratio + math.log(radius / n) + 1j * theta)
                want, basis = [], np.ones_like(d)
                for pole in poles:
                    want.append(np.sum(w * basis).real)
                    basis = basis * (d - (centre - pole))
                want = np.array(want)
                peak = math.exp(np.max(log_ratio.real)) * radius
                scale = peak if ev.degenerate else np.max(np.abs(want))
                assert np.max(np.abs(moments.pop() - want)) <= 1e-14 * scale, (centre, n)


def loop_plan(ev, sigma):
    """The residue table's plan by the scalar loop the array plan replaced,
    each group's poles added in order: (poles, centre, radius, nodes) per
    group, the circle nodes used and whether the table is exhausted."""
    budget = hfun._NODE_BUDGET
    upper = ev.params.upper
    cap = min((a + budget // hfun._CIRCLE_NODES) / sc for a, sc in upper)
    exhausted = sigma > cap
    sigma = min(sigma, cap)
    spacing = min(1.0 / sc for _, sc in upper)
    limit = sigma + spacing
    poles = []
    for a, sc in upper:
        n = 0
        while (a + n) / sc <= limit:
            poles.append((a + n) / sc)
            n += 1
    members = []
    for sg in sorted(poles):
        if members and sg - members[-1][-1] <= hfun._GROUP_GAP * spacing:
            members[-1].append(sg)
        else:
            members.append([sg])
    plan, used = [], 0
    for i, group in enumerate(members):
        # in order: since Python 3.12 the builtin sum() of floats is compensated
        centre = functools.reduce(operator.add, group) / len(group)
        if centre > sigma:
            break
        half = max(abs(sg - centre) for sg in group)
        left = centre - members[i - 1][-1] if i else math.inf
        right = members[i + 1][0] - centre if i + 1 < len(members) else limit - centre
        near = min(left, right)
        radius = min(0.25, max(0.3 * near, math.sqrt(half * near)))
        rate = max(half / radius, radius / near)
        nodes = max(hfun._CIRCLE_NODES, math.ceil(math.log(1e-17) / math.log(rate)))
        if used + nodes > budget:
            exhausted = True
            break
        used += nodes
        plan.append((group, centre, radius, nodes))
    return plan, used, exhausted


class TestArrayPlan:
    """The residue table is planned as array work; the scalar loop it
    replaced is the reference, to the bit."""

    @pytest.mark.parametrize("params", [
        DOUBLE_POLE, TWIN_QUARTER, P3_MU_245, P3_MU_MINUS_1, CLUSTERED,
        # three poles within 4e-4 share each group
        ParameterSet([(0.4, 1.0), (0.4 + 2e-4, 1.0), (0.4 + 4e-4, 1.0)],
                     [(1.1, 1.0), (1.3, 1.0), (1.7, 1.0)]),
        # scales 1/2 and 1: ladders of two spacings, pairs 1e-5 apart
        ParameterSet([(0.3, 0.5), (0.6 + 1e-5, 1.0), (0.5, 1.0)],
                     [(0.9, 0.5), (1.2, 1.0), (1.4, 1.0)]),
    ], ids=["double-pole", "twin-quarter", "p=3", "p=3 m=1", "clustered", "triples",
            "mixed-scales"])
    @pytest.mark.parametrize("budget,sigma", [(8000, 10.0), (8000, 300.0), (600, 40.0)],
                             ids=["small", "capped", "budget-cut"])
    def test_plan_equals_the_scalar_loop(self, monkeypatch, params, budget, sigma):
        ev = get_evaluator(params)
        monkeypatch.setattr(hfun, "_NODE_BUDGET", budget)
        plans = []
        build = MeasureEvaluator._circle_moments

        def spy(self, *plan):
            plans.append(plan)
            return build(self, *plan)

        monkeypatch.setattr(MeasureEvaluator, "_circle_moments", spy)
        centres, _, _, used, exhausted = ev._build_table(sigma)
        want, want_used, want_exhausted = loop_plan(ev, sigma)
        [(members, size, centre, radius, nodes)] = plans
        assert (used, exhausted) == (want_used, want_exhausted)
        assert isinstance(used, int) and type(exhausted) is bool
        assert [members[g, :size[g]].tolist() for g in range(size.size)] == [
            group for group, *_ in want]
        assert centres.tolist() == centre.tolist() == [c for _, c, _, _ in want]
        assert radius.tolist() == [r for _, _, r, _ in want]
        assert nodes.tolist() == [n for *_, n in want]


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
