"""The representing density: residue route, endpoint series, moments, atoms."""

import functools
import itertools
import math
import operator

import numpy as np
import pytest
from conftest import load_file

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
from foxwright import NAMED_SETS, hfun
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.errors import (
    ConstraintError,
    DomainError,
    NonConvergentError,
    OutsideDomainError,
    QuadratureFailure,
)
from foxwright.hfun import MeasureEvaluator
from foxwright.bounds import _atomic_mass
from foxwright.params import _INT_TOL, _q_sequence, _set_record, correction_coeffs
from foxwright.series import _atom_weights
from foxwright.special import _log_gamma_taylor, log_abs_gamma_signed

# an upper/lower pair one step apart has the classical beta density
# t^alpha (1-t)^(beta-alpha-1) / gamma(beta-alpha) as its measure
BETA_LIKE = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])
# mu = 3.5, rho = 1: its residue table meets the group cap short of t = 0.95
MU_3_5 = ParameterSet([(0.5, 1.0), (1.0, 1.0)], [(2.5, 1.0), (2.5, 1.0)])


# p = 3 sets with all scales 1: mu = 2.45, and mu = -1 (an endpoint atom)
P3_MU_245 = ParameterSet([(0.5, 1.0), (1.3, 1.0), (2.15, 1.0)], [(1.38, 1.0), (1.98, 1.0), (3.04, 1.0)])
P3_MU_MINUS_1 = ParameterSet([(0.7, 1.0), (1.25, 1.0), (2.05, 1.0)], [(0.15, 1.0), (0.95, 1.0), (1.9, 1.0)])

# p = 3 with mu = 0 and every pole alone: each of the table's 148 groups is one
# lone pole, whose row is its residue alone
LONE_POLES = ParameterSet([(0.4, 1.0), (1.15, 1.0), (1.9, 1.0)], [(0.5, 1.0), (0.85, 1.0), (2.1, 1.0)])

# two upper rows 5e-7 apart: every residue group holds two nearly coincident poles
CLUSTERED = ParameterSet([(1.0, 1.0), (1.0 + 5e-7, 1.0)], [(1.5, 1.0), (1.5, 1.0)])
# scales 1/2, poles 6e-7 apart: H(t) = 2 G^{2,0}_{2,2}(t^2 | ; 1,1 / 1/2, 1/2 + 3e-7)
HALF_SCALE = ParameterSet([(0.5, 0.5), (0.5 + 3e-7, 0.5)], [(1.0, 0.5), (1.0, 0.5)])
# three poles within 4e-4 share each group
TRIPLES = ParameterSet([(0.4, 1.0), (0.4 + 2e-4, 1.0), (0.4 + 4e-4, 1.0)],
                       [(1.1, 1.0), (1.3, 1.0), (1.7, 1.0)])
# scales 1/2 and 1: ladders of two spacings, pairs 1e-5 apart
MIXED_SCALES = ParameterSet([(0.3, 0.5), (0.6 + 1e-5, 1.0), (0.5, 1.0)],
                            [(0.9, 0.5), (1.2, 1.0), (1.4, 1.0)])
# scales 1/3 (rho = 1, spacing 3): the first two rows' poles 8e-8 apart, the
# third's 2.7e-3 spacings above them
NEAR_COLLIDING = ParameterSet(
    [(0.5196737956091553, 1 / 3), (0.5196738231098478, 1 / 3), (0.5223469213773375, 1 / 3)],
    [(1.775247492032172, 1 / 3), (1.5130015209905916, 1 / 3), (-1.0265544729264233, 1 / 3)])


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
            # squared exp-collapse: every pole is a double group that two
            # lower poles cancel
            ParameterSet([(1.0, 1.0), (1.0, 1.0)],
                         [(0.5, 0.5), (1.0, 0.5), (0.5, 0.5), (1.0, 0.5)]),
            # the squared Gauss triple: the lower poles sit on the double
            # upper ones only to within rounding of the scales 1/3
            ParameterSet([(1.0, 1.0), (1.0, 1.0)],
                         [(1 / 3, 1 / 3), (2 / 3, 1 / 3), (1.0, 1 / 3)] * 2),
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

    @pytest.mark.parametrize("method", list(HfunMethod))
    def test_grid_keeps_its_shape(self, method):
        # a (2, 2) grid equals the flat call reshaped, bit for bit; the
        # endpoint series on twin-quarter at 0.5-0.8 rho, where it converges
        params = TWIN_QUARTER if method is HfunMethod.ENDPOINT_SERIES else DOUBLE_POLE
        ev = get_evaluator(params)
        span = [0.5, 0.8] if method is HfunMethod.ENDPOINT_SERIES else [0.1, 0.4]
        grid = np.linspace(*span, 4).reshape(2, 2) * ev.rho
        got = ev.density(grid, method)
        assert got.shape == (2, 2)
        assert np.array_equal(got, ev.density(grid.ravel(), method).reshape(2, 2))
        assert ev.density(grid[0, 0], method).shape == (1,)

    @pytest.mark.parametrize("params,width", [(LONE_POLES, 1), (DOUBLE_POLE, 2),
                                              (NEAR_COLLIDING, 34)],
                             ids=["lone-poles", "double-pole", "near-colliding"])
    def test_grid_equals_its_points_across_chunks(self, params, width):
        # 300 t cross the residue sum's blocks at 128 and 256: each t of the
        # grid takes the same bits as its one-point call, on AUTO and on the
        # endpoint series at every t where it serves alone
        ev = get_evaluator(params)
        assert ev._res_coeffs.shape[1] == width
        grid = np.linspace(0.05, 0.95, 300) * ev.rho
        assert grid.size > 2 * hfun._RESIDUE_CHUNK
        points = np.concatenate([ev.density(t) for t in grid])
        assert ev.density(grid).tobytes() == points.tobytes()
        served, alone = [], []
        for t in grid:
            try:
                alone.append(ev.density(t, HfunMethod.ENDPOINT_SERIES))
            except NonConvergentError:
                continue
            served.append(t)
        assert served
        got = ev.density(np.array(served), HfunMethod.ENDPOINT_SERIES)
        assert got.tobytes() == np.concatenate(alone).tobytes()


class TestResidueVerdict:
    """RESIDUE_SERIES judges each t on its own: a grid raises exactly when
    one of its points raises alone, and otherwise returns each point's
    one-point value to tol, so a converged point's |H| never hides an
    unconverged one."""

    FRACTIONS = (0.05, 0.3, 0.5, 0.8, 0.9, 0.95, 0.97)

    @pytest.mark.parametrize("params", [BETA_LIKE, MU_3_5], ids=["beta-like", "mu-3.5"])
    def test_unconverged_point_raises_in_a_grid(self, params):
        ev = MeasureEvaluator(params)
        for grid in ([0.95], [0.3, 0.95]):
            with pytest.raises(NonConvergentError):
                ev.density(np.array(grid) * ev.rho, HfunMethod.RESIDUE_SERIES)

    @pytest.mark.parametrize("params", [BETA_LIKE, MU_3_5, DOUBLE_POLE, TWIN_QUARTER],
                             ids=["beta-like", "mu-3.5", "double-pole", "twin-quarter"])
    def test_grid_verdict_is_its_points(self, params):
        ev = MeasureEvaluator(params)
        alone = {}
        for f in self.FRACTIONS:
            try:
                alone[f] = float(ev.density(np.array([f * ev.rho]), HfunMethod.RESIDUE_SERIES)[0])
            except NonConvergentError:
                alone[f] = None
        grids = [g for n in (2, 3) for g in itertools.combinations(self.FRACTIONS, n)]
        for grid in grids:
            t = np.array(grid) * ev.rho
            if any(alone[f] is None for f in grid):
                with pytest.raises(NonConvergentError):
                    ev.density(t, HfunMethod.RESIDUE_SERIES)
                continue
            got = ev.density(t, HfunMethod.RESIDUE_SERIES)
            for f, value in zip(grid, got.tolist()):
                assert value == pytest.approx(alone[f], rel=hfun._TOL, abs=0.0), grid


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

    @pytest.mark.parametrize("t", [1e-6, 1e-3, 0.05, 0.3, 0.6])
    def test_near_colliding_ladders_share_a_group(self, t):
        # all three rows' poles form one group, whose residues do not
        # cancel; as two groups they missed by up to 8.9e-9 (at t = 0.3).
        # H(t) = 3 G^{3,0}_{3,3}(t^3 | ; lower shifts / upper shifts)
        ev = get_evaluator(NEAR_COLLIDING)
        assert ev._res_centres.size == 123
        got = float(ev.density(np.array([t * ev.rho]))[0])
        want = meijer_g((t * ev.rho) ** 3, [b for b, _ in NEAR_COLLIDING.lower],
                        [a for a, _ in NEAR_COLLIDING.upper], 3.0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_endpoint_route_near_zero_raises_typed_error(self):
        # the endpoint series in u = ln(rho/t) has not converged at 0.1 rho
        ev = get_evaluator(DOUBLE_POLE)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([0.1 * ev.rho]), method=HfunMethod.ENDPOINT_SERIES)

    def test_residue_route_near_rho_raises_typed_error(self):
        # the table stops at its group cap rather than listing every pole
        # out to the sigma ~ 3e13 that (t/rho)^sigma < 1e-12 asks for here
        ev = MeasureEvaluator(DOUBLE_POLE)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([1.0 - 1e-12]), method=HfunMethod.RESIDUE_SERIES)

    def test_small_budget_gap_raises_typed_error(self, monkeypatch):
        # two pole groups end the table at sigma 2, so the residues reach
        # only ~1e-12 rho, and at 0.1 rho the endpoint series has not
        # converged either: AUTO and the rule raise rather than guess
        monkeypatch.setattr(hfun, "_MAX_GROUPS", 2)
        ev = MeasureEvaluator(TWIN_QUARTER)
        with pytest.raises(NonConvergentError):
            ev.density(np.array([0.1 * ev.rho]))
        with pytest.raises(NonConvergentError):
            ev.moment(1.0)


def built_with_plan(monkeypatch, params):
    """A new evaluator of ``params`` and the plan its residue table was
    built from: the arrays (members, owners, size, centre, terms), one
    entry per group."""
    plans = []
    build = MeasureEvaluator._residue_rows

    def spy(self, *plan):
        plans.append(plan)
        return build(self, *plan)

    with monkeypatch.context() as patch:
        patch.setattr(MeasureEvaluator, "_residue_rows", spy)
        ev = MeasureEvaluator(params)
    return ev, plans[0]


def _density_cold_sets(seed, calls=7):
    """The sets of the benchmark's first ``calls`` density-cold calls for
    ``seed``, call i on class i mod 7, so the first seven take one set per
    class: ``perfbench/inputs.py``, which imports no foxwright, loaded by
    path."""
    inputs = load_file("perfbench/inputs.py")
    cold = inputs.density_cold(seed)
    bases = cold["bases"]
    return [ParameterSet(inputs.shifted_rows(bases[i % len(bases)]["upper"], delta),
                         inputs.shifted_rows(bases[i % len(bases)]["lower"], delta))
            for i, delta in enumerate(cold["deltas"][:calls])]


def mp_residue(params, centre):
    """Residue of the gamma ratio at the pole s = -centre of one upper
    factor, to 40 digits: (-1)^n / (n! A) at the exact pole -(a + n)/A of
    that factor's parameters, times gamma of the other upper factors and
    1/gamma of the lower ones there."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for i, (a, sc) in enumerate(params.upper):
            n = round(centre * sc - a)
            if n >= 0 and abs(a + n - sc * centre) < 1e-9:
                s = -(mp.mpf(a) + n) / sc
                value = (-1) ** n / (mp.factorial(n) * sc)
                value *= mp.fprod(mp.gamma(b + bs * s) for j, (b, bs) in enumerate(params.upper)
                                  if j != i)
                return value * mp.fprod(mp.rgamma(b + bs * s) for b, bs in params.lower)
    raise AssertionError(f"no upper factor has a pole at {-centre}")


def mp_group_sum(params, poles, owners, ts):
    """The residues of ratio(s) t^(-s) at a group's poles, summed, to 40
    digits at each t: the divided difference of G(s) = R(s) t^(-s) over the
    exact poles -(a + n)/A of the float rows, with the regular part R's
    factor (s - s_j) gamma(a + A s) of an upper row with its pole s_j in the
    group written gamma(1 + eps) / (A prod_(i=1..n) (eps - i)),
    eps = A (s - s_j); coincident poles take G's derivative."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        hits = {}
        for pole, row in zip(poles, owners):
            a, sc = params.upper[row]
            n = round(pole * sc - a)
            hits[row] = (n, -(mp.mpf(a) + n) / sc)

        def regular(s):
            value = mp.mpf(1)
            for row, (a, sc) in enumerate(params.upper):
                if row in hits:
                    n, pole = hits[row]
                    eps = sc * (s - pole)
                    value *= mp.gamma(1 + eps) / (sc * mp.fprod(eps - i for i in range(1, n + 1)))
                else:
                    value *= mp.gamma(a + sc * s)
            return value * mp.fprod(mp.rgamma(b + sc * s) for b, sc in params.lower)

        nodes = [pole for _, pole in hits.values()]
        sums = []
        for t in ts:
            def g(s):
                return regular(s) * mp.mpf(t) ** (-s)

            if max(nodes) == min(nodes):
                m = len(nodes)
                sums.append(mp.diff(g, nodes[0], m - 1) / mp.factorial(m - 1))
                continue
            table = [g(s) for s in nodes]
            for level in range(1, len(nodes)):
                table = [(table[k + 1] - table[k]) / (nodes[k + level] - nodes[k])
                         for k in range(len(table) - 1)]
            sums.append(table[0])
        return sums


class TestClosedFormResidue:
    """Every pole group's row is one divided difference of R(s) t^(-s) in
    closed form, R the group's regular part: a lone pole's row is its
    residue, a product of gamma values, and a larger group's comes from the
    Taylor series of R about its centre."""

    @staticmethod
    def singles(monkeypatch, params):
        """The evaluator and, per lone pole, (its table moment, the mpmath
        residue, whether it leads)."""
        ev, plan = built_with_plan(monkeypatch, params)
        rows = []
        for g, (size, centre) in enumerate(zip(*plan[2:4])):
            if size != 1:
                continue
            rows.append((ev._res_coeffs[g, 0], mp_residue(params, centre),
                         centre <= ev._first + hfun._TABLE_STEP))
        return ev, rows

    def test_against_mpmath(self, monkeypatch):
        # every lone pole of the catalog sets and of the seven density-cold
        # sets of seeds 4 and 5; the groups that lead (within _TABLE_STEP of
        # the first pole: they carry H and decide degeneracy) within 1e-13,
        # the rest, whose gamma arguments sit far out on the negative axis
        # where the rounding of the arguments alone moves them by about
        # 1e-13, within 1e-12
        errors = {True: [], False: []}
        for params in [TWIN_QUARTER, DOUBLE_POLE, *_density_cold_sets(4), *_density_cold_sets(5)]:
            ev, rows = self.singles(monkeypatch, params)
            assert rows and not ev.degenerate
            for got, want, leads in rows:
                assert want != 0 and got != 0
                err = float(abs((got - want) / want))
                assert err <= (1e-13 if leads else 1e-12), (params, float(want))
                errors[leads].append(err)
        assert len(errors[True]) >= 200
        # and in the median: the residue as the exp of the log-gamma sum,
        # rather than the product of the gamma values, reads 1.5e-15 and
        # 1.5e-14 here
        assert np.median(errors[True]) <= 1.25e-15
        assert np.median(errors[False]) <= 1.3e-14

    @pytest.mark.parametrize("params",
                             [DOUBLE_POLE, CLUSTERED, HALF_SCALE, TRIPLES, MIXED_SCALES,
                              NEAR_COLLIDING],
                             ids=["double-pole", "clustered", "half-scale", "triples",
                                  "mixed-scales", "near-colliding"])
    def test_group_sums_against_mpmath(self, monkeypatch, params):
        # every row of the table, sum_n b_n (-ln t)^n, against the group's
        # residue sum over t^centre at four t: within 1e-13 for the groups
        # within _TABLE_STEP of the first pole, 1e-12 beyond.  The sum is
        # divided rather than the row multiplied, since t^centre underflows
        # to a subnormal at 1e-6 rho on near-colliding's far groups
        mp = pytest.importorskip("mpmath")
        ev, (members, owners, size, centre, _) = built_with_plan(monkeypatch, params)
        assert np.any(size >= 2)
        ts = np.array([1e-6, 0.1, 0.5, 0.9]) * ev.rho
        log_t = np.log(ts)
        for g in range(centre.size):
            row = ev._res_coeffs[g]
            got = np.polyval(row[::-1], -log_t)
            sums = mp_group_sum(params, members[g, :size[g]], owners[g, :size[g]], ts)
            with mp.workdps(40):
                want = [w / mp.mpf(t) ** float(centre[g]) for w, t in zip(sums, ts)]
            bound = 1e-13 if centre[g] <= ev._first + hfun._TABLE_STEP else 1e-12
            for t, x, w in zip(ts, got, want):
                assert float(abs((x - w) / w)) <= bound, (centre[g], t)

    def test_no_partial_product_underflows(self, monkeypatch):
        # near sigma = 76 the gamma values of this density-cold set (seed 10)
        # reach 1e-109 and 1/74! is 3e-108: multiplied in turn they passed
        # through 4e-322, below the normal range, and the residues there lost
        # up to 4e-3 relative
        params = ParameterSet([(1.384272551, 1.0), (2.150344551, 1.0), (2.849804551, 1.0)],
                              [(1.511895551, 1.0), (1.8387615510000002, 1.0), (3.033764551, 1.0)])
        ev, rows = self.singles(monkeypatch, params)
        assert len(rows) >= 200 and ev._res_centres[-1] > 76
        for got, want, _ in rows:
            assert float(abs((got - want) / want)) <= 1e-12

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, IDENTITY], ids=["exp-collapse", "identity"])
    def test_cancelled_pole_is_exactly_zero(self, monkeypatch, params):
        # a lower factor with a pole at the same s cancels the residue to 0,
        # not to rounding noise
        ev, rows = self.singles(monkeypatch, params)
        assert rows and ev.degenerate
        assert all(got == 0.0 and want == 0 for got, want, _ in rows)

    @pytest.mark.parametrize("gap", [2.0**-12, 2.0**-24], ids=["2^-12", "2^-24"])
    def test_nearby_lower_pole_leaves_a_finite_residue(self, monkeypatch, gap):
        # each lower pole sits gap from an upper one: between _INT_TOL and
        # the group gap, so every residue is finite, small and exact to
        # rounding (the dyadic shifts put every gamma argument on a double)
        params = ParameterSet([(0.5, 1.0)], [(0.5 + gap, 1.0)])
        ev, rows = self.singles(monkeypatch, params)
        assert rows and not ev.degenerate
        for got, want, _ in rows:
            assert want != 0 and float(abs((got - want) / want)) <= 1e-13

    def test_log_sum_past_the_double_range(self):
        # the 200th pole: 200! leaves the double range, so the residue comes
        # from the lgamma sum, finite and to about 1e-13
        params = ParameterSet([(0.5, 1.0)], [(0.75, 1.0)])
        centres, coeffs, _, _ = MeasureEvaluator(params)._build_table(210.0)
        [g] = np.flatnonzero(centres == 200.5)
        got = coeffs[g, 0]
        want = mp_residue(params, 200.5)
        assert math.isfinite(got) and float(abs((got - want) / want)) <= 1e-12

    def test_entire_ratio_of_order_forty(self):
        # the polynomial (s+1)...(s+40): every pole cancels, and far out no
        # gamma value overflows into a warning or a non-zero row
        params = ParameterSet([(41.0, 1.0)], [(1.0, 1.0)])
        ev = MeasureEvaluator(params)
        _, coeffs, _, _ = ev._build_table(250.0)
        assert ev.degenerate and not np.any(ev._res_coeffs) and not np.any(coeffs)


def loop_plan(ev, sigma):
    """The residue table's plan by the scalar loop the array plan replaced,
    each group's poles added in order: (poles, upper rows, centre) per
    group, the poles used and whether the table is exhausted."""
    groups = hfun._MAX_GROUPS
    upper = ev.params.upper
    cap = min((a + groups) / sc for a, sc in upper)
    exhausted = sigma > cap
    sigma = min(sigma, cap)
    spacing = min(1.0 / sc for _, sc in upper)
    limit = sigma + spacing
    poles = []
    for row, (a, sc) in enumerate(upper):
        n = 0
        while (a + n) / sc <= limit:
            poles.append(((a + n) / sc, row))
            n += 1
    members = []
    for sg, row in sorted(poles):
        if members and sg - members[-1][-1][0] <= hfun._GROUP_GAP * spacing:
            members[-1].append((sg, row))
        else:
            members.append([(sg, row)])
    plan, used = [], 0
    for group in members:
        # in order: since Python 3.12 the builtin sum() of floats is compensated
        centre = functools.reduce(operator.add, [sg for sg, _ in group]) / len(group)
        if centre > sigma:
            break
        if len(plan) == groups:
            exhausted = True
            break
        used += len(group)
        plan.append(([sg for sg, _ in group], [row for _, row in group], centre))
    return plan, used, exhausted


class TestArrayPlan:
    """The residue table is planned as array work; the scalar loop it
    replaced is the reference, to the bit."""

    @pytest.mark.parametrize("params", [
        DOUBLE_POLE, TWIN_QUARTER, P3_MU_245, P3_MU_MINUS_1, CLUSTERED, TRIPLES, MIXED_SCALES,
    ], ids=["double-pole", "twin-quarter", "p=3", "p=3 m=1", "clustered", "triples",
            "mixed-scales"])
    @pytest.mark.parametrize("groups,sigma", [(250, 10.0), (250, 300.0), (18, 40.0)],
                             ids=["small", "capped", "budget-cut"])
    def test_plan_equals_the_scalar_loop(self, monkeypatch, params, groups, sigma):
        ev = get_evaluator(params)
        monkeypatch.setattr(hfun, "_MAX_GROUPS", groups)
        plans = []
        build = MeasureEvaluator._residue_rows

        def spy(self, *plan):
            plans.append(plan)
            return build(self, *plan)

        monkeypatch.setattr(MeasureEvaluator, "_residue_rows", spy)
        centres, _, used, exhausted = ev._build_table(sigma)
        want, want_used, want_exhausted = loop_plan(ev, sigma)
        [(members, owners, size, centre, _)] = plans
        assert (used, exhausted) == (want_used, want_exhausted)
        assert isinstance(used, int) and type(exhausted) is bool
        assert [members[g, :size[g]].tolist() for g in range(size.size)] == [
            poles for poles, _, _ in want]
        assert [owners[g, :size[g]].tolist() for g in range(size.size)] == [
            rows for _, rows, _ in want]
        assert centres.tolist() == centre.tolist() == [c for *_, c in want]


def endpoint_two_arrays(ev, u):
    """``_endpoint`` with its value and sum |terms| in two Horner passes of
    allocating steps, each from zeros."""
    value = np.zeros_like(u)
    mass = np.zeros_like(u)
    for coef in ev._end_coef[::-1]:
        value = value * u + coef
        mass = mass * u + abs(coef)
    lead = u**ev._end_power
    n = ev._end_coef.size
    last = np.abs(ev._end_coef[-2:])
    tail = lead * u ** (n - 2) * (last[0] + last[1] * u)
    return lead * value, tail, lead * mass


def residues_zero_seeded(log_t, centres, coeffs):
    """``_residues`` with its Horner started from zeros, one allocating
    step per column."""
    value = np.zeros_like(log_t)
    tail = np.zeros_like(log_t)
    mass = np.zeros_like(log_t)
    for i in range(0, log_t.size, hfun._RESIDUE_CHUNK):
        lt = log_t[i : i + hfun._RESIDUE_CHUNK]
        series = np.zeros((lt.size, centres.size))
        for column in coeffs.T[::-1]:
            series = series * -lt[:, None] + column
        terms = np.exp(np.outer(lt, centres)) * series
        value[i : i + hfun._RESIDUE_CHUNK] = terms.sum(axis=1)
        tail[i : i + hfun._RESIDUE_CHUNK] = np.abs(terms[:, -2:]).sum(axis=1)
        mass[i : i + hfun._RESIDUE_CHUNK] = np.abs(terms).sum(axis=1)
    return value, tail, mass


def ell_generator(params, order):
    """``correction_coeffs`` with each l_r's products from a generator over n."""
    q = _q_sequence(params, order)
    ell = [1.0]
    for r in range(1, order + 1):
        ell.append(math.fsum(q[n - 1] * ell[r - n] for n in range(1, r + 1)) / r)
    return tuple(ell)


def regular_series_per_factor(ev, owners, centre, terms):
    """``_regular_series`` with r_0 taken one numpy pass per gamma factor,
    the head and the gamma arguments gathered factor by factor."""
    groups = centre.size
    lone = terms == 1
    args, steps, weights = [], [], []
    poly = np.zeros((groups, terms))
    poly[:, 0] = 1.0
    heads, powers = [], []
    head = np.ones(groups)
    for side, row in ((1.0, ev.params.upper), (-1.0, ev.params.lower)):
        for i, (a, sc) in enumerate(row):
            x = a - sc * centre
            small = x < 0.5
            n = np.where(small, np.rint(-x), 0.0)
            eps = x + n
            if side < 0:
                eps_0 = np.where(np.abs(eps) <= _INT_TOL * sc, 0.0, eps)
                head[small & (eps_0 == 0.0)] = 0.0
                heads.append(x)
                powers.append(np.full(groups, -1.0))
            else:
                pole = np.any(owners == i, axis=1)
                exact = pole & (eps == 0.0)
                head[pole] *= np.where(exact, (-1.0) ** n, eps)[pole] / sc
                heads.append(np.where(exact, n + 1.0, x))
                powers.append(np.where(exact, -1.0, 1.0))
            if lone:
                continue
            args += [np.where(small, 1.0 + eps, x), np.where(small, 1.0 - eps, 1.0),
                     np.where(small, n + 1.0 - eps, 1.0)]
            steps += [sc, -sc, -sc]
            weights += [np.full(groups, side), side * small, -side * small]
            poly[small & (n % 2 == 1)] *= -1.0
            if side < 0:
                poly[small, 1:] = eps_0[small, None] * poly[small, 1:] + sc * poly[small, :-1]
                poly[small, 0] *= eps_0[small]
                continue
            poly[pole] /= sc
            sel = small & ~pole
            for j in range(terms):
                if j:
                    poly[sel, j] -= sc * poly[sel, j - 1]
                poly[sel, j] /= eps[sel]
    heads, powers = np.array(heads), np.array(powers)
    heads[:, head == 0.0] = 1.0
    gammas = np.reshape([math.gamma(v) if v < 171.0 else math.inf
                         for v in heads.ravel().tolist()], heads.shape)
    magnitude = np.abs(gammas)
    outside = ~np.all((magnitude >= np.finfo(float).tiny) & (magnitude < math.inf), axis=0)
    gammas[:, outside] = 1.0
    mantissas, exponents = np.frexp(np.where(powers < 0, 1.0 / gammas, gammas))
    value = np.ldexp(np.prod(mantissas, axis=0), np.sum(exponents, axis=0))
    if np.any(outside):
        far = heads[:, outside]
        log_abs, signs = np.reshape([log_abs_gamma_signed(v) for v in far.ravel().tolist()],
                                    far.shape + (2,)).transpose(2, 0, 1)
        value[outside] = np.prod(signs, axis=0) * np.exp(np.sum(powers[:, outside] * log_abs,
                                                                axis=0))
    if lone:
        return (head * value)[:, None]
    taylor = _log_gamma_taylor(np.array(args), terms)
    logs = np.einsum("fg,fgk->gk", np.array(weights),
                     taylor * np.power.outer(np.array(steps), np.arange(terms))[:, None, :])
    series = np.zeros((groups, terms))
    series[:, 0] = 1.0
    for j in range(1, terms):
        series[:, j] = np.sum(np.arange(1, j + 1) * logs[:, 1 : j + 1] * series[:, j - 1 :: -1],
                              axis=1) / j
    product = np.zeros((groups, terms))
    for j in range(terms):
        product[:, j:] += poly[:, j : j + 1] * series[:, : terms - j]
    scale = np.exp(logs[:, 0])
    known = poly[:, 0] != 0.0
    scale[known] = head[known] * value[known] / poly[known, 0]
    return product * scale[:, None]


def residue_rows_hankel(ev, members, owners, size, centre, terms):
    """``_residue_rows`` on ``regular_series_per_factor``, every row a
    Hankel product, a lone pole's too."""
    coeffs = np.zeros((centre.size, 0))
    log_span = -math.log(hfun._DE_FLOOR) + abs(math.log(ev.rho))
    for m, n in sorted(set(zip(size.tolist(), terms.tolist()))):
        idx = np.flatnonzero((size == m) & (terms == n))
        offsets = centre[idx, None] - members[idx, :m]
        r = regular_series_per_factor(ev, owners[idx, :m], centre[idx], n)
        reach = float(np.max(np.abs(offsets))) * log_span
        extra, term = 0, reach
        while term > 1e-17:
            extra += 1
            term *= reach / (extra + 1)
        width = m + extra
        h = np.zeros((idx.size, n + width - 1))
        h[:, m - 1] = 1.0
        for k in range(m):
            for j in range(m, h.shape[1]):
                h[:, j] += offsets[:, k] * h[:, j - 1]
        rows = np.stack([np.sum(r * h[:, j : j + n], axis=1) for j in range(width)], axis=1)
        rows /= np.array([math.factorial(j) for j in range(width)], dtype=float)
        if width > coeffs.shape[1]:
            coeffs = np.pad(coeffs, ((0, 0), (0, width - coeffs.shape[1])))
        coeffs[idx, :width] = rows
    return coeffs


class TestReferenceForms:
    """The endpoint Horner, the residue Horner, the residue table and the
    l_r recurrence equal the forms above, to the bit, on the catalog sets,
    the lone-pole set, two clustered sets and the density-cold classes at
    three shifts each."""

    SETS = {**NAMED_SETS, "lone-poles": LONE_POLES, "clustered": CLUSTERED,
            "near-colliding": NEAR_COLLIDING,
            **{f"density-cold-{i}": ps for i, ps in enumerate(_density_cold_sets(4, calls=21))}}

    @staticmethod
    def same(got, want):
        return len(got) == len(want) and all(
            np.asarray(g).tobytes() == np.asarray(w).tobytes() for g, w in zip(got, want))

    @pytest.mark.parametrize("params", SETS.values(), ids=SETS.keys())
    def test_each_form_equals_its_reference(self, params):
        ev = MeasureEvaluator(params)
        # 400 t over [1e-3 rho, (1 - 1e-6) rho], more than three residue blocks
        t = ev.rho * np.concatenate([np.geomspace(1e-3, 0.5, 200),
                                     1.0 - np.geomspace(0.5, 1e-6, 200)])
        u = np.log1p((ev.rho - t) / t)
        assert self.same(ev._endpoint(u), endpoint_two_arrays(ev, u))
        log_t = np.log(t)
        table = (ev._res_centres, ev._res_coeffs)
        assert self.same(ev._residues(log_t, *table), residues_zero_seeded(log_t, *table))
        empty = (np.empty(0), np.zeros((0, 0)))
        assert self.same(ev._residues(log_t, *empty), residues_zero_seeded(log_t, *empty))
        assert self.same(correction_coeffs(params, 40), ell_generator(params, 40))

    @pytest.mark.parametrize("params", SETS.values(), ids=SETS.keys())
    def test_residue_table_equals_its_reference(self, params, monkeypatch):
        ev = MeasureEvaluator(params)
        monkeypatch.setattr(MeasureEvaluator, "_residue_rows", residue_rows_hankel)
        ref = MeasureEvaluator(params)
        assert self.same((ev._res_centres, ev._res_coeffs, ev._res_nodes_used),
                         (ref._res_centres, ref._res_coeffs, ref._res_nodes_used))

    @pytest.mark.parametrize("table", ["negative-zero", "empty", "near-colliding"])
    def test_residue_sum_edge_tables(self, table):
        ev = get_evaluator(NEAR_COLLIDING)
        tables = {"negative-zero": (np.array([0.5, 1.5, 2.5]), np.full((3, 1), -0.0)),
                  "empty": (np.empty(0), np.zeros((0, 0))),
                  "near-colliding": (ev._res_centres, ev._res_coeffs)}
        centres, coeffs = tables[table]
        # 400 t below 1 (so -ln t > 0), four blocks of the residue sum
        log_t = np.log(np.geomspace(1e-3, 0.99, 400))
        assert log_t.size > 3 * hfun._RESIDUE_CHUNK
        got = ev._residues(log_t, centres, coeffs)
        assert self.same(got, residues_zero_seeded(log_t, centres, coeffs))
        if table == "near-colliding":
            assert coeffs.shape[1] == 34
        else:
            # a -0.0 coefficient gives the +0.0 of a first step from zeros
            assert not np.any(np.signbit(got[0])) and not np.any(got[0])

    def test_lone_poles_take_no_taylor_row(self, monkeypatch):
        # every group of the lone-pole set is one pole, whose row is its
        # residue alone; double-pole's groups of two take the Taylor rows
        def refuse(*args):
            raise AssertionError("a Taylor row was taken")

        monkeypatch.setattr(hfun, "_log_gamma_taylor", refuse)
        assert MeasureEvaluator(LONE_POLES)._res_coeffs.shape == (148, 1)
        with pytest.raises(AssertionError, match="Taylor row"):
            MeasureEvaluator(DOUBLE_POLE)


class TestEvaluatorCache:
    def test_same_params_same_object(self):
        assert get_evaluator(DOUBLE_POLE) is get_evaluator(DOUBLE_POLE)

    def test_cache_bounded_least_recently_used_first(self):
        # one record per set, the sets used last kept: double-pole, touched
        # between 40 new sets, keeps every field, and the first new set loses
        # its evaluator and constants together
        fields = (get_evaluator, derive_constants, _atom_weights, _atomic_mass, hfun_nonneg_scan)
        keep = [field(DOUBLE_POLE) for field in fields]
        sets = [shift_parameters(DOUBLE_POLE, 0.01 * (i + 1)) for i in range(40)]
        oldest = get_evaluator(sets[0]), derive_constants(sets[0])
        for ps in sets[1:]:
            get_evaluator(ps)
            assert all(field(DOUBLE_POLE) is kept for field, kept in zip(fields, keep))
        info = _set_record.cache_info()
        assert info.currsize == info.maxsize == 32
        assert get_evaluator(sets[0]) is not oldest[0]
        assert derive_constants(sets[0]) is not oldest[1]
        assert derive_constants(sets[0]) == oldest[1]

    def test_equal_sets_share_one_record(self):
        # a set read from JSON is a new object equal to the catalog set
        loaded = ParameterSet.from_json(DOUBLE_POLE.to_json())
        assert loaded is not DOUBLE_POLE and loaded == DOUBLE_POLE
        key = DOUBLE_POLE.hash_key()
        assert get_evaluator(loaded) is get_evaluator(DOUBLE_POLE)
        assert loaded.hash_key() is key
