"""Direct series summation, and the classical functions as parameter rows.

pFq(a; b; z) is the unit-scale row series times prod gamma(b)/prod gamma(a),
the Mittag-Leffler function E_{alpha,beta} has rows [(1,1)] / [(beta,alpha)]
and the Wright function rows [] / [(beta,alpha)]."""

import cmath
import math

import numpy as np
import pytest
from conftest import load_file

from foxwright import series
from foxwright import (
    ParameterSet,
    SeriesStatus,
    correction_series,
    derive_constants,
    four_param_wright,
    fox_wright,
    fox_wright_value,
    gamma_ratio,
)
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.errors import DomainError, NonConvergentError, OutsideDomainError, ParameterError
from foxwright.params import _LOG_MAX, correction_coeffs

# a balanced p = 3 set with mu = -2: an atom and two derivative atoms
M2_ATOMS = ParameterSet([(0.7, 1.0), (1.25, 1.0), (2.05, 1.0)], [(0.15, 1.0), (0.95, 1.0), (0.9, 1.0)])


class TestClosedForms:
    @pytest.mark.parametrize("z", [-5.0, -1.0, 0.0, 0.5, 1.0, 3.0, 10.0])
    def test_identity_set_is_exp(self, z):
        got = fox_wright_value(IDENTITY, z)
        assert complex(got).real == pytest.approx(math.exp(z), rel=1e-12)

    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 0.7, 2.0])
    def test_exp_collapse_closed_form(self, z):
        # gamma(1+k) / (gamma(1/2 + k/2) gamma(1 + k/2)) z^k/k!
        # collapses by the duplication formula to e^(2z)/sqrt(pi)
        got = complex(fox_wright_value(EXP_COLLAPSE, z)).real
        assert got == pytest.approx(math.exp(2.0 * z) / math.sqrt(math.pi), rel=1e-12)

    def test_value_at_zero_is_gamma_ratio(self):
        for ps in (EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY):
            got = complex(fox_wright_value(ps, 0.0)).real
            assert got == pytest.approx(gamma_ratio(ps, 0.0), rel=1e-14)

    def test_complex_argument(self):
        z = 0.3 + 0.4j
        got = fox_wright_value(IDENTITY, z)
        assert got == pytest.approx(cmath.exp(z), rel=1e-12)


def mittag_leffler_rows(alpha, beta):
    return ParameterSet([(1.0, 1.0)], [(beta, alpha)])


class TestSpecializations:
    def test_hyper_1f1_closed_form(self):
        # 1F1(1; 2; z) = (e^z - 1)/z; the prefactor gamma(2)/gamma(1) is 1
        z = 0.8
        assert fox_wright_value(ParameterSet([(1.0, 1.0)], [(2.0, 1.0)]), z) == pytest.approx(
            (math.exp(z) - 1.0) / z, rel=1e-12
        )

    def test_hyper_2f1_log_form(self):
        # 2F1(1, 1; 2; z) = -ln(1-z)/z inside the unit disk; the prefactor is 1
        z = 0.4
        ps = ParameterSet([(1.0, 1.0), (1.0, 1.0)], [(2.0, 1.0)])
        assert fox_wright_value(ps, z) == pytest.approx(-math.log(1.0 - z) / z, rel=1e-12)

    def test_mittag_leffler_exponential(self):
        got = fox_wright_value(mittag_leffler_rows(1.0, 1.0), 1.3)
        assert got == pytest.approx(math.exp(1.3), rel=1e-12)

    def test_mittag_leffler_cosh(self):
        # E_{2,1}(z^2) = cosh(z)
        z = 0.9
        got = fox_wright_value(mittag_leffler_rows(2.0, 1.0), z * z)
        assert got == pytest.approx(math.cosh(z), rel=1e-12)

    def test_mittag_leffler_shifted(self):
        # E_{1,2}(z) = (e^z - 1)/z
        z = 0.6
        got = fox_wright_value(mittag_leffler_rows(1.0, 2.0), z)
        assert got == pytest.approx((math.exp(z) - 1.0) / z, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta,z", [(1.0, 1.0, 0.7), (0.5, 1.5, -0.9), (2.0, 0.5, 1.2)])
    def test_wright_matches_brute_force(self, alpha, beta, z):
        brute = sum(z**k / (math.factorial(k) * math.gamma(alpha * k + beta))
                    for k in range(60))
        got = fox_wright_value(ParameterSet([], [(beta, alpha)]), z)
        assert got == pytest.approx(brute, rel=1e-12)

    def test_four_param_matches_general_series(self):
        mu1, a, nu1, b = 0.5, 0.25, 0.5, 0.25
        ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
        for z in (-2.0, -0.5, 0.0, 1.0, 4.0):
            got = four_param_wright(mu1, a, nu1, b, z)
            want = fox_wright_value(ps, z)
            assert complex(got.value).real == pytest.approx(
                complex(want).real, rel=1e-12
            )


class TestDomainGates:
    def test_negative_balance_outside_domain(self):
        ps = ParameterSet([(1.0, 2.0)], [(1.0, 0.5)])
        res = fox_wright(ps, 0.5)
        assert res.status is SeriesStatus.OUTSIDE_DOMAIN
        assert math.isnan(complex(res.value).real)
        with pytest.raises(OutsideDomainError):
            fox_wright_value(ps, 0.5)

    def test_disk_radius_gate(self):
        lifted = ParameterSet([(1.0, 1.0), *DOUBLE_POLE.upper], list(DOUBLE_POLE.lower))
        assert fox_wright(lifted, 0.5).status is SeriesStatus.CONVERGED
        assert fox_wright(lifted, 1.5).status is SeriesStatus.OUTSIDE_DOMAIN

    def test_four_param_divergent_gate(self):
        # a negative scale can pull the balance below -1: divergent
        got = four_param_wright(0.5, 1.0, -0.7, 1.0, 0.5)
        assert got.status is SeriesStatus.OUTSIDE_DOMAIN

    def test_four_param_disk_gate(self):
        # mu1 + nu1 = 0 gives balance exactly -1: a finite disk
        inside = four_param_wright(0.5, 1.0, -0.5, 1.0, 0.5)
        assert inside.status is SeriesStatus.CONVERGED
        outside = four_param_wright(0.5, 1.0, -0.5, 1.0, 1.5)
        assert outside.status is SeriesStatus.OUTSIDE_DOMAIN

    def test_four_param_divergent_at_zero_is_first_term(self):
        # z = 0 lies in every domain: the sum is 1/(gamma(a) gamma(b)) = 1,
        # as fox_wright gives the first term of a divergent row series there
        res = four_param_wright(0.5, 1.0, -0.7, 1.0, 0.0)
        assert res.status is SeriesStatus.CONVERGED and res.value == 1.0
        assert fox_wright(ParameterSet([(1.0, 2.0)], [(1.0, 0.5)]), 0.0).value == 1.0

    def test_four_param_balance_within_tolerance_keeps_disk(self):
        # mu1 + nu1 = 5e-10 is balanced to the row series' 1e-9: z = 1.5 lies
        # outside the unit disk, not a 1,772-term MAX_TERMS run
        res = four_param_wright(0.5, 1.0, -0.5 + 5e-10, 1.0, 1.5)
        assert res.status is SeriesStatus.OUTSIDE_DOMAIN and res.terms_used == 0

    def test_four_param_negative_balance_within_tolerance_converges(self):
        # mu1 + nu1 = -5e-10 is balanced too: z = 0.9 lies inside the disk
        res = four_param_wright(0.5, 1.0, -0.5 - 5e-10, 1.0, 0.9)
        assert res.status is SeriesStatus.CONVERGED
        exact = four_param_wright(0.5, 1.0, -0.5, 1.0, 0.9)
        assert res.value == pytest.approx(exact.value, rel=1e-6)

    def test_four_param_constant_factor_at_pole_vanishes(self):
        # mu1 = 0 makes gamma(a) a constant; at its pole every term is zero
        res = four_param_wright(0.0, -1.0, 1.0, 1.0, 0.5)
        assert res.status is SeriesStatus.CONVERGED and res.value == 0.0

    def test_four_param_large_scale(self):
        # |mu1|^mu1 alone overflows a double; the set is entire, far from a disk
        res = four_param_wright(200.0, 1.0, 0.5, 1.0, 0.3)
        assert res.status is SeriesStatus.CONVERGED and res.value == 1.0

    @pytest.mark.parametrize("z,max_terms", [(0.5, 50), (0.9, 250), (-0.9, 250)])
    def test_four_param_every_other_term_zero_stops_early(self, z, max_terms):
        # 1/gamma(1 - k/2) vanishes at every even k >= 2.  A zero term used to
        # break the stop streak, so the sum ran until its terms underflowed:
        # 1,027, 6,729 and 6,719 terms.  The values were right and still are.
        mpmath = pytest.importorskip("mpmath")
        res = four_param_wright(0.5, 1.0, -0.5, 1.0, z)
        assert res.status is SeriesStatus.CONVERGED and res.terms_used <= max_terms
        with mpmath.workdps(30):
            w = mpmath.mpf(z)
            exact = mpmath.fsum(w**k * mpmath.rgamma(1 + k / 2) * mpmath.rgamma(1 - k / 2)
                                for k in range(1200))
            assert float(abs(res.value - exact) / exact) <= 2e-13

    def test_term_cap_reports_max_terms(self, monkeypatch):
        monkeypatch.setattr(series, "_TERM_CAP", 5)
        res = fox_wright(IDENTITY, 30.0)
        assert res.status is SeriesStatus.MAX_TERMS
        assert res.terms_used == 5
        with pytest.raises(NonConvergentError):
            fox_wright_value(IDENTITY, 30.0)
        monkeypatch.undo()
        assert fox_wright(IDENTITY, 30.0).status is SeriesStatus.CONVERGED

    @pytest.mark.parametrize("args", [(math.inf, 1.0, 0.5, 1.0), (0.5, 1.0, 0.5, math.nan),
                                      (0.5, math.inf, 0.5, 1.0), (math.nan, 1.0, 0.5, 1.0),
                                      (0.5, 1.0, -math.inf, 1.0)])
    def test_four_param_non_finite_parameter_raises(self, args):
        # these raised a bare ValueError from round(nan), summed to 0.0 with
        # status CONVERGED, or read OUTSIDE_DOMAIN
        with pytest.raises(ParameterError, match="not finite"):
            four_param_wright(*args, 0.5)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf, complex(0.5, math.nan),
                                   complex(math.inf, 0.0)])
    def test_non_finite_z_outside_domain(self, z):
        # an entire series used to run all 10,000 terms on NaN before MAX_TERMS
        for res in (fox_wright(DOUBLE_POLE, z), four_param_wright(0.5, 1.0, 0.5, 1.0, z)):
            assert res.status is SeriesStatus.OUTSIDE_DOMAIN and res.terms_used == 0
        with pytest.raises(OutsideDomainError):
            fox_wright_value(DOUBLE_POLE, z)

    @pytest.mark.parametrize("params,z", [(IDENTITY, -800.0), (IDENTITY, 800j),
                                          (DOUBLE_POLE, -800.0), (IDENTITY, 710.0)])
    def test_overflowing_term_is_max_terms(self, params, z):
        # a term past the double range used to raise an untyped OverflowError;
        # at e^710 every term fits and the sum, inf, was reported converged
        res = fox_wright(params, z)
        assert res.status is SeriesStatus.MAX_TERMS
        assert cmath.isnan(res.value) and res.trunc_estimate == math.inf
        with pytest.raises(NonConvergentError):
            fox_wright_value(params, z)


class TestCorrectionSeries:
    @pytest.mark.parametrize("z", [-1.5, -0.25, 0.0, 0.5, 2.0])
    def test_atom_only_closed_form(self, z):
        # m = 0: the polynomial correction is the bare atom, eta e^(rho z)
        c = derive_constants(EXP_COLLAPSE)
        got = complex(correction_series(EXP_COLLAPSE, z)).real
        assert got == pytest.approx(c.eta * math.exp(c.rho * z), rel=1e-13)

    @pytest.mark.parametrize("z", [-1.0, 0.0, 0.3, 1.0])
    def test_first_order_closed_form(self, z):
        # m = 1 with l1 = 1/8: eta (1/8 + rho z) e^(rho z)
        c = derive_constants(TWIN_QUARTER)
        got = complex(correction_series(TWIN_QUARTER, z)).real
        want = c.eta * (0.125 + c.rho * z) * math.exp(c.rho * z)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_requires_balanced_scales(self):
        ps = ParameterSet([(1.0, 1.0)], [(1.0, 2.0)])  # delta = 1
        with pytest.raises(OutsideDomainError, match="balanced"):
            correction_series(ps, 1.0)

    @pytest.mark.parametrize("z", [354.95, complex(354.95, 1.0), np.array([0.0, 354.95])],
                             ids=["float", "complex", "array"])
    def test_past_the_double_range_raises(self, z):
        # rho z = 709.9 > ln(max double): e^(rho z) is inf, for every type of
        # z a typed error, neither an OverflowError nor a numpy warning
        with pytest.raises(DomainError, match="overflows a double"):
            correction_series(EXP_COLLAPSE, z)

    @pytest.mark.parametrize("z", [354.8, complex(354.8, 1.0), np.array([1.0, 354.8])],
                             ids=["float", "complex", "array"])
    def test_atom_sum_past_the_double_range_raises(self, z):
        # m = 1: e^(rho z) fits a double at rho z = 709.6, the term
        # rho z e^(rho z) does not; the sum read inf, and the array warned
        with pytest.raises(DomainError, match="overflows a double"):
            correction_series(TWIN_QUARTER, z)

    def test_largest_exponent_is_finite(self):
        c = derive_constants(EXP_COLLAPSE)
        edge = _LOG_MAX / c.rho
        assert math.isfinite(correction_series(EXP_COLLAPSE, edge))

    def test_requires_polynomial_order(self):
        ps = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])  # mu = 1.6, no order
        with pytest.raises(OutsideDomainError):
            correction_series(ps, 1.0)

    def test_collapse_set_series_equals_correction(self):
        # the whole series IS the atom for the collapsed set
        for z in np.linspace(-2.0, 2.0, 9):
            lhs = complex(fox_wright_value(EXP_COLLAPSE, z)).real
            rhs = complex(correction_series(EXP_COLLAPSE, z)).real
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("params", [DOUBLE_POLE, TWIN_QUARTER, M2_ATOMS],
                             ids=["m=0", "m=1", "m=2"])
    @pytest.mark.parametrize("z", [10j, -3 + 2j, 0.5 - 1.5j])
    def test_complex_z_against_mpmath(self, params, z):
        # eta sum_k rho^k P(k) z^k / k!, summed term by term at 30 digits
        mpmath = pytest.importorskip("mpmath")
        c = derive_constants(params)
        m = c.m_order
        ell = correction_coeffs(params, m)
        with mpmath.workdps(30):
            zz = mpmath.mpc(z)
            want = c.eta * mpmath.nsum(
                lambda k: c.rho**k * sum(ell[m - j] * k**j for j in range(m + 1))
                * zz**k / mpmath.factorial(k),
                [0, mpmath.inf],
            )
            want = complex(want)
        got = correction_series(params, z)
        assert isinstance(got, complex)
        assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY,
                                        M2_ATOMS])
    def test_array_z_matches_scalar_calls(self, params):
        # one np.exp whatever the shape of z: every point bit for bit
        zs = np.linspace(-60.0, 20.0, 161)
        got = correction_series(params, zs)
        want = [correction_series(params, float(z)) for z in zs]
        assert got.shape == zs.shape
        assert got.tolist() == want

    @pytest.mark.parametrize("z,kind", [(0.5, float), (np.float64(0.5), float), (1, float),
                                        (0.5 + 0j, complex), (0.5 + 1j, complex)],
                             ids=["float", "float64", "int", "complex-real", "complex"])
    def test_scalar_types(self, z, kind):
        # a real z gives a float, a complex z a complex, even on the real axis
        got = correction_series(TWIN_QUARTER, z)
        assert type(got) is kind
        assert got == correction_series(TWIN_QUARTER, np.array([z]))[0]


def _same(got, want):
    """Two series results bit for bit: the value's repr, terms, estimate, status."""
    return ((repr(got.value), got.terms_used, repr(got.trunc_estimate), got.status)
            == (repr(want.value), want.terms_used, repr(want.trunc_estimate), want.status))


def _series_sweep_grids():
    """Each series-sweep set of seeds 1-3 with the z the benchmark draws for it."""
    inputs = load_file("perfbench/inputs.py")  # imports no foxwright
    for seed in (1, 2, 3):
        spec = inputs.series_sweep(seed)
        grids = {}
        for idx, re, im in spec["points"]:
            grids.setdefault(idx, []).append(re if im == 0 else complex(re, im))
        for idx, zs in grids.items():
            s = spec["sets"][idx]
            yield f"seed{seed}-{s['name']}", ParameterSet(s["upper"], s["lower"]), zs


def _lifted(params, lam):
    return ParameterSet([(lam, 1.0), *params.upper], list(params.lower))


class TestGrid:
    """A grid of z sums on one coefficient table; each point must equal its
    one-point call bit for bit, whatever the other points need."""

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY,
                                        M2_ATOMS], ids=lambda p: p.hash_key())
    def test_catalog_grid_equals_points(self, params):
        zs = [-60.0, -20.0, -3.5, -1.0, -1e-300, 0.0, 0.4999, 2.0, 30.0, 800.0, 10j, -4 + 3j,
              math.nan, -3.5]
        got = list(series._fox_wright_grid(params, zs))
        assert len(got) == len(zs)
        for z, res in zip(zs, got):
            assert _same(res, fox_wright(params, z)), z

    def test_series_sweep_grids_equal_points(self):
        count = 0
        for name, params, zs in _series_sweep_grids():
            # descending |z| first and ascending after, so both the points
            # that grow the table and the ones that only read it are checked
            grid = sorted(zs, key=abs, reverse=True) + sorted(zs, key=abs)
            for z, res in zip(grid, series._fox_wright_grid(params, grid)):
                assert _same(res, fox_wright(params, z)), (name, z)
                count += 1
        assert count == 2 * 3 * 12 * 32

    @pytest.mark.parametrize("params", [TWIN_QUARTER, DOUBLE_POLE, M2_ATOMS],
                             ids=lambda p: p.hash_key())
    @pytest.mark.parametrize("lam", [0.5, 1.5, 4.0])
    def test_lifted_grid_equals_points(self, params, lam):
        # the lifted series' disk has radius 1/rho; rho |z| runs up to 0.9
        lifted = _lifted(params, lam)
        rho = derive_constants(params).rho
        zs = [w / rho for w in (-0.9, 0.9, -0.5, 0.2, 0.0, -0.75, 0.6)] + [0.3j / rho]
        for z, res in zip(zs, series._fox_wright_grid(lifted, zs)):
            assert _same(res, fox_wright(lifted, z)), z

    def test_coefficients_once_per_grid(self, monkeypatch):
        calls = []
        ratio = series.gamma_ratio_log_signed

        def counting(params, k):
            calls.append(k)
            return ratio(params, k)

        monkeypatch.setattr(series, "gamma_ratio_log_signed", counting)
        zs = [0.5, 8.0, -8.0, 2.0]
        results = list(series._fox_wright_grid(DOUBLE_POLE, zs))
        assert calls == list(range(max(r.terms_used for r in results)))

    def test_values_raise_the_first_points_error(self):
        # the values of a grid stop where the one-point calls in order would:
        # at 1e10 a term overflows, and NaN lies outside the domain
        with pytest.raises(NonConvergentError):
            series._fox_wright_values(IDENTITY, [1.0, 1e10, math.nan])
        with pytest.raises(OutsideDomainError):
            series._fox_wright_values(IDENTITY, [1.0, math.nan, 1e10])
        lifted = _lifted(DOUBLE_POLE, 1.0)
        assert series._fox_wright_values(lifted, [0.1, -0.2]) == [
            fox_wright_value(lifted, 0.1), fox_wright_value(lifted, -0.2)]
