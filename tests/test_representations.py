"""Integral representations and identity verifiers."""

import math

import numpy as np
import pytest

from foxwright import (
    ParameterSet,
    derive_constants,
    eval_via_representation,
    fox_wright_value,
    laplace_lift_check,
    lifted_value,
    moment_identity_check,
    verify_representation,
    verify_stieltjes,
)
from foxwright import representations
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.errors import (
    ConstraintError,
    DomainError,
    FoxwrightError,
    NonConvergentError,
    OutsideDomainError,
    ParameterError,
)
from foxwright.representations import _finite_laplace_identity, _stieltjes_integral

NON_FINITE = [math.nan, math.inf, -math.inf]
# mu = -2: the atoms carry the first and second derivatives of a kernel
M2 = ParameterSet([(1.0, 1.0)], [(0.25, 0.5), (-0.75, 0.5)])


class TestExponentialKernel:
    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE])
    @pytest.mark.parametrize("z", [-3.0, -1.0, 0.0, 1.0, 2.0])
    def test_representation_matches_series(self, params, z):
        rec = verify_representation(params, [z])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-9

    @pytest.mark.parametrize("z", [-2.0, 0.0, 1.0])
    def test_identity_set_reproduces_exp(self, z):
        got = eval_via_representation(IDENTITY, z).value
        assert got == pytest.approx(math.exp(z), rel=1e-12)

    @pytest.mark.parametrize("z", [-5.0, 0.0, 2.0])
    def test_trunc_estimate_is_last_level_difference(self, z):
        # the quadrature's own estimate, below tol relative to the integral
        res = eval_via_representation(DOUBLE_POLE, z)
        assert 0.0 < res.trunc_estimate <= 1e-9 * abs(res.value)

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY, M2])
    def test_array_z_matches_scalar_calls(self, params):
        # each row of the rule's pass keeps the level where it met the
        # tolerance, and the atoms take one np.exp: every point bit for bit
        zs = np.linspace(-60.0, 20.0, 161)
        res = eval_via_representation(params, zs)
        assert res.value.shape == res.trunc_estimate.shape == zs.shape
        assert res.value.tolist() == [eval_via_representation(params, z).value for z in zs]

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, M2])
    def test_verify_reads_the_representation(self, params):
        zs = [-3.0, -1.0, 0.0, 1.0, 2.0]
        records = verify_representation(params, zs)
        assert [r.rhs for r in records] == [eval_via_representation(params, z).value
                                            for z in zs]

    def test_beta_like_set_without_atom(self):
        # mu > 0: representation is the plain integral, no polynomial part
        ps = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])
        for z in (-1.0, 0.5, 2.0):
            got = eval_via_representation(ps, z).value
            want = complex(fox_wright_value(ps, z)).real
            assert got == pytest.approx(want, rel=1e-9)


class TestStieltjesKernel:
    @pytest.mark.parametrize(
        "params,sigma,z",
        [
            (EXP_COLLAPSE, 1.0, 0.3),
            (EXP_COLLAPSE, 2.0, 0.25),
            (DOUBLE_POLE, 2.0, 0.5),
            (DOUBLE_POLE, 0.5, 0.3),
        ],
    )
    def test_power_kernel_identity(self, params, sigma, z):
        rec = verify_stieltjes(params, sigma, [z])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-9

    def test_trunc_estimate_is_last_level_difference(self):
        (value,), (estimate,) = _stieltjes_integral(DOUBLE_POLE, 2.0, np.array([0.5]))
        assert 0.0 < estimate <= 1e-9 * abs(value)

    def test_gamma_factor_required_for_zero_z_equality(self):
        # at z = 0 the identity forces the gamma(sigma) prefactor on the
        # atom term: lifted value = gamma(sigma) * ratio(0)
        for sigma in (0.5, 3.0):
            got = lifted_value(DOUBLE_POLE, sigma, [0.0])[0]
            want = math.gamma(sigma) * math.pi / 2.0
            assert got == pytest.approx(want, rel=1e-12)

    def test_kernel_eval_positive(self):
        assert _stieltjes_integral(DOUBLE_POLE, 1.5, np.array([0.4]))[0][0] > 0.0

    def test_stieltjes_on_a_linear_atom_set(self):
        # m = 1: the atoms act on (1+tz)^(-sigma) through its first derivative too
        rec = verify_stieltjes(TWIN_QUARTER, 1.0, [0.3])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-12

    def test_stieltjes_needs_a_measure(self):
        # mu = -1/2: no representing measure, so no Stieltjes integral
        with pytest.raises(ConstraintError):
            verify_stieltjes(ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (0.5, 0.5)]), 1.0, [0.3])[0]

    def test_kernel_vanishing_inside_support_rejected(self):
        # rho = 1: 1 + tz vanishes at t = 2/3 for z = -1.5
        with pytest.raises(DomainError, match="vanishes"):
            _stieltjes_integral(DOUBLE_POLE, 1.0, np.array([-1.5]))


class TestLiftedValue:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_series_and_kernel_routes_agree(self, lam):
        # inside the disk lifted_value sums the series; the kernel
        # continuation gamma(lam) [ integral (1+0.4t)^(-lam) H dt/t
        # + eta (1+0.4 rho)^(-lam) ] must give the same value there
        z = -0.4  # |z| < 1/rho = 1 for the double-pole set
        c = derive_constants(DOUBLE_POLE)
        atom = math.gamma(lam) * c.eta * (1.0 + c.rho * -z) ** (-lam)
        (integral,) = _stieltjes_integral(DOUBLE_POLE, lam, np.array([-z]))[0]
        kernel = math.gamma(lam) * integral + atom
        assert lifted_value(DOUBLE_POLE, lam, [z])[0] == pytest.approx(kernel, rel=1e-9)

    @pytest.mark.parametrize("z", [0.7, 0.9])
    def test_slow_series_keeps_its_tail(self, z):
        # sum z^k converges slowly near the disk edge: three small terms in
        # a row leave out a geometric tail of about z^k / (1 - z)
        assert lifted_value(IDENTITY, 1.0, [z])[0] == pytest.approx(1.0 / (1.0 - z), rel=1e-12)

    def test_continuation_beyond_disk(self):
        # z = -2 is outside the lifted series disk; the kernel route still
        # converges and decreases in |z| as the kernel flattens
        v1 = lifted_value(DOUBLE_POLE, 1.0, [-1.5])[0]
        v2 = lifted_value(DOUBLE_POLE, 1.0, [-2.0])[0]
        assert 0.0 < v2 < v1

    def test_positive_axis_outside_disk_rejected(self):
        with pytest.raises(OutsideDomainError):
            lifted_value(DOUBLE_POLE, 1.0, [2.0])[0]

    @pytest.mark.parametrize("z", [0.0, -0.0])
    def test_overflow_at_the_centre_is_the_series_error(self, z):
        # gamma(171.6) ratio(0) leaves the double range at the disk's
        # centre: the series' own error, not a point outside the disk
        with pytest.raises(NonConvergentError, match="overflows a double"):
            lifted_value(DOUBLE_POLE, 171.6, [z])[0]


class TestLaplaceLift:
    # a tail cut at t = 60 whatever F does leaves e^(-0.3 t) = 1.5e-8 of
    # the identity case out; the cut follows the decay rate instead
    @pytest.mark.parametrize(
        "params,lam,z",
        [
            (IDENTITY, 1.0, 0.7),
            (EXP_COLLAPSE, 1.5, -0.4),
            (EXP_COLLAPSE, 1.0, -0.9),
            (DOUBLE_POLE, 2.0, -0.6),
        ],
    )
    def test_weighted_transform_matches_lift(self, params, lam, z):
        rec = laplace_lift_check(params, lam, [z])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-12

    @pytest.mark.parametrize(
        "params,lam,z",
        [
            (EXP_COLLAPSE, 1.5, -1.0),  # rho |z| = 2
            (DOUBLE_POLE, 1.5, -3.0),  # rho |z| = 3
        ],
    )
    def test_lift_beyond_the_disk(self, params, lam, z):
        rec = laplace_lift_check(params, lam, [z])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-12

    @pytest.mark.parametrize("params", [TWIN_QUARTER, M2], ids=["m=1", "m=2"])
    @pytest.mark.parametrize("lam,z", [(2.0, -1.0), (1.0, -1.5), (1.5, -3.0)])
    def test_lift_beyond_the_disk_with_derivative_atoms(self, params, lam, z):
        # rho = 2: every z here is past the lifted series' disk
        rec = laplace_lift_check(params, lam, [z])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-12

    def test_set_without_measure_sums_the_series(self):
        # mu = -1/2: no representing measure, so F comes from the series
        ps = ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (0.5, 0.5)])
        rec = laplace_lift_check(ps, 1.0, [-0.3])[0]
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-11

    def test_growing_integrand_keeps_its_tail(self):
        # F = e^z: integral e^(-t) e^(0.9 t) dt = 10
        rec = laplace_lift_check(IDENTITY, 1.0, [0.9])[0]
        assert rec.verdict == "pass"
        assert rec.lhs == pytest.approx(10.0, rel=1e-9)

    def test_near_divergent_lift_never_fails(self):
        # z = 0.99: F would overflow before the tail cut; a typed error or a
        # pass, never a "fail" verdict blamed on the identity
        try:
            rec = laplace_lift_check(IDENTITY, 1.0, [0.99])[0]
        except FoxwrightError:
            return
        assert rec.verdict == "pass"

    def test_lifted_value_out_of_reach_costs_no_quadrature(self, monkeypatch):
        # mu = -1/2: no measure, so no kernel continuation past the disk
        def boom(*args, **kwargs):
            raise AssertionError("quadrature ran before the lifted value")

        monkeypatch.setattr(representations, "integrate_gamma_weighted", boom)
        ps = ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (0.5, 0.5)])
        with pytest.raises(OutsideDomainError):
            laplace_lift_check(ps, 2.0, [-1.0])[0]

    def test_unbalanced_set_rejected(self):
        with pytest.raises(ConstraintError, match="balanced"):
            laplace_lift_check(ParameterSet([(1.0, 1.0)], [(1.0, 2.0)]), 1.0, [0.1])[0]

    def test_divergent_weight_rejected(self):
        # z rho >= 1 makes the weighted integrand non-decaying
        with pytest.raises(OutsideDomainError):
            laplace_lift_check(EXP_COLLAPSE, 1.0, [0.5])[0]


class TestFiniteLaplaceAdjudication:
    # records: quadrature vs a, quadrature vs b, series side vs a, series side vs b
    def test_trivial_point_matches_both(self):
        records = _finite_laplace_identity(0.0)
        assert [r.identity for r in records] == [
            "finite-laplace[quadrature~a]", "finite-laplace[quadrature~b]",
            "finite-laplace[series~a]", "finite-laplace[series~b]",
        ]
        assert all(r.relation == "==" and r.verdict == "pass" for r in records)

    @pytest.mark.parametrize("z", [-1.0, 0.5, 1.0, 2.0])
    def test_nonzero_argument_matches_neither(self, z):
        # the density vanishes identically, so the finite integral is 0,
        # while both closed-form candidates are nonzero: neither matches
        quad_a, quad_b, series_a, series_b = _finite_laplace_identity(z)
        assert quad_a.lhs == 0.0
        assert quad_a.verdict == quad_b.verdict == "fail"
        assert series_a.verdict == series_b.verdict == "fail"
        assert min(quad_a.abs_err, quad_b.abs_err) > 1e-3

    def test_atom_past_the_double_range_raises(self):
        # e^(-rho z) at rho z = -710 raised an OverflowError
        with pytest.raises(DomainError, match="overflows a double"):
            _finite_laplace_identity(-355.0)

    def test_series_side_consistent_with_quadrature(self):
        for z in (-1.0, 0.5, 2.0):
            quad_a, _, series_a, _ = _finite_laplace_identity(z)
            assert abs(series_a.lhs - quad_a.lhs) < 1e-12


def _four_param_rows(mu1, a, nu1, b):
    """The row set of sum_k z^k / (gamma(a + k mu1) gamma(b + k nu1))."""
    return ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])


class TestFourParamRepresentation:
    """The paper's four-parameter form is the row set [(1, 1)] / [(a, mu1),
    (b, nu1)], with mu = a + b - 3/2; verify_representation checks it."""

    @pytest.mark.parametrize(
        "mu1,a,nu1,b",
        [
            (0.5, 0.75, 0.5, 0.75),  # a + b = 1.5: pure density, m = 0
            (0.5, 0.25, 0.5, 0.25),  # a + b = 0.5: first-order atom, m = 1
            (0.3, 0.1, 0.7, 0.4),    # asymmetric scales, a + b = 0.5
            (0.5, 0.3, 0.5, -0.8),   # a + b = -0.5: second-order atoms, m = 2
            (0.5, 0.2, 0.5, -1.7),   # a + b = -1.5: third-order atoms, m = 3
            (0.5, 1.0, 0.5, 1.0),    # a + b = 2: mu = 1/2, density only
        ],
    )
    def test_both_degeneracy_orders(self, mu1, a, nu1, b):
        (rec,) = verify_representation(_four_param_rows(mu1, a, nu1, b), [1.0])
        assert rec.verdict == "pass"
        assert rec.rel_err < 1e-8

    def test_constraint_violation_rejected(self):
        with pytest.raises(ConstraintError, match="mu = -0.3"):
            verify_representation(_four_param_rows(0.5, 0.6, 0.5, 0.6), [1.0])  # a+b = 1.2

    def test_unbalanced_scales_rejected(self):
        with pytest.raises(ConstraintError, match="delta = 0.1"):
            verify_representation(_four_param_rows(0.5, 0.75, 0.6, 0.75), [1.0])

    @pytest.mark.parametrize("mu1", [0.0, -0.5])
    def test_non_positive_scale_rejected(self, mu1):
        with pytest.raises(ParameterError):
            _four_param_rows(mu1, 0.75, 1.0 - mu1, 0.75)

    def test_series_overflow_is_the_series_error(self):
        # a term overflows at z = -2000: the series' error, not a failing
        # record that would blame the identity for the series
        with pytest.raises(NonConvergentError, match="overflows a double"):
            verify_representation(_four_param_rows(0.5, 1.0, 0.5, 0.5), [-2000.0])


class TestNonFiniteArguments:
    """NaN and infinite exponents and orders are ParameterErrors; each used
    to slip past a ``<= 0`` guard into an untyped ValueError or a NaN."""

    @pytest.mark.parametrize("k", NON_FINITE)
    def test_moment_identity_check(self, k):
        with pytest.raises(ParameterError):
            moment_identity_check(DOUBLE_POLE, [1.0, k])

    @pytest.mark.parametrize("sigma", NON_FINITE)
    def test_verify_stieltjes(self, sigma):
        with pytest.raises(ParameterError):
            verify_stieltjes(DOUBLE_POLE, sigma, [0.5])[0]

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_lifted_value(self, lam):
        with pytest.raises(ParameterError):
            lifted_value(DOUBLE_POLE, lam, [-0.5])[0]

    @pytest.mark.parametrize("lam", NON_FINITE)
    def test_laplace_lift_check(self, lam):
        with pytest.raises(ParameterError):
            laplace_lift_check(DOUBLE_POLE, lam, [-0.5])[0]
