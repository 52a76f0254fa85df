"""Parameter rows, derived constants, the convergence rule, shifts."""

import hashlib
import math
import warnings
from fractions import Fraction

import pytest

from foxwright import (
    ParameterSet,
    correction_coeffs,
    derive_constants,
    gamma_ratio,
    in_domain,
    shift_parameters,
)
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.errors import DomainError, ParameterError, PoleError
from foxwright.params import _q_sequence, gamma_ratio_log_signed
from foxwright.special import _bernoulli_matrix, bernoulli_number


class TestDerivedConstants:
    def test_exp_collapse(self):
        c = derive_constants(EXP_COLLAPSE)
        assert c.delta == pytest.approx(0.0, abs=1e-15)
        assert c.rho == pytest.approx(2.0, rel=1e-14)
        assert c.mu == pytest.approx(0.0, abs=1e-14)
        assert c.eta == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
        assert c.gamma_abscissa == pytest.approx(-1.0, abs=1e-14)
        assert c.m_order == 0

    def test_twin_quarter(self):
        c = derive_constants(TWIN_QUARTER)
        assert c.rho == pytest.approx(2.0, rel=1e-14)
        assert c.mu == pytest.approx(-1.0, abs=1e-13)
        assert c.eta == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13)
        assert c.m_order == 1

    def test_double_pole(self):
        c = derive_constants(DOUBLE_POLE)
        assert c.rho == pytest.approx(1.0, rel=1e-14)
        assert c.mu == pytest.approx(0.0, abs=1e-14)
        assert c.eta == pytest.approx(1.0, rel=1e-13)
        assert c.m_order == 0

    def test_identity(self):
        c = derive_constants(IDENTITY)
        assert c.rho == pytest.approx(1.0)
        assert c.mu == pytest.approx(0.0, abs=1e-15)
        assert c.eta == pytest.approx(1.0, rel=1e-14)
        assert c.m_order == 0

    def test_non_integer_mu_has_no_order(self):
        # beta-density style set: mu = beta - alpha = 1.6 > 0, not -m
        ps = ParameterSet([(0.7, 1.0)], [(2.3, 1.0)])
        c = derive_constants(ps)
        assert c.mu == pytest.approx(1.6, rel=1e-14)
        assert c.m_order is None


class TestCorrectionCoeffs:
    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            correction_coeffs(TWIN_QUARTER, -1)

    def test_twin_quarter_closed_forms(self):
        l = correction_coeffs(TWIN_QUARTER, 2)
        assert l[0] == pytest.approx(1.0, rel=1e-14)
        assert l[1] == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert l[2] == pytest.approx(9.0 / 128.0, rel=1e-12)

    def test_leading_coefficient_always_one(self):
        for ps in (EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY):
            assert correction_coeffs(ps, 0)[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("mu1", [0.2, 0.35, 0.5, 0.65, 0.8])
    def test_four_param_closed_form(self, mu1):
        # two lower rows (a, mu1), (b, nu1) and one upper (1, 1), with
        # mu1 + nu1 = 1 and a + b = 1/2 so that mu = -1:
        # l_1 = 1/12 - (6a^2-6a+1)/(12 mu1) - (6b^2-6b+1)/(12 nu1)
        nu1 = 1.0 - mu1
        a, b = 0.2, 0.3
        ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
        want = (
            1.0 / 12.0
            - (6.0 * a * a - 6.0 * a + 1.0) / (12.0 * mu1)
            - (6.0 * b * b - 6.0 * b + 1.0) / (12.0 * nu1)
        )
        assert correction_coeffs(ps, 1)[1] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "ps",
        [
            TWIN_QUARTER,
            DOUBLE_POLE,
            IDENTITY,
            ParameterSet([(0.7, 1.0)], [(2.3, 1.0)]),
            ParameterSet([(0.5, 0.5), (1.7, 0.5)], [(2.0, 0.5), (2.7, 0.5)]),
        ],
    )
    def test_order_40_matches_mpmath(self, ps):
        # the endpoint series uses l_0..l_40.  exp-collapse is left out: its
        # exact l_r vanish for r >= 1, and the float q_n that cancel to 0
        # there carry ~1e-16 of terms of size 2^n B_(n+1)
        mpmath = pytest.importorskip("mpmath")
        order = 40
        with mpmath.workdps(60):
            q = []
            for n in range(1, order + 1):
                acc = mpmath.fsum(
                    mpmath.bernpoly(n + 1, a) / mpmath.mpf(s) ** n for a, s in ps.upper
                ) - mpmath.fsum(
                    mpmath.bernpoly(n + 1, b) / mpmath.mpf(s) ** n for b, s in ps.lower
                )
                q.append((-1) ** (n + 1) * acc / (n + 1))
            want = [mpmath.mpf(1)]
            for r in range(1, order + 1):
                want.append(mpmath.fsum(q[n - 1] * want[r - n] for n in range(1, r + 1)) / r)
            want = [float(w) for w in want]
        got = correction_coeffs(ps, order)
        for r, (g, w) in enumerate(zip(got, want)):
            assert g == pytest.approx(w, rel=1e-13, abs=0.0), r


def exact_bernoulli_poly(n: int, x: Fraction) -> Fraction:
    return sum(Fraction(math.comb(n, k)) * bernoulli_number(k) * x ** (n - k)
               for k in range(n + 1))


def bernoulli_mass(n: int, x: float) -> float:
    """The sum of |terms| that B_n(x) is evaluated from: the expansion in
    powers of y - 1/2, y = x - floor(x), and the integer-shift sum."""
    whole = math.floor(x)
    y = x - whole
    mass = sum(abs(c) * abs(y - 0.5) ** j for j, c in enumerate(_bernoulli_matrix(n)[n]))
    steps = range(whole) if whole > 0 else range(whole, 0)
    return mass + n * sum(abs(y + j) ** (n - 1) for j in steps)


class TestQSequence:
    """q_n takes each gamma factor's B_(n+1)(shift), n = 1..count, from one
    product of a cached Bernoulli coefficient matrix with the powers of
    y - 1/2; checked against exact rational arithmetic on the same floats."""

    @pytest.mark.parametrize("ps", [
        ParameterSet([(0.3, 0.5), (0.7, 1.5)], [(0.45, 1.0), (0.55, 1.0)]),
        ParameterSet([(2.35, 1.0), (4.5, 0.5)], [(3.1, 1.0), (1.0, 0.5)]),
        ParameterSet([(-0.4, 1.0), (-2.75, 2.0)], [(-1.3, 1.5), (0.25, 1.5)]),
        # y = 0 throughout: integer shifts, 0 among them, as in the catalog
        ParameterSet([(1.0, 1.0), (3.0, 0.5)], [(0.0, 1.0), (2.5, 0.5)]),
    ], ids=["integer-part-0", "integer-part-positive", "integer-part-negative", "y=0"])
    def test_matches_exact_arithmetic(self, ps):
        count = 40
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _q_sequence.__wrapped__(ps, count)  # past the cache
        assert len(got) == count
        rows = ps.upper + ps.lower
        for n in range(1, count + 1):
            acc = sum(exact_bernoulli_poly(n + 1, Fraction(a)) / Fraction(s) ** n
                      for a, s in ps.upper)
            acc -= sum(exact_bernoulli_poly(n + 1, Fraction(b)) / Fraction(s) ** n
                       for b, s in ps.lower)
            want = Fraction((-1) ** (n + 1), n + 1) * acc
            mass = sum(bernoulli_mass(n + 1, a) / s**n for a, s in rows) / (n + 1)
            eps = 2.0**-52
            assert abs(Fraction(got[n - 1]) - want) <= 8 * eps * mass, n

    def test_short_sequences(self):
        assert _q_sequence.__wrapped__(DOUBLE_POLE, 0) == ()
        (q1,) = _q_sequence.__wrapped__(TWIN_QUARTER, 1)
        assert q1 == pytest.approx(1.0 / 8.0, rel=1e-14)  # = l_1


class TestValidation:
    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError):
            ParameterSet([(1.0, 0.0)], [(1.0, 1.0)])
        with pytest.raises(ParameterError):
            ParameterSet([(1.0, 1.0)], [(1.0, -0.5)])

    def test_upper_pole_on_series_index_rejected(self):
        # gamma(-1 + k) has poles at k = 0 and k = 1
        with pytest.raises(ParameterError):
            ParameterSet([(-1.0, 1.0)], [(1.0, 1.0)])

    def test_empty_both_rows_rejected(self):
        with pytest.raises(ParameterError):
            ParameterSet([], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            ParameterSet([(math.inf, 1.0)], [(1.0, 1.0)])


class TestSerialization:
    def test_json_roundtrip(self):
        for ps in (EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE):
            assert ParameterSet.from_json(ps.to_json()) == ps

    def test_hash_stable_and_distinct(self):
        assert EXP_COLLAPSE.hash_key() == EXP_COLLAPSE.hash_key()
        assert len(EXP_COLLAPSE.hash_key()) == 16
        hashes = {ps.hash_key() for ps in (EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY)}
        assert len(hashes) == 4

    @pytest.mark.parametrize("ps, key", [
        (EXP_COLLAPSE, "1f3c7bc8c20c7326"),
        (TWIN_QUARTER, "55d3a95139b192da"),
        (DOUBLE_POLE, "0427ae0a7ebdbf5c"),
        (IDENTITY, "d1cee74c5b64f2c8"),
    ])
    def test_hash_is_the_digest_of_the_canonical_json(self, ps, key):
        # a fresh set, so the kept digest is computed here, not inherited
        fresh = ParameterSet(ps.upper, ps.lower)
        assert fresh.hash_key() == key
        assert fresh.hash_key() == hashlib.sha256(ps.to_json().encode()).hexdigest()[:16]
        assert ParameterSet.from_json(ps.to_json()).hash_key() == ps.hash_key() == key

    def test_hash_kept_out_of_equality_and_construction(self):
        a = ParameterSet(DOUBLE_POLE.upper, DOUBLE_POLE.lower)
        b = ParameterSet(DOUBLE_POLE.upper, DOUBLE_POLE.lower)
        assert "_digest" not in vars(a)  # building a set hashes nothing
        a.hash_key()
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert b.hash_key() == a.hash_key()

    def test_malformed_json_raises(self):
        with pytest.raises(ParameterError):
            ParameterSet.from_json("{not json")
        with pytest.raises(ParameterError):
            ParameterSet.from_json('{"upper": [[1, 1]]}')


class TestConvergence:
    """delta > -1: entire; delta == -1: the disk |z| < conv_radius, with its
    edge when mu > 1/2; delta < -1: z = 0 only."""

    def test_balanced_sets_entire(self):
        for ps in (EXP_COLLAPSE, TWIN_QUARTER, DOUBLE_POLE, IDENTITY):
            assert derive_constants(ps).delta == 0.0
            assert in_domain(ps, 100.0) and in_domain(ps, -1e6 + 3e5j)

    def test_disk_case(self):
        # lifting by an extra (1,1) upper row moves the balance to -1
        lifted = ParameterSet([(1.0, 1.0), *DOUBLE_POLE.upper], list(DOUBLE_POLE.lower))
        c = derive_constants(lifted)
        assert c.delta == -1.0 and c.mu == -0.5
        assert c.conv_radius == pytest.approx(1.0, rel=1e-13)
        assert in_domain(lifted, 0.5) and in_domain(lifted, 0.0)
        assert not in_domain(lifted, 1.5)
        assert not in_domain(lifted, c.conv_radius)  # mu <= 1/2: the edge diverges

    @pytest.mark.parametrize("b,edge", [(3.0, True), (2.0, False)])
    def test_disk_edge_needs_mu_above_half(self, b, edge):
        # 2F1(1, 1; b; z) rows: radius 1, mu = b - 3/2
        ps = ParameterSet([(1.0, 1.0), (1.0, 1.0)], [(b, 1.0)])
        c = derive_constants(ps)
        assert (c.delta, c.conv_radius, c.mu) == (-1.0, 1.0, b - 1.5)
        for z in (1.0, -1.0, 1j, 1.0 + 1e-13):
            assert in_domain(ps, z) is edge
        assert in_domain(ps, 1.0 - 1e-11)
        assert not in_domain(ps, 1.0 + 1e-11)

    def test_divergent_case(self):
        ps = ParameterSet([(1.0, 2.0)], [(1.0, 0.5)])
        assert derive_constants(ps).delta == -1.5
        assert not in_domain(ps, 0.1)
        assert not in_domain(ps, 1e-300)
        assert in_domain(ps, 0.0)


class TestShift:
    @pytest.mark.parametrize("delta", [-0.5, 0.25, 1.0, 2.0])
    def test_shift_laws(self, delta):
        base = derive_constants(DOUBLE_POLE)
        shifted = shift_parameters(DOUBLE_POLE, delta)
        cs = derive_constants(shifted)
        # balanced shift: balance and rho invariant, mu invariant,
        # eta picks up rho^delta
        assert cs.delta == pytest.approx(base.delta, abs=1e-14)
        assert cs.rho == pytest.approx(base.rho, rel=1e-13)
        assert cs.mu == pytest.approx(base.mu, abs=1e-12)
        assert cs.eta == pytest.approx(base.eta * base.rho**delta, rel=1e-12)

    def test_shift_eta_law_nontrivial_rho(self):
        base = derive_constants(EXP_COLLAPSE)
        cs = derive_constants(shift_parameters(EXP_COLLAPSE, 1.0))
        assert cs.eta == pytest.approx(base.eta * 2.0, rel=1e-13)

    def test_shift_rows(self):
        shifted = shift_parameters(EXP_COLLAPSE, 0.5)
        assert shifted.upper == ((1.5, 1.0),)
        assert shifted.lower == ((0.75, 0.5), (1.25, 0.5))


class TestGammaRatio:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.5, 5.0])
    def test_matches_direct_lgamma(self, k):
        ps = DOUBLE_POLE
        direct = math.exp(
            sum(math.lgamma(a + k * s) for a, s in ps.upper)
            - sum(math.lgamma(b + k * s) for b, s in ps.lower)
        )
        assert gamma_ratio(ps, k) == pytest.approx(direct, rel=1e-13)

    def test_known_value_at_zero(self):
        # double-pole: gamma(1/2) gamma(3/2) / gamma(1)^2 = pi/2
        assert gamma_ratio(DOUBLE_POLE, 0.0) == pytest.approx(math.pi / 2.0, rel=1e-14)

    def test_signed_variant_handles_negative_gamma(self):
        # one upper pair with negative argument: gamma(-0.5) < 0
        ps = ParameterSet([(-0.5, 1.0)], [(1.0, 1.0)])
        log_mag, sign = gamma_ratio_log_signed(ps, 0.0)
        assert sign == -1.0
        assert math.exp(log_mag) == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("s", [-1.0, -3.0, -3.0 + 1e-9])
    def test_coincident_poles_cancel(self, s):
        # exp-collapse: gamma(1+s) / (gamma(1/2+s/2) gamma(1+s/2)) = 2^s/sqrt(pi)
        # by the duplication formula; at s = -1, -3 a numerator and a
        # denominator pole coincide and the ratio is their finite limit
        assert gamma_ratio(EXP_COLLAPSE, s) == pytest.approx(
            2.0**s / math.sqrt(math.pi), rel=1e-12
        )

    # Gauss multiplication (n = 3): gamma(1+s) / (gamma(1/3+s/3) gamma(2/3+s/3)
    # gamma(1+s/3)) = 3^(s+1/2) / (2 pi); at s = -1, -4, -7 the numerator pole
    # coincides with a pole of gamma(1/3+s/3)
    GAUSS_TRIPLE = ParameterSet([(1.0, 1.0)], [(1 / 3, 1 / 3), (2 / 3, 1 / 3), (1.0, 1 / 3)])

    @staticmethod
    def gauss_triple(s):
        return 3.0 ** (s + 0.5) / (2.0 * math.pi)

    def test_coincident_group_decided_once(self):
        # rounding puts the lower (1/3, 1/3) factor just inside the pole
        # tolerance and the upper (1, 1) factor just outside it
        s = -7.0 - 1e-9
        assert gamma_ratio(self.GAUSS_TRIPLE, s) == pytest.approx(self.gauss_triple(s), rel=1e-8)

    @pytest.mark.parametrize("centre", [-1.0, -4.0])
    def test_points_near_coincident_poles(self, centre):
        # 1e-10 steps across +-3e-9: inside the tolerance the finite limit,
        # outside it plain log-gammas, which lose ~7 digits this close to a pole
        for j in range(-30, 31):
            s = centre + j * 1e-10
            assert gamma_ratio(self.GAUSS_TRIPLE, s) == pytest.approx(
                self.gauss_triple(s), rel=1e-6
            ), s

    def test_denominator_pole_gives_zero(self):
        # twin-quarter at s = -1/2: gamma(0)^2 below, gamma(1/2) above
        assert gamma_ratio(TWIN_QUARTER, -0.5) == 0.0

    def test_uncancelled_numerator_pole_raises(self):
        # double-pole at s = -1: gamma(0) above, gamma(1/2)^2 below
        with pytest.raises(PoleError):
            gamma_ratio(DOUBLE_POLE, -1.0)

    @pytest.mark.parametrize("params", [EXP_COLLAPSE, TWIN_QUARTER], ids=["m=0", "m=1"])
    def test_past_the_double_range_raises(self, params):
        # log|ratio(1e10)| ~ 1e10 ln rho: math.exp raised an OverflowError
        with pytest.raises(DomainError, match="overflows a double"):
            gamma_ratio(params, 1e10)
