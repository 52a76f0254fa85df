"""Property-based invariants over randomly drawn balanced parameter sets."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from foxwright import (
    ParameterSet,
    cm_check,
    correction_coeffs,
    derive_constants,
    four_param_wright,
    fox_wright,
    fox_wright_value,
    gamma_ratio,
    get_evaluator,
    shift_parameters,
)

# Balanced sets built by reusing the upper scales in the lower row with
# strictly larger shifts, so sum(A) == sum(B) exactly and mu > 0.
_row = st.tuples(
    st.floats(0.2, 3.0, allow_nan=False, allow_infinity=False),
    st.floats(0.3, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def balanced_sets(draw, max_rows=3):
    rows = draw(st.lists(_row, min_size=1, max_size=max_rows))
    bumps = draw(
        st.lists(
            st.floats(0.1, 1.5, allow_nan=False),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    upper = [(a, s) for a, s in rows]
    lower = [(a + bump, s) for (a, s), bump in zip(rows, bumps)]
    return ParameterSet(upper, lower)


class TestSeriesInvariants:
    @given(balanced_sets())
    @settings(max_examples=50, deadline=None)
    def test_value_at_origin_is_gamma_ratio(self, ps):
        got = complex(fox_wright_value(ps, 0.0)).real
        assert got == pytest.approx(gamma_ratio(ps, 0.0), rel=1e-10)

    @given(balanced_sets(), st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_balanced_series_converges_everywhere(self, ps, z):
        assert fox_wright(ps, z).ok()

    @given(
        st.floats(0.1, 0.9),
        st.floats(0.1, 2.0),
        st.floats(0.1, 2.0),
        st.floats(-1.5, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_four_param_equals_general_row_form(self, mu1, a, b, z):
        nu1 = 1.0 - mu1
        got = four_param_wright(mu1, a, nu1, b, z)
        assume(got.ok())
        ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
        want = complex(fox_wright_value(ps, z)).real
        assert complex(got.value).real == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestConstantInvariants:
    @given(balanced_sets(), st.floats(-1.0, 2.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_shift_scales_eta_by_rho_power(self, ps, delta):
        base = derive_constants(ps)
        # keep every shifted upper shift clear of the gamma poles
        assume(all(a + delta * s > 0.05 for a, s in ps.upper))
        assume(all(b + delta * s > 0.05 for b, s in ps.lower))
        cs = derive_constants(shift_parameters(ps, delta))
        assert cs.rho == pytest.approx(base.rho, rel=1e-11)
        assert cs.mu == pytest.approx(base.mu, abs=1e-9)
        assert cs.eta == pytest.approx(base.eta * base.rho**delta, rel=1e-9)

    @given(st.floats(0.1, 0.9), st.floats(0.05, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_first_correction_closed_form(self, mu1, a):
        # a + b = 1/2 and mu1 + nu1 = 1 force mu = -1; the first correction
        # coefficient then has a four-parameter closed form
        nu1 = 1.0 - mu1
        b = 0.5 - a
        ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
        want = (
            1.0 / 12.0
            - (6.0 * a * a - 6.0 * a + 1.0) / (12.0 * mu1)
            - (6.0 * b * b - 6.0 * b + 1.0) / (12.0 * nu1)
        )
        got = correction_coeffs(ps, 1)[1]
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


class TestCmProperty:
    @given(st.floats(0.1, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_scaled_exponential_always_clean(self, a):
        grid = [0.01 * 1.26**i for i in range(30)]
        records = cm_check(lambda x: math.exp(-a * x), grid, 0.05, 6)
        assert all(r.ok() for r in records)


class TestMeasureProperty:
    @given(
        st.floats(0.3, 1.5),
        st.floats(0.4, 1.2),
        st.floats(0.3, 1.2),
        st.floats(0.5, 2.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_moment_identity_single_ladder(self, alpha, scale, split, k):
        # one upper row, two lower rows sharing its scale budget; shifts
        # chosen large enough that mu > 0 (pure density, no atom)
        b1 = split * scale
        b2 = scale - b1
        assume(min(b1, b2) > 0.1)
        beta1 = alpha / 2.0 + 0.6
        beta2 = alpha / 2.0 + 0.8
        ps = ParameterSet([(alpha, scale)], [(beta1, b1), (beta2, b2)])
        c = derive_constants(ps)
        assume(c.mu > 0.2)
        ev = get_evaluator(ps)
        lhs = gamma_ratio(ps, k)
        rhs = ev.moment(k)
        assert rhs == pytest.approx(lhs, rel=1e-6)
