"""End-to-end acceptance gate.

One test per criterion; each prints an ``[acceptance] <name>: PASS/FAIL``
line and then asserts it.  All ten pass.  Three criteria probe a claimed
statement that turns out false, and assert the verdict with its evidence:

* ``finite-laplace-adjudication`` probes whether the finite transform
  ``integral_0^(1/2) e^(-zt) H(t) dt/t`` on exp-collapse matches one of two
  closed-form candidates.  It matches neither at z != 0 (both at z = 0).
  Evidence: by the duplication formula the gamma ratio is 2^s/sqrt(pi), so
  F(z) = e^(2z)/sqrt(pi), the measure is a pure atom at rho = 2 and H == 0.
  The transform and the series-side oracle are 0, both candidates are not.
* ``ratio-monotonicity`` probes whether the shifted-ratio quotient on
  double-pole is nondecreasing for delta = 1 and nonincreasing for
  delta = -0.5.  Both directions are reversed.  Evidence: Chebyshev's
  integral inequality fixes the sign of the z-derivative, the two
  evaluation routes agree to ~5e-12, and an mpmath Meijer-G oracle gives
  the same endpoint values.
* ``small-t-slope`` probes whether the log-log slope of H near 0 equals
  min a/A on both sets.  It does on double-pole.  On exp-collapse the
  gamma ratio is the entire function 2^s/sqrt(pi): the pole at -min a/A
  that sets the exponent has zero residue, H == 0 and no slope exists.
"""

import math
import random

import numpy as np
import pytest

from foxwright import (
    HfunMethod,
    ParameterSet,
    cm_check,
    correction_coeffs,
    derive_constants,
    eval_via_representation,
    exp_kernel_bounds,
    fox_wright_value,
    gamma_ratio,
    get_evaluator,
    hfun_nonneg_scan,
    lifted_kernel_bounds,
    ratio_monotonicity_scan,
    stieltjes_lower_bound,
)
from foxwright.bounds import _scan_direction
from foxwright.catalog import DOUBLE_POLE, EXP_COLLAPSE, IDENTITY, TWIN_QUARTER
from foxwright.representations import _finite_laplace_identity

NAMED = {
    "exp-collapse": EXP_COLLAPSE,
    "twin-quarter": TWIN_QUARTER,
    "double-pole": DOUBLE_POLE,
}


def test_criterion_01_moment_identity(acceptance):
    ks = [float(k) for k in range(9)] + [0.5, 1.5, 2.5]
    worst = 0.0
    for ps in NAMED.values():
        ev = get_evaluator(ps)
        for k in ks:
            lhs = gamma_ratio(ps, k)
            rhs = ev.moment(k) + ev.atom_mellin(k)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    assert acceptance("moment-identity", worst <= 1e-6), f"worst rel err {worst:.3e}"


def test_criterion_02_exponential_representation(acceptance):
    ok = True
    for ps in NAMED.values():
        for z in (-3.0, -1.0, 0.0, 1.0, 2.0):
            lhs = eval_via_representation(ps, z).value
            rhs = complex(fox_wright_value(ps, z)).real
            ok &= abs(lhs - rhs) / (1.0 + abs(rhs)) <= 1e-6
    for z in (-2.0, 0.0, 1.0, 2.5):
        got = eval_via_representation(IDENTITY, z).value
        ok &= abs(got - math.exp(z)) <= 1e-12 * (1.0 + math.exp(z))
    assert acceptance("exponential-representation", ok)


def test_criterion_03_degenerate_exactness(acceptance):
    ev = get_evaluator(IDENTITY)
    ts = np.linspace(0.005, 0.995, 50)
    dens_ok = bool(np.max(np.abs(ev.density(ts))) <= 1e-9)
    c = derive_constants(IDENTITY)
    rep_ok = True
    for z in (-1.0, 0.0, 0.5, 2.0):
        want = c.eta * math.exp(c.rho * z)  # = e^z here
        got = eval_via_representation(IDENTITY, z).value
        rep_ok &= abs(got - want) <= 1e-12 * (1.0 + abs(want))
        rep_ok &= abs(want - math.exp(z)) <= 1e-14 * (1.0 + math.exp(z))
    assert acceptance("degenerate-exactness", dens_ok and rep_ok)


def test_criterion_04_finite_laplace_adjudication(acceptance):
    # Probed claim: the quadrature of int_0^(1/2) e^(-zt) H(t) dt/t on
    # exp-collapse matches one of the two closed-form candidates.
    # Verdict: at z != 0 it matches neither, and the series-side oracle
    # agrees; at z = 0 all three are 0, so it matches both.
    # Evidence: upper (1,1) over lower (1/2,1/2),(1,1/2) gives the gamma
    # ratio gamma(1+s)/(gamma(1/2+s/2) gamma(1+s/2)) = 2^s/sqrt(pi), so
    # F(z) = e^(2z)/sqrt(pi): a pure atom at rho = 2 and H == 0.  The
    # transform is 0 (measured exactly 0; series side <= 4.4e-15; a 40-digit
    # mpmath nsum of the series gives 0), while each candidate is >= 0.066
    # in size, far from the 1e-6 matching tolerance.
    # Records per z: quadrature vs a, quadrature vs b, series side vs a,
    # series side vs b.
    ok = True
    rows = []
    for z in (-1.0, 0.5, 1.0, 2.0):
        quad_a, quad_b, series_a, series_b = _finite_laplace_identity(z)
        rows.append((z, [r.verdict for r in (quad_a, quad_b, series_a, series_b)],
                     quad_a.lhs, series_a.lhs))
        # neither candidate matches, on either side
        ok &= not any(r.ok() for r in (quad_a, quad_b, series_a, series_b))
        ok &= abs(quad_a.lhs) <= 1e-12 and abs(series_a.lhs) <= 1e-12
        ok &= min(quad_a.abs_err, quad_b.abs_err) > 1e-3
        atom = math.exp(-2.0 * z) / math.sqrt(math.pi)
        series = complex(fox_wright_value(EXP_COLLAPSE, -z)).real
        ok &= abs(series - atom) <= 1e-12 * (1.0 + atom)
    zero = _finite_laplace_identity(0.0)
    ok &= all(r.ok() for r in zero)  # both candidates match, on both sides
    assert acceptance("finite-laplace-adjudication", bool(ok)), (
        f"(z, verdicts, quadrature, series side): {rows}; "
        f"z = 0 verdicts {[r.verdict for r in zero]} — expected every comparison "
        "to fail with a zero transform at z != 0 and to pass at z = 0"
    )


def test_criterion_05_correction_coefficient_closed_form(acceptance):
    rng = random.Random(20240817)
    worst = 0.0
    for _ in range(20):
        mu1 = rng.uniform(0.1, 0.9)
        nu1 = 1.0 - mu1
        a = rng.uniform(0.05, 0.45)
        b = 0.5 - a
        ps = ParameterSet([(1.0, 1.0)], [(a, mu1), (b, nu1)])
        got = correction_coeffs(ps, 1)[1]
        want = (
            1.0 / 12.0
            - (6.0 * a * a - 6.0 * a + 1.0) / (12.0 * mu1)
            - (6.0 * b * b - 6.0 * b + 1.0) / (12.0 * nu1)
        )
        worst = max(worst, abs(got - want))
    assert acceptance("correction-coefficient", worst <= 1e-12), f"worst {worst:.3e}"


def test_criterion_06_two_sided_bounds(acceptance):
    # each bound is two <= records, (lower, value) and (value, upper)
    ok = hfun_nonneg_scan(DOUBLE_POLE).ok()
    for z in (0.1, 0.5, 1.0, 2.0):
        ok &= all(r.ok() for r in exp_kernel_bounds(DOUBLE_POLE, [z])[0])
        for lam in (1.0, 2.0):
            ok &= all(r.ok() for r in lifted_kernel_bounds(DOUBLE_POLE, lam, [z])[0])
    for sigma in (0.5, 3.0):
        for z in (0.1, 0.3):
            ok &= stieltjes_lower_bound(DOUBLE_POLE, sigma, [z])[0][0].ok()
    # collapse to equality at z = 0
    lower, upper = exp_kernel_bounds(DOUBLE_POLE, [0.0])[0]
    value = lower.rhs
    ok &= abs(upper.rhs - lower.lhs) <= 1e-12 * (1.0 + abs(value))
    ok &= abs(value - lower.lhs) <= 1e-12 * (1.0 + abs(value))
    for lam in (1.0, 2.0):
        lower, upper = lifted_kernel_bounds(DOUBLE_POLE, lam, [0.0])[0]
        ok &= abs(upper.rhs - lower.lhs) <= 1e-12 * (1.0 + abs(lower.rhs))
    for sigma in (0.5, 3.0):
        bound, _ = stieltjes_lower_bound(DOUBLE_POLE, sigma, [0.0])[0]
        ok &= abs(bound.rhs - bound.lhs) <= 1e-12 * (1.0 + abs(bound.rhs))
    assert acceptance("two-sided-bounds", bool(ok))


def test_criterion_07_ratio_monotonicity(acceptance):
    # Probed claim: on double-pole (sigma = 1) the shifted-ratio quotient is
    # nondecreasing in z for delta = 1 and nonincreasing for delta = -0.5.
    # Verdict: both directions are reversed.  Chebyshev's integral
    # inequality on the synchronous pair t^delta, t/(1+tz) makes the
    # z-derivative <= 0 for delta > 0 and >= 0 for delta < 0, which is the
    # scan's default direction.
    # Evidence: the claimed directions are violated by 4.3e-3 (delta = 1) and
    # 1.9e-2 (delta = -0.5); the default directions hold with no violation;
    # the series and quadrature routes agree to 3e-12 and 5e-12.  The
    # endpoint values below come from an mpmath oracle that shares no code
    # with the library: quadrature of H(t) = 2 G^{2,0}_{2,2}(t^2 | ; 1,1 /
    # 1/2,3/2 ;) at z = 0.05 and 0.95; the library matches them to 1.4e-11.
    grid = [float(v) for v in np.linspace(0.05, 0.95, 17)]
    claimed = {1.0: "nondecreasing", -0.5: "nonincreasing"}
    oracle_ends = {
        1.0: (0.474657049710, 0.423938705881),
        -0.5: (2.099166045794, 2.346952547264),
    }
    # A scan is 17 route records (rhs the quadrature value) and 16 step
    # records named after the default direction (lhs the step against it).
    # The claimed direction's steps are read off the route values and judged
    # at the scan's own tol, 1e-8.
    ok = True
    found = {}
    for delta, direction in claimed.items():
        records = ratio_monotonicity_scan(DOUBLE_POLE, 1.0, delta, grid)
        routes, steps = records[:17], records[17:]
        values = [r.rhs for r in routes]
        falls = [a - b for a, b in zip(values, values[1:])]
        claimed_steps = falls if direction == "nondecreasing" else [-f for f in falls]
        probe_ok = all(v <= 1e-8 for v in claimed_steps)
        probe_viol = max(0.0, max(claimed_steps))
        ok &= not probe_ok and probe_viol >= 4e-4
        expected = _scan_direction(steps[0])
        default_ok = all(r.ok() for r in steps)
        default_viol = max(0.0, max(r.lhs for r in steps))
        default_gap = max(r.rel_err for r in routes)
        ok &= expected != direction and default_ok
        ok &= default_gap <= 1e-6
        ends = (values[0], values[-1])
        ok &= all(
            abs(got - want) <= 1e-9 * abs(want) for got, want in zip(ends, oracle_ends[delta])
        )
        found[delta] = (probe_viol, default_viol, default_gap, ends)
    assert acceptance("ratio-monotonicity", bool(ok)), (
        f"per delta (claimed-direction violation, default-direction violation, "
        f"route gap, endpoint values): {found} — expected the claimed "
        "directions to fail and the default ones to hold"
    )


def test_criterion_08_cm_checker_sanity(acceptance):
    grid = [float(v) for v in np.logspace(math.log10(0.01), math.log10(10.0), 30)]

    def first_defect(f):
        """The first failing record: the lowest order, then the smallest x."""
        return next((r for r in cm_check(f, grid) if not r.ok()), None)

    ok = first_defect(lambda x: np.exp(-x)) is None
    ok &= first_defect(lambda x: 1.0 / (1.0 + x)) is None
    linear = first_defect(lambda x: x)
    ok &= linear is not None and linear.identity == "cm-order-1"
    remainder = first_defect(
        lambda x: (np.exp(-2.0 * x) - np.exp(-x / 2.0)) / math.sqrt(math.pi)
    )
    # the order-0 defect is a negative value: no nonnegative measure gives it
    ok &= (remainder is not None and remainder.identity == "cm-order-0"
           and remainder.lhs < remainder.rhs < 0.0)
    assert acceptance("cm-checker-sanity", bool(ok))


def test_criterion_09_small_t_slope(acceptance):
    # Probed claim: near t = 0, H(t) ~ t^(min a/A), so the log-log slope over
    # t in [1e-4, 1e-2] equals min a/A on both sets.  That exponent comes
    # from the gamma ratio's rightmost pole, at s = -min a/A, and holds only
    # where the residue there is nonzero.
    # Verdict: it holds on double-pole (slope measured 0.99997 against 1).
    # On exp-collapse the ratio is the entire function 2^s/sqrt(pi)
    # (duplication formula), so the pole at s = -1 has zero residue, the
    # measure is a pure atom at rho = 2 and H == 0: no slope exists.
    # Evidence: the ratio matches 2^s/sqrt(pi) on both sides of s = -1
    # (measured <= 1.2e-13 relative), the evaluator flags the set
    # degenerate, and the density is exactly 0 on the grid.
    ts = np.logspace(-4, -2, 12)
    want = min(a / s for a, s in DOUBLE_POLE.upper)
    hs = get_evaluator(DOUBLE_POLE).density(ts)
    slope = float(np.polyfit(np.log(ts), np.log(hs), 1)[0])
    ok = abs(slope - want) <= 0.05 * abs(want)
    ratio_err = max(
        abs(gamma_ratio(EXP_COLLAPSE, s) * math.sqrt(math.pi) / 2.0**s - 1.0)
        for s in (-0.5, -0.999, -1.001, -1.5, -2.3)
    )
    ok &= ratio_err <= 1e-10
    ev = get_evaluator(EXP_COLLAPSE)
    collapsed = ev.density(ts)
    ok &= ev.degenerate and bool(np.all(collapsed == 0.0))
    assert acceptance("small-t-slope", bool(ok)), (
        f"double-pole slope {slope:.5f} (want {want}); exp-collapse ratio vs "
        f"2^s/sqrt(pi) {ratio_err:.2e}, degenerate {ev.degenerate}, "
        f"max |H| {float(np.max(np.abs(collapsed))):.2e}"
    )


def test_criterion_10_dual_method_agreement(acceptance):
    # the residue series against the endpoint series, at 0.3 rho and 0.5 rho
    # where both converge
    worst = 0.0
    for ps in NAMED.values():
        ev = get_evaluator(ps)
        ts = np.array([0.3, 0.5]) * ev.rho
        res = ev.density(ts, method=HfunMethod.RESIDUE_SERIES)
        end = ev.density(ts, method=HfunMethod.ENDPOINT_SERIES)
        worst = max(worst, float(np.max(np.abs(res - end))))
    assert acceptance("dual-method-agreement", worst <= 1e-12), f"worst abs diff {worst:.3e}"
