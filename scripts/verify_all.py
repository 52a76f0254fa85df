#!/usr/bin/env python3
"""Full verification gauntlet, human-readable.

Walks every identity, bound, and scan the library implements, printing one
line per check.  Like the pytest acceptance gate, whose three criteria that
probe a refuted claim assert the measured verdict instead, this script
asserts the *measured* truths, so a healthy build exits 0.
"""

from __future__ import annotations

import math
import sys

import mpmath
import numpy as np

from foxwright import (
    HfunMethod,
    MeasureEvaluator,
    ParameterSet,
    cm_check,
    derive_constants,
    eval_via_representation,
    exp_kernel_bounds,
    fox_wright_value,
    gamma_ratio,
    get_evaluator,
    hfun_nonneg_scan,
    laplace_lift_check,
    lifted_kernel_bounds,
    ratio_monotonicity_scan,
    stieltjes_lower_bound,
    verify_representation,
    verify_stieltjes,
)
from foxwright.catalog import NAMED_SETS
from foxwright.representations import _finite_laplace_identity

FAILURES: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    mark = "ok  " if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{mark}] {name}{suffix}")
    if not ok:
        FAILURES.append(name)


def section(title: str) -> None:
    print(f"\n== {title} ==")


def _mpmath_moment(ev, k: float) -> float:
    """integral_0^rho t^(k-1) H(t) dt by mpmath.quad on the AUTO density over
    [0, rho/2, rho], one float node at a time: shares no node or weight with
    the rule.  Nodes that round onto 0 or rho carry 0."""
    rho = ev.rho

    def integrand(t):
        t = float(t)
        if not 0.0 < t < rho:
            return 0.0
        return t ** (k - 1.0) * float(ev.density(np.array([t]))[0])

    return float(mpmath.quad(integrand, [0.0, rho / 2.0, rho]))


def main() -> int:
    section("derived constants")
    for name, ps in NAMED_SETS.items():
        c = derive_constants(ps)
        check(
            f"{name}: balanced, rho={c.rho:g}, mu={c.mu:g}, eta={c.eta:.6g}",
            abs(c.delta) < 1e-12,
        )

    section("moment identities (k = 0..8 and half-integers)")
    ks = [float(k) for k in range(9)] + [0.5, 1.5, 2.5]
    for name, ps in NAMED_SETS.items():
        ev = get_evaluator(ps)
        worst = max(
            abs(gamma_ratio(ps, k) - (ev.moment(k) + ev.atom_mellin(k)))
            / (1.0 + abs(gamma_ratio(ps, k)))
            for k in ks
        )
        check(f"{name}: worst rel err {worst:.2e}", worst < 1e-6)

    section("cached tanh-sinh rule vs mpmath.quad (same moments)")
    for name, ps in NAMED_SETS.items():
        ev = get_evaluator(ps)
        if ev.degenerate:
            continue
        worst = 0.0
        for k in ks:
            want = _mpmath_moment(ev, k)
            worst = max(worst, abs(ev.moment(k) - want) / (1.0 + abs(want)))
        check(f"{name}: worst rel gap {worst:.2e}", worst < 1e-12)

    section("density: dual-route agreement and nonnegativity")
    for name, ps in NAMED_SETS.items():
        ev = get_evaluator(ps)
        # 0.3 rho and 0.5 rho: both the residue and the endpoint series converge
        ts = np.array([0.3, 0.5]) * ev.rho
        diff = float(
            np.max(
                np.abs(
                    ev.density(ts, method=HfunMethod.RESIDUE_SERIES)
                    - ev.density(ts, method=HfunMethod.ENDPOINT_SERIES)
                )
            )
        )
        check(f"{name}: residue vs endpoint series diff {diff:.2e}", diff < 1e-12)
        scan = hfun_nonneg_scan(ps)
        check(f"{name}: density nonnegative (min {scan.lhs:.2e})", scan.ok())

    section("exponential-kernel representation vs series")
    for name, ps in NAMED_SETS.items():
        for z in (-3.0, -1.0, 0.0, 1.0, 2.0):
            rec = verify_representation(ps, [z])[0]
            check(f"{name} z={z:g}: rel err {rec.rel_err:.2e}", rec.verdict == "pass")

    section("power-kernel (Stieltjes) identities")
    # mu = -2: the atoms act through a kernel's first and second derivatives
    sets = {**NAMED_SETS, "mu=-2": ParameterSet([(1.0, 1.0)], [(0.25, 0.5), (-0.75, 0.5)])}
    for name, sigma, z in (
        ("exp-collapse", 1.0, 0.3),
        ("exp-collapse", 2.0, 0.25),
        ("double-pole", 2.0, 0.5),
        ("double-pole", 0.5, 0.3),
        ("twin-quarter", 2.0, 0.3),
        ("mu=-2", 2.5, 0.25),
    ):
        rec = verify_stieltjes(sets[name], sigma, [z])[0]
        check(f"{name} sigma={sigma:g} z={z:g}: rel err {rec.rel_err:.2e}",
              rec.verdict == "pass")

    section("gamma-weighted (Laplace) lift")
    for name, lam, z in (
        ("identity", 1.0, 0.7),
        ("exp-collapse", 1.5, -0.4),
        ("exp-collapse", 1.0, -0.9),
        ("double-pole", 2.0, -0.6),
    ):
        rec = laplace_lift_check(NAMED_SETS[name], lam, [z])[0]
        check(f"{name} lam={lam:g} z={z:g}: rel err {rec.rel_err:.2e}",
              rec.verdict == "pass")

    section("Laplace lift beyond the disk")
    for name, lam, z in (
        ("exp-collapse", 1.5, -1.0),  # rho |z| = 2
        ("double-pole", 1.5, -3.0),  # rho |z| = 3
        ("twin-quarter", 2.0, -1.0),  # rho |z| = 2, m = 1
        ("identity", 1.0, 0.9),  # integrand decays only like e^(-0.1 t)
    ):
        rec = laplace_lift_check(NAMED_SETS[name], lam, [z])[0]
        check(f"{name} lam={lam:g} z={z:g}: rel err {rec.rel_err:.2e}",
              rec.verdict == "pass")

    section("finite-transform adjudication (measured verdicts)")
    # records: quadrature vs a, quadrature vs b, series side vs a, series side vs b
    quad_a, quad_b, _, _ = _finite_laplace_identity(0.0)
    check("z=0: both candidates match", quad_a.ok() and quad_b.ok())
    for z in (-1.0, 0.5, 1.0, 2.0):
        recs = _finite_laplace_identity(z)
        quad_a, quad_b = recs[:2]
        check(
            f"z={z:g}: quadrature {quad_a.lhs:g} matches neither candidate "
            f"(errs {quad_a.abs_err:.2e}, {quad_b.abs_err:.2e})",
            not any(r.ok() for r in recs),
        )

    section("two-sided bounds on the double-pole set")
    dp = NAMED_SETS["double-pole"]
    for z in (0.0, 0.1, 0.5, 1.0, 2.0):
        lower, upper = exp_kernel_bounds(dp, [z])[0]
        check(
            f"exp kernel z={z:g}: {lower.lhs:.6f} <= {lower.rhs:.6f} <= {upper.rhs:.6f}",
            lower.ok() and upper.ok(),
        )
    for lam in (1.0, 2.0):
        for z in (0.1, 0.5, 1.0, 2.0):
            lower, upper = lifted_kernel_bounds(dp, lam, [z])[0]
            check(f"lifted lam={lam:g} z={z:g}: sandwich width {upper.rhs - lower.lhs:.2e}",
                  lower.ok() and upper.ok())
    for sigma in (0.5, 3.0):
        for z in (0.1, 0.3):
            lower, step = stieltjes_lower_bound(dp, sigma, [z])[0]
            check(f"sigma={sigma:g} z={z:g}: margin {lower.rhs - lower.lhs:.2e}",
                  lower.ok() and step.ok())

    section("complete monotonicity")
    grid = [float(v) for v in np.logspace(math.log10(0.01), math.log10(10.0), 30)]

    def first_defect(f):
        return next((r.identity for r in cm_check(f, grid) if not r.ok()), None)

    check("e^(-z) clean", first_defect(lambda x: np.exp(-x)) is None)
    check("1/(1+z) clean", first_defect(lambda x: 1.0 / (1.0 + x)) is None)
    check(
        "double-pole series value clean",
        first_defect(lambda xs: [fox_wright_value(dp, -x) for x in xs.tolist()]) is None,
    )
    check("z flagged at order 1", first_defect(lambda x: x) == "cm-order-1")
    check(
        "sign-crossing remainder flagged at order 0",
        first_defect(lambda x: (np.exp(-2.0 * x) - np.exp(-x / 2.0)) / math.sqrt(math.pi))
        == "cm-order-0",
    )

    section("shifted-ratio monotonicity (measured directions)")
    grid17 = [float(v) for v in np.linspace(0.05, 0.95, 17)]
    for delta, direction in ((1.0, "+1 nonincreasing"), (-0.5, "-0.5 nondecreasing")):
        recs = ratio_monotonicity_scan(dp, 1.0, delta, grid17)
        routes, steps = recs[:17], recs[17:]
        viol = max(0.0, max(r.lhs for r in steps))
        gap = max(r.rel_err for r in routes)
        check(
            f"delta={direction} (viol {viol:.2e}, routes {gap:.2e})",
            all(r.ok() for r in steps) and gap < 1e-6,
        )

    section("degeneracy from the residue table")
    entire = {
        "exp-collapse": NAMED_SETS["exp-collapse"],
        "identity": NAMED_SETS["identity"],
        "gauss (1,1)/(1/3,1/3)(2/3,1/3)(1,1/3)": ParameterSet(
            [(1.0, 1.0)], [(1 / 3, 1 / 3), (2 / 3, 1 / 3), (1.0, 1 / 3)]
        ),
    }
    for name, ps in entire.items():
        ev = MeasureEvaluator(ps)
        zeros = bool(np.all(ev.density(np.linspace(0.05, 0.95, 19) * ev.rho) == 0.0))
        check(f"{name}: degenerate, AUTO density exactly 0", ev.degenerate and zeros)
    near = MeasureEvaluator(ParameterSet([(1.0, 1.0)], [(0.5, 0.5), (1.0 + 1e-6, 0.5)]))
    check("(1,1)/(1/2,1/2)(1+1e-6,1/2), 1e-6 from entire: not degenerate", not near.degenerate)

    section("degenerate collapse")
    ev = get_evaluator(NAMED_SETS["exp-collapse"])
    c = derive_constants(NAMED_SETS["exp-collapse"])
    dens_max = float(np.max(np.abs(ev.density(np.linspace(0.01, 1.99, 50)))))
    check(f"collapse density identically 0 (max {dens_max:.1e})", dens_max <= 1e-9)
    worst = max(
        abs(eval_via_representation(NAMED_SETS["exp-collapse"], z).value
            - c.eta * math.exp(c.rho * z))
        for z in (-1.0, 0.0, 1.0)
    )
    check(f"representation equals eta e^(rho z) (worst {worst:.1e})", worst < 1e-12)

    print()
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed:")
        for name in FAILURES:
            print(f"  - {name}")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
