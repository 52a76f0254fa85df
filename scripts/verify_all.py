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

import numpy as np

from foxwright import (
    HfunMethod,
    MeasureEvaluator,
    ParameterSet,
    cm_check,
    derive_constants,
    eval_via_representation,
    exp_kernel_bounds,
    finite_laplace_identity,
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
from foxwright.quadrature import integrate_adaptive

FAILURES: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    mark = "ok  " if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"  [{mark}] {name}{suffix}")
    if not ok:
        FAILURES.append(name)


def section(title: str) -> None:
    print(f"\n== {title} ==")


def _gk15_moment(ev, k: float) -> float:
    """integral_0^rho t^(k-1) H(t) dt by adaptive GK15 on the AUTO density,
    with t = rho u^2 below rho/2: shares no node or weight with the rule."""
    rho = ev.rho

    def left(u):
        t = rho * u * u
        return t ** (k - 1.0) * ev.density(t) * 2.0 * rho * u

    def right(t):
        return t ** (k - 1.0) * ev.density(t)

    return integrate_adaptive(left, 0.0, math.sqrt(0.5), 1e-14, 1e-12) + integrate_adaptive(
        right, rho / 2.0, rho, 1e-14, 1e-12
    )


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

    section("cached tanh-sinh rule vs adaptive GK15 (same moments)")
    for name, ps in NAMED_SETS.items():
        ev = get_evaluator(ps)
        if ev.degenerate:
            continue
        worst = 0.0
        for k in ks:
            gk = _gk15_moment(ev, k)
            worst = max(worst, abs(ev.moment(k) - gk) / (1.0 + abs(gk)))
        check(f"{name}: worst rel gap {worst:.2e}", worst < 1e-9)

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
        check(f"{name}: density nonnegative (min {scan.min_value:.2e})", scan.nonneg)

    section("exponential-kernel representation vs series")
    for name, ps in NAMED_SETS.items():
        for z in (-3.0, -1.0, 0.0, 1.0, 2.0):
            rec = verify_representation(ps, z)
            check(f"{name} z={z:g}: rel err {rec.rel_err:.2e}", rec.verdict == "pass")

    section("power-kernel (Stieltjes) identities")
    for name, sigma, z in (
        ("exp-collapse", 1.0, 0.3),
        ("exp-collapse", 2.0, 0.25),
        ("double-pole", 2.0, 0.5),
        ("double-pole", 0.5, 0.3),
    ):
        rec = verify_stieltjes(NAMED_SETS[name], sigma, z)
        check(f"{name} sigma={sigma:g} z={z:g}: rel err {rec.rel_err:.2e}",
              rec.verdict == "pass")

    section("gamma-weighted (Laplace) lift")
    for name, lam, z in (
        ("identity", 1.0, 0.7),
        ("exp-collapse", 1.5, -0.4),
        ("exp-collapse", 1.0, -0.9),
        ("double-pole", 2.0, -0.6),
    ):
        rec = laplace_lift_check(NAMED_SETS[name], lam, z)
        check(f"{name} lam={lam:g} z={z:g}: rel err {rec.rel_err:.2e}",
              rec.verdict == "pass")

    section("finite-transform adjudication (measured verdicts)")
    rep0 = finite_laplace_identity(0.0)
    check("z=0: both candidates match", rep0.verdict == "both")
    for z in (-1.0, 0.5, 1.0, 2.0):
        rep = finite_laplace_identity(z)
        check(
            f"z={z:g}: quadrature {rep.quadrature:g} matches neither candidate "
            f"(errs {rep.err_a:.2e}, {rep.err_b:.2e})",
            rep.verdict == "neither" and rep.series_verdict == "neither",
        )

    section("two-sided bounds on the double-pole set")
    dp = NAMED_SETS["double-pole"]
    for z in (0.0, 0.1, 0.5, 1.0, 2.0):
        rep = exp_kernel_bounds(dp, z)
        check(
            f"exp kernel z={z:g}: {rep.lower:.6f} <= {rep.value:.6f} <= {rep.upper:.6f}",
            rep.lower_ok and rep.upper_ok,
        )
    for lam in (1.0, 2.0):
        for z in (0.1, 0.5, 1.0, 2.0):
            rep = lifted_kernel_bounds(dp, lam, z)
            check(f"lifted lam={lam:g} z={z:g}: sandwich width {rep.upper - rep.lower:.2e}",
                  rep.lower_ok and rep.upper_ok)
    for sigma in (0.5, 3.0):
        for z in (0.1, 0.3):
            rep = stieltjes_lower_bound(dp, sigma, z)
            check(f"sigma={sigma:g} z={z:g}: margin {rep.margin:.2e}",
                  rep.bound_ok and rep.mean_power_ok)

    section("complete monotonicity")
    grid = [float(v) for v in np.logspace(math.log10(0.01), math.log10(10.0), 30)]
    check("e^(-z) clean", cm_check(lambda x: math.exp(-x), grid, 0.05, 6).clean)
    check("1/(1+z) clean", cm_check(lambda x: 1.0 / (1.0 + x), grid, 0.05, 6).clean)
    check(
        "double-pole series value clean",
        cm_check(lambda x: complex(fox_wright_value(dp, -x)).real, grid, 0.05, 6).clean,
    )
    lin = cm_check(lambda x: x, grid, 0.05, 6)
    check("z flagged at order 1", lin.first_violation is not None and lin.first_violation[0] == 1)
    rem = cm_check(
        lambda x: (math.exp(-2.0 * x) - math.exp(-x / 2.0)) / math.sqrt(math.pi),
        grid, 0.05, 6,
    )
    check("sign-crossing remainder flagged at order 0",
          rem.first_violation is not None and rem.first_violation[0] == 0)

    section("shifted-ratio monotonicity (measured directions)")
    grid17 = [float(v) for v in np.linspace(0.05, 0.95, 17)]
    up = ratio_monotonicity_scan(dp, 1.0, 1.0, grid17)
    check(
        f"delta=+1 nonincreasing (viol {up.max_violation:.2e}, routes {up.max_route_gap:.2e})",
        up.monotone_ok and up.max_route_gap < 1e-6,
    )
    down = ratio_monotonicity_scan(dp, 1.0, -0.5, grid17)
    check(
        f"delta=-0.5 nondecreasing (viol {down.max_violation:.2e}, routes {down.max_route_gap:.2e})",
        down.monotone_ok and down.max_route_gap < 1e-6,
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
