#!/usr/bin/env python3
"""Layer bench: time the gamma kernels (L0), the series summation (L1), the
evaluator build (L2), the AUTO density (L3), the Laplace lift check (L5)
and a cold process's setup (L6) on their own, each row with its worst
digits against an mpmath oracle.

    python3 scripts/bench_layers.py --label LABEL [--src DIR] [--quick]

writes ``BENCH_<LABEL>.json`` in the current directory.  ``--src DIR`` times
the foxwright of another checkout (``DIR/src``), for example a ``git
archive`` copy of a parent commit, with the inputs, oracle and reference
probe of this one; ``--quick`` takes few repeats, for CI.

L0 rows time the gamma kernels at the 32 points x = 0.5, 1.25, .., 23.75:
``math.lgamma`` one call at a time, and ``special._log_gamma_taylor``'s
Taylor coefficients of log gamma(x + h), h^0 .. h^7, as one 32 x 8 block.
They are timed and scaled as the L1 rows below.  The lgamma row's
``digits`` is the worst relative error against mpmath's ``loggamma``; the
block's is the worst error, relative to max(1, |coefficient|) as the
kernel states its accuracy, against ``loggamma`` and polygamma(k-1, x)/k!.

L1 rows time ``fox_wright`` on each of the four catalog sets, one point at
a time over z = linspace(-2, 5, 8).  A repeat times a batch of passes over
the eight points between two ``reference_s`` probes of the benchmark's
worker, series-sweep's yardstick, and scales the per-point time by 0.4 ms
over the mean of the two probes.  Their ``digits`` is the worst, over the
eight points, against ``SeriesOracle``, computed once.

L2 and L3 rows come in pairs, one of each per parameter set family:

* each of the seven density-cold base classes of seed 4
  (``perfbench/inputs.py``), over that class's shifted sets in the order
  of the benchmark's call stream;
* each of the four catalog sets.

L2 is one ``MeasureEvaluator`` build on a set new to the process, as the
benchmark's density-cold call meets it: a density-cold family takes the
next sets of its class in each repeat, and foxwright's caches keyed by a
parameter set are cleared before every build, so a catalog set is new each
time too.  L3 is one AUTO ``density`` call on the benchmark's 1,000 band t
(times rho) on an evaluator just built.  Each repeat times one batch of
builds and then their density calls, between two ``reference_array_s``
probes of the benchmark's worker, and scales the per-call times by 0.4 ms
over the mean of the two probes, so a row is on the benchmark's yardstick,
not the host's speed of the moment.  A row reports the median and the
quartiles over the repeats.

``digits`` is the worst, over the family's 32 checked points of the band,
of the correct digits of the density of its first set against
``perfbench/oracle.py``'s ``DensityOracle``, computed once, outside the
timing.  That oracle takes equal-scale p = q sets; twin-quarter and
exp-collapse, gamma(a + s) over two scale-1/2 rows, reach it through the
duplication formula gamma(a + s) = 2^(a+s-1) gamma(a/2 + s/2)
gamma(a/2 + 1/2 + s/2) / sqrt(pi), so that H(t) = 2^(a-1) H_eq(t/2) /
sqrt(pi) on (0, 2).  A set whose rows cancel has H = 0 exactly.

L5 rows time ``laplace_lift_check`` on a warm evaluator, one row for each
``verify-laplace`` slot of the benchmark's identity-cli seed 4, on that
slot's set, lambda and grid of two z.  A repeat times a batch of calls
between two ``reference_mixed_s`` probes, identity-cli's yardstick, scaled
as above.  Their ``digits`` is the worst, over both records of the grid,
of both sides against ``SeriesOracle`` on the lifted rows at z, computed
once.

The L6 rows each time a new process per repeat.  ``cold-setup`` is
identity-cli's setup: ``import foxwright`` and ``foxwright.cli``, then the
four catalog evaluators built.  ``cold-eval`` is ``import foxwright.cli``
and one ``cli.main(["eval", "--params", "identity", "--z", "0,1"])``, its
report discarded.  The process inherits this one's environment, so it
reads or compiles bytecode as the benchmark's worker does.  Each takes the
worker's probes as the worker takes them for ``setup_s``, the best of three
``reference_s`` just before and just after, and scales the same way.
``cold-setup``'s ``digits`` is the worst of the four catalog L2 rows',
whose oracle checks the density of those evaluators; ``cold-eval``'s is
the identity L1 row's, whose oracle checks the series it sums.

``perfbench/inputs.py``, ``oracle.py`` and ``worker.py`` are loaded by
path and only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 4  # the density-cold and identity-cli seed the rows are taken from
CHECKS = 32  # checked band points per family, as the benchmark checks per class
SERIES_ZS = [-2.0 + i for i in range(8)]  # the L1 rows' points, linspace(-2, 5, 8)
GAMMA_XS = [0.5 + 0.75 * i for i in range(32)]  # the L0 rows' points
TAYLOR_TERMS = 8  # the L0 block is len(GAMMA_XS) x TAYLOR_TERMS coefficients
LGAMMA_PASSES = 100  # L0 lgamma passes over GAMMA_XS per L1 pass over SERIES_ZS

# An L6 process, its timed code put in for {work}: argv is the src directory
# and the worker's path; prints the scaled seconds of that code, as the
# worker scales setup_s.
COLD = """
import contextlib, importlib.util, io, sys, time
src, path = sys.argv[1:]
sys.path.insert(0, src)
spec = importlib.util.spec_from_file_location("perfbench_worker", path)
worker = importlib.util.module_from_spec(spec)
spec.loader.exec_module(worker)
before = min(worker.reference_s() for _ in range(3))
t0 = time.perf_counter()
{work}
raw = time.perf_counter() - t0
after = min(worker.reference_s() for _ in range(3))
assert sys.modules["foxwright"].__file__.startswith(src), sys.modules["foxwright"].__file__
print(raw * worker.REF_NOMINAL_S / (0.5 * (before + after)))
"""
# identity-cli's setup
COLD_SETUP = COLD.format(work="""\
import foxwright as fw
import foxwright.cli
for name in sorted(fw.NAMED_SETS):
    fw.get_evaluator(fw.NAMED_SETS[name])""")
# one series eval, its report discarded
COLD_EVAL = COLD.format(work="""\
import foxwright.cli
with contextlib.redirect_stdout(io.StringIO()):
    foxwright.cli.main(["eval", "--params", "identity", "--z", "0,1"])""")


def _load(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _families(inputs, fw, sets: int) -> list[dict]:
    """Name, (upper, lower) rows of the ``sets`` timed sets in call order,
    and the checked band indices of every row family.  A catalog family
    times its one set ``sets`` times."""
    cold = inputs.density_cold(SEED)
    bases, deltas = cold["bases"], cold["deltas"]
    families = []
    for b, base in enumerate(bases):
        mine = [d for i, d in enumerate(deltas) if i % len(bases) == b][:sets]
        families.append({
            "name": f"density-cold-{SEED}/class-{b}",
            "rows": [(inputs.shifted_rows(base["upper"], d), inputs.shifted_rows(base["lower"], d))
                     for d in mine],
            "checks": base["checks"],
        })
    n = len(cold["grid"])
    spread = sorted({round(i * (n - 1) / (CHECKS - 1)) for i in range(CHECKS)})
    for name, ps in fw.NAMED_SETS.items():
        families.append({"name": name, "rows": [(list(ps.upper), list(ps.lower))] * sets,
                         "checks": spread})
    return families


def _laplace_slots(inputs) -> list[dict]:
    """Set name, lambda and z grid of each identity-cli ``verify-laplace``
    slot, read from its argv as the CLI reads it."""
    slots = []
    for inv in inputs.identity_cli(SEED)["invocations"]:
        argv = inv["argv"]
        if argv[0] == "verify-laplace":
            [spec] = [a for a in argv if a.startswith("--z=")]
            slots.append({"name": argv[argv.index("--params") + 1],
                          "lam": float(argv[argv.index("--lift") + 1]),
                          "zs": [float(z) for z in spec[len("--z="):].split(",")]})
    return slots


def _series_digits(oracle, fw, ps) -> float:
    """Worst digits of ``fox_wright`` at the L1 points against the series oracle."""
    truth = oracle.SeriesOracle(ps.upper, ps.lower)
    return min(oracle.digits(oracle.rel_error(complex(fw.fox_wright(ps, z).value), truth.value(z)))
               for z in SERIES_ZS)


def _gamma_digits(oracle, taylor) -> tuple[float, float]:
    """Worst digits of ``math.lgamma`` and of the Taylor block at GAMMA_XS."""
    import numpy as np

    mp = oracle.mp
    block = taylor(np.array(GAMMA_XS), TAYLOR_TERMS).tolist()
    lgamma, coeffs = 16.0, 16.0
    with mp.workdps(40):
        for x, row in zip(GAMMA_XS, block):
            lgamma = min(lgamma, oracle.digits(oracle.rel_error(math.lgamma(x), mp.loggamma(x))))
            for k, value in enumerate(row):
                truth = mp.loggamma(x) if k == 0 else mp.polygamma(k - 1, x) / mp.factorial(k)
                err = abs(mp.mpf(value) - truth) / max(1, abs(truth))
                coeffs = min(coeffs, oracle.digits(float(err)))
    return lgamma, coeffs


def _laplace_digits(oracle, fw, slot) -> float:
    """Worst digits of both sides of every record against the lifted series."""
    ps = fw.NAMED_SETS[slot["name"]]
    truth = oracle.SeriesOracle(oracle.lifted_rows(ps.upper, slot["lam"]), ps.lower)
    records = fw.laplace_lift_check(ps, slot["lam"], slot["zs"])
    return min(oracle.digits(oracle.rel_error(side, truth.value(rec.z)))
               for rec in records for side in (rec.lhs, rec.rhs))


def _oracle_density(oracle, upper, lower):
    """t -> H(t) in mpmath for an equal-scale p = q set, or a twin-quarter
    shaped one through the duplication formula; None where the rows cancel."""
    mp = oracle.mp
    if sorted(upper) == sorted(lower):
        return None
    scales = {s for _, s in upper} | {s for _, s in lower}
    if len(scales) == 1 and len(upper) == len(lower):
        exact = oracle.DensityOracle(upper, lower)
        return exact.value
    [(a, one)] = upper
    if one != 1.0 or len(lower) != 2 or {s for _, s in lower} != {0.5}:
        raise ValueError(f"no density oracle for {upper} / {lower}")
    halves = [(a / 2, 0.5), (a / 2 + 0.5, 0.5)]
    if sorted(halves) == sorted(lower):
        return None
    exact = oracle.DensityOracle(halves, lower)
    with mp.workdps(30):
        factor = mp.mpf(2) ** (mp.mpf(a) - 1) / mp.sqrt(mp.pi)

    def value(t):
        with mp.workdps(30):
            return factor * exact.value(t / 2)

    return value


def _digits(oracle, fw, family, grid) -> float:
    upper, lower = family["rows"][0]
    ps = fw.ParameterSet(upper, lower)
    ev = fw.MeasureEvaluator(ps)
    truth = _oracle_density(oracle, upper, lower)
    points = ev.rho * grid[family["checks"]]
    got = ev.density(points)
    worst = 16.0
    for t, value in zip(points.tolist(), got.tolist()):
        err = oracle.rel_error(value, 0 if truth is None else truth(t))
        worst = min(worst, oracle.digits(err))
    return worst


def _set_caches() -> list:
    """foxwright's memoized functions of one parameter set: the bounded
    caches.  The unbounded ones hold tables a process builds once."""
    caches = []
    for name, mod in list(sys.modules.items()):
        if name == "foxwright" or name.startswith("foxwright."):
            for value in vars(mod).values():
                info = getattr(value, "cache_info", None)
                if info is not None and info().maxsize is not None and value not in caches:
                    caches.append(value)
    return caches


def _scaled_s(worker, probe, work) -> float:
    """Seconds ``work()`` takes, scaled by the worker's nominal probe time
    over the mean of ``probe`` (best of two) just before and just after."""
    before = min(probe() for _ in range(2))
    t0 = time.perf_counter()
    work()
    spent = time.perf_counter() - t0
    after = min(probe() for _ in range(2))
    return spent * worker.REF_NOMINAL_S / (0.5 * (before + after))


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=ROOT,
                    help="checkout whose src/foxwright is timed (default: this one)")
    ap.add_argument("--quick", action="store_true", help="few repeats, for CI")
    args = ap.parse_args(argv)
    src = args.src.resolve() / "src"
    sys.path.insert(0, str(src))
    import foxwright as fw
    import numpy as np

    if Path(fw.__file__).resolve().parent != src / "foxwright":
        raise SystemExit(f"foxwright imported from {fw.__file__}, not from {src}")

    inputs, oracle, worker = _load("inputs"), _load("oracle"), _load("worker")
    repeats, batch = (3, 4) if args.quick else (25, 10)
    families = _families(inputs, fw, repeats * batch)
    grid = np.array(inputs.density_grid())
    digits = {f["name"]: _digits(oracle, fw, f, grid) for f in families}
    caches = _set_caches()
    clock = time.perf_counter

    build = {f["name"]: [] for f in families}
    density = {f["name"]: [] for f in families}
    for r in range(repeats):
        for family in families:
            sets = [fw.ParameterSet(u, l) for u, l in family["rows"][r * batch : (r + 1) * batch]]
            before = min(worker.reference_array_s() for _ in range(2))
            built, evs = 0.0, []
            for ps in sets:
                # each build meets its set as new, even a catalog set again
                for cache in caches:
                    cache.cache_clear()
                t0 = clock()
                evs.append(fw.MeasureEvaluator(ps))
                built += clock() - t0
            points = [ev.rho * grid for ev in evs]
            t0 = clock()
            for ev, t in zip(evs, points):
                ev.density(t)
            dense = clock() - t0
            after = min(worker.reference_array_s() for _ in range(2))
            scale = worker.REF_NOMINAL_S / (0.5 * (before + after)) * 1e3 / len(sets)
            build[family["name"]].append(built * scale)
            density[family["name"]].append(dense * scale * 1000.0 / grid.size)

    # L5 after the builds, whose cache clearing would make its evaluators cold
    slots = _laplace_slots(inputs)
    for slot in slots:
        slot["family"] = f"identity-cli-{SEED}/{slot['name']}[lam={slot['lam']:g}]"
        slot["digits"] = _laplace_digits(oracle, fw, slot)  # also warms the evaluator
    lift = {slot["family"]: [] for slot in slots}
    for r in range(repeats):
        for slot in slots:
            ps, lam, zs = fw.NAMED_SETS[slot["name"]], slot["lam"], slot["zs"]
            spent = _scaled_s(worker, worker.reference_mixed_s,
                              lambda: [fw.laplace_lift_check(ps, lam, zs) for _ in range(batch)])
            lift[slot["family"]].append(spent * 1e3 / batch)

    # L0 and L1 after the builds too; the L1 digits warm the series' per-set caches
    from foxwright.special import _log_gamma_taylor

    xs = np.array(GAMMA_XS)
    gamma_digits = _gamma_digits(oracle, _log_gamma_taylor)
    gamma = {"lgamma": [], "taylor": []}
    for r in range(repeats):
        spent = _scaled_s(worker, worker.reference_s, lambda: [
            list(map(math.lgamma, GAMMA_XS)) for _ in range(batch * LGAMMA_PASSES)])
        gamma["lgamma"].append(spent * 1e9 / (batch * LGAMMA_PASSES * len(GAMMA_XS)))
        spent = _scaled_s(worker, worker.reference_s,
                          lambda: [_log_gamma_taylor(xs, TAYLOR_TERMS) for _ in range(batch)])
        gamma["taylor"].append(spent * 1e6 / batch)
    cold = {code: [] for code in (COLD_SETUP, COLD_EVAL)}
    for r in range(repeats):
        for code, times in cold.items():
            times.append(float(subprocess.run(
                [sys.executable, "-c", code, str(src), str(ROOT / "perfbench" / "worker.py")],
                check=True, capture_output=True, text=True).stdout) * 1e3)
    series = {name: [] for name in fw.NAMED_SETS}
    series_digits = {name: _series_digits(oracle, fw, ps) for name, ps in fw.NAMED_SETS.items()}
    for r in range(repeats):
        for name, ps in fw.NAMED_SETS.items():
            spent = _scaled_s(worker, worker.reference_s,
                              lambda: [fw.fox_wright(ps, z) for _ in range(batch) for z in SERIES_ZS])
            series[name].append(spent * 1e6 / (batch * len(SERIES_ZS)))

    rows = [
        {"layer": "L0", "what": "math.lgamma per call at x = 0.5, 1.25, .., 23.75",
         "family": "lgamma", "calls": repeats * batch * LGAMMA_PASSES * len(GAMMA_XS),
         "unit": "ns per call", **_quartiles(gamma["lgamma"]), "digits": gamma_digits[0]},
        {"layer": "L0", "what": f"special._log_gamma_taylor on a {len(GAMMA_XS)} x "
                                f"{TAYLOR_TERMS} block at the same x",
         "family": "log-gamma-taylor", "calls": repeats * batch, "unit": "us per block",
         **_quartiles(gamma["taylor"]), "digits": gamma_digits[1]},
    ]
    rows += [{"layer": "L1", "what": "fox_wright per point on z = linspace(-2, 5, 8)",
              "family": name, "calls": repeats * batch * len(SERIES_ZS), "unit": "us per point",
              **_quartiles(series[name]), "digits": series_digits[name]}
             for name in fw.NAMED_SETS]
    for layer, what, unit, times in (
        ("L2", "MeasureEvaluator build", "ms per build", build),
        ("L3", "AUTO density on the 1,000 band t", "ms per 1k points", density),
    ):
        for family in families:
            name = family["name"]
            rows.append({"layer": layer, "what": what, "family": name,
                         "calls": len(family["rows"]), "unit": unit,
                         **_quartiles(times[name]), "digits": digits[name]})
    for slot in slots:
        rows.append({"layer": "L5", "what": "laplace_lift_check on the slot's grid",
                     "family": slot["family"], "calls": repeats * batch,
                     "unit": "ms per call", **_quartiles(lift[slot["family"]]),
                     "digits": slot["digits"]})
    rows.append({"layer": "L6", "what": "identity-cli setup in a new process: import foxwright "
                                        "and foxwright.cli, build the four catalog evaluators",
                 "family": "cold-setup", "calls": repeats, "unit": "ms per setup",
                 **_quartiles(cold[COLD_SETUP]),
                 "digits": min(digits[name] for name in fw.NAMED_SETS)})
    rows.append({"layer": "L6", "what": "a series eval in a new process: import foxwright.cli, "
                                        "cli.main eval --params identity --z 0,1",
                 "family": "cold-eval", "calls": repeats, "unit": "ms per eval",
                 **_quartiles(cold[COLD_EVAL]), "digits": series_digits["identity"]})
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": repeats,
        "probe": "perfbench/worker.py reference_s (L0, L1, L6), reference_array_s (L2, L3) "
                 f"and reference_mixed_s (L5), scaled to {worker.REF_NOMINAL_S * 1e3:g} ms",
        "rows": rows,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        print(f"{row['layer']} {row['family']:<38} {row['median']:8.4f} {row['unit']} "
              f"(IQR {row['iqr']:.4f})  digits {row['digits']:.2f}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
