#!/usr/bin/env python3
"""Layer bench: time the evaluator build (L2), the AUTO density (L3) and
the Laplace lift check (L5) on their own, each row with its worst digits
against an mpmath oracle.

    python3 scripts/bench_layers.py --label LABEL [--src DIR] [--quick]

writes ``BENCH_<LABEL>.json`` in the current directory.  ``--src DIR`` times
the foxwright of another checkout (``DIR/src``), for example a ``git
archive`` copy of a parent commit, with the inputs, oracle and reference
probe of this one; ``--quick`` takes few repeats, for CI.

Rows come in pairs, one L2 and one L3 per parameter set family:

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

``perfbench/inputs.py``, ``oracle.py`` and ``worker.py`` are loaded by
path and only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 4  # the density-cold and identity-cli seed the rows are taken from
CHECKS = 32  # checked band points per family, as the benchmark checks per class


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
            before = min(worker.reference_mixed_s() for _ in range(2))
            t0 = clock()
            for _ in range(batch):
                fw.laplace_lift_check(ps, lam, zs)
            spent = clock() - t0
            after = min(worker.reference_mixed_s() for _ in range(2))
            lift[slot["family"]].append(
                spent * worker.REF_NOMINAL_S / (0.5 * (before + after)) * 1e3 / batch)

    rows = []
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
    report = {
        "label": args.label,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "repeats": repeats,
        "probe": "perfbench/worker.py reference_array_s, scaled to "
                 f"{worker.REF_NOMINAL_S * 1e3:g} ms",
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
