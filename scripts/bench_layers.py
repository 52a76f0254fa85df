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

Each row family is one ``Entry``: layer, what, family, unit, calls per
batch, the worker probe that scales it, the work of one batch, and digits.
A repeat runs one batch of each entry of a layer in turn, between the best
of two probes just before and just after it; ``_time`` scales the raw
seconds by the worker's nominal probe time, 0.4 ms, over the mean of the
two, so a row is on the benchmark's yardstick, not the host's speed of the
moment.  A row is the median and quartiles over the repeats.  The layers
run as L2/L3, L5, L0, L6, L1; ``digits`` is computed once, untimed.

L0 rows time the gamma kernels at the 32 points x = 0.5, 1.25, .., 23.75
(``reference_s``): ``math.lgamma`` one call at a time, and
``special._log_gamma_taylor``'s Taylor coefficients of log gamma(x + h),
h^0 .. h^7, as one 32 x 8 block.  Their ``digits`` is the worst error
against mpmath's ``loggamma``, and for the block polygamma(k-1, x)/k!,
relative to max(1, |coefficient|) as the kernel states its accuracy.

L1 rows time ``fox_wright`` on each of the four catalog sets, one point at
a time over z = linspace(-2, 5, 8) (``reference_s``, series-sweep's
yardstick); ``digits`` is the worst of the eight against ``SeriesOracle``.

L2 and L3 rows come in pairs, one per family: each of the seven
density-cold base classes of seed 4, over its shifted sets in the order of
the benchmark's call stream, and each of the four catalog sets.  L2 is one
``MeasureEvaluator`` build on a set new to the process, as the benchmark's
density-cold call meets it: a density-cold family takes the next sets of
its class in each repeat, and ``params._set_record``, the one cache keyed
by a set, is cleared before every build, outside the timed span.  L3 is
one AUTO ``density`` call on the 1,000 band t (times rho) on an evaluator
just built.  A pair's batch is its builds, then their density calls, in
one ``reference_array_s`` window.

Their ``digits`` is the worst, over the family's 32 checked points of the
band, of the density of its first set against ``perfbench/oracle.py``'s
``DensityOracle``.  That oracle takes equal-scale p = q sets; twin-quarter
and exp-collapse, gamma(a + s) over two scale-1/2 rows, reach it through
the duplication formula gamma(a + s) = 2^(a+s-1) gamma(a/2 + s/2)
gamma(a/2 + 1/2 + s/2) / sqrt(pi), so that H(t) = 2^(a-1) H_eq(t/2) /
sqrt(pi) on (0, 2).  A set whose rows cancel has H = 0 exactly.

L5 rows time ``laplace_lift_check`` on a warm evaluator, one row for each
``verify-laplace`` slot of the benchmark's identity-cli seed 4, on that
slot's set, lambda and grid of two z (``reference_mixed_s``, identity-cli's
yardstick).  Their ``digits`` is the worst, over both records of the grid,
of both sides against ``SeriesOracle`` on the lifted rows at z.

The L6 rows each time a new process per repeat.  ``cold-setup`` is
identity-cli's setup: ``import foxwright`` and ``foxwright.cli``, then the
four catalog evaluators built.  ``cold-eval`` is ``import foxwright.cli``
and one ``cli.main(["eval", "--params", "identity", "--z", "0,1"])``, its
report discarded.  ``cold-import`` is ``import foxwright`` and one
``fox_wright`` on ``identity`` at z = 0.5, what series-sweep's setup pays
before its first call.  The process inherits this one's environment, so it
reads or compiles bytecode as the benchmark's worker does, and prints its
raw seconds and its own probes, taken as the worker takes them for
``setup_s``: the best of three ``reference_s`` just before and just after.
``cold-setup``'s ``digits`` is the worst of the catalog L2 rows', whose
oracle checks those evaluators' density; ``cold-eval``'s and
``cold-import``'s are the identity L1 row's, whose oracle checks the series
they sum.

``perfbench/inputs.py``, ``oracle.py`` and ``worker.py`` are loaded by
path and only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SEED = 4  # the density-cold and identity-cli seed the rows are taken from
CHECKS = 32  # checked band points per family, as the benchmark checks per class
SERIES_ZS = [-2.0 + i for i in range(8)]  # the L1 rows' points, linspace(-2, 5, 8)
GAMMA_XS = [0.5 + 0.75 * i for i in range(32)]  # the L0 rows' points
TAYLOR_TERMS = 8  # the L0 block is len(GAMMA_XS) x TAYLOR_TERMS coefficients
LGAMMA_PASSES = 100  # L0 lgamma passes over GAMMA_XS per L1 pass over SERIES_ZS
PER_S = {"ns": 1e9, "us": 1e6, "ms": 1e3}  # a unit's first word, per second

# An L6 process, its timed code put in for {work}: identity-cli's setup, one
# series eval with its report discarded, or the import and one series sum.
# argv is the src directory and the worker's path; it prints the raw seconds
# of that code and its probes.
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
print(raw, before, after)
"""
COLD_SETUP = COLD.format(work="""\
import foxwright as fw
import foxwright.cli
for name in sorted(fw.NAMED_SETS):
    fw.get_evaluator(fw.NAMED_SETS[name])""")
COLD_EVAL = COLD.format(work="""\
import foxwright.cli
with contextlib.redirect_stdout(io.StringIO()):
    foxwright.cli.main(["eval", "--params", "identity", "--z", "0,1"])""")
COLD_IMPORT = COLD.format(work="""\
import foxwright as fw
fw.fox_wright(fw.NAMED_SETS["identity"], 0.5)""")


@dataclass
class Entry:
    """One row family.  ``work(r)`` runs batch r and returns a raw time for each
    consecutive entry of that work (an L2 and its L3), and with no ``probe`` a new
    process's probe minima too.  A batch is ``per`` (or ``calls``) of ``unit``."""

    layer: str
    what: str
    family: str
    unit: str
    calls: int
    probe: Callable[[], float] | None
    work: Callable
    digits: float
    per: float = 0.0
    times: list[float] = field(default_factory=list)


def _load(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _density_entries(inputs, oracle, worker, fw, grid, sets: int, batch: int) -> list[Entry]:
    """An L2 and an L3 entry for each density family: a density-cold class
    over its ``sets`` next sets in call order, or a catalog set timed
    ``sets`` times, each a new object."""
    cold, clock = inputs.density_cold(SEED), time.perf_counter
    bases, deltas, n = cold["bases"], cold["deltas"], len(cold["grid"])
    families = [(f"density-cold-{SEED}/class-{b}", base["checks"], [
        fw.ParameterSet(inputs.shifted_rows(base["upper"], d), inputs.shifted_rows(base["lower"], d))
        for d in deltas[b :: len(bases)][:sets]]) for b, base in enumerate(bases)]
    spread = sorted({round(i * (n - 1) / (CHECKS - 1)) for i in range(CHECKS)})
    families += [(name, spread, [fw.ParameterSet(ps.upper, ps.lower) for _ in range(sets)])
                 for name, ps in fw.NAMED_SETS.items()]
    entries = []
    for name, checks, mine in families:
        def work(r, mine=mine):
            built, evs = 0.0, []
            for ps in mine[r * batch : (r + 1) * batch]:
                fw.params._set_record.cache_clear()  # each build meets its set as new
                t0 = clock()
                evs.append(fw.MeasureEvaluator(ps))
                built += clock() - t0
            points = [ev.rho * grid for ev in evs]
            t0 = clock()
            for ev, t in zip(evs, points):
                ev.density(t)
            return built, clock() - t0

        digits = _density_digits(oracle, fw, mine[0], checks, grid)
        entries += [Entry("L2", "MeasureEvaluator build", name, "ms per build", batch,
                          worker.reference_array_s, work, digits),
                    Entry("L3", "AUTO density on the 1,000 band t", name, "ms per 1k points", batch,
                          worker.reference_array_s, work, digits, per=batch * grid.size / 1000.0)]
    return entries


def _laplace_slots(inputs, fw) -> list[tuple]:
    """Set name, set, lambda and z grid of each identity-cli
    ``verify-laplace`` slot, read from its argv as the CLI reads it."""
    slots = []
    for argv in (inv["argv"] for inv in inputs.identity_cli(SEED)["invocations"]):
        if argv[0] == "verify-laplace":
            [spec] = [a for a in argv if a.startswith("--z=")]
            name = argv[argv.index("--params") + 1]
            slots.append((name, fw.NAMED_SETS[name], float(argv[argv.index("--lift") + 1]),
                          [float(z) for z in spec[len("--z="):].split(",")]))
    return slots


def _series_digits(oracle, fw, ps) -> float:
    """Worst digits of ``fox_wright`` at the L1 points against the series oracle."""
    truth = oracle.SeriesOracle(ps.upper, ps.lower)
    return min(oracle.digits(oracle.rel_error(complex(fw.fox_wright(ps, z).value), truth.value(z)))
               for z in SERIES_ZS)


def _gamma_digits(oracle, taylor, xs) -> tuple[float, float]:
    """Worst digits of ``math.lgamma`` and of the Taylor block at GAMMA_XS."""
    mp = oracle.mp
    block = taylor(xs, TAYLOR_TERMS).tolist()
    lgamma, coeffs = 16.0, 16.0
    with mp.workdps(40):
        for x, row in zip(GAMMA_XS, block):
            lgamma = min(lgamma, oracle.digits(oracle.rel_error(math.lgamma(x), mp.loggamma(x))))
            for k, value in enumerate(row):
                truth = mp.loggamma(x) if k == 0 else mp.polygamma(k - 1, x) / mp.factorial(k)
                err = abs(mp.mpf(value) - truth) / max(1, abs(truth))
                coeffs = min(coeffs, oracle.digits(float(err)))
    return lgamma, coeffs


def _laplace_digits(oracle, fw, ps, lam: float, zs: list[float]) -> float:
    """Worst digits of both sides of every record against the lifted series."""
    truth = oracle.SeriesOracle(oracle.lifted_rows(ps.upper, lam), ps.lower)
    records = fw.laplace_lift_check(ps, lam, zs)
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


def _density_digits(oracle, fw, ps, checks, grid) -> float:
    ev = fw.MeasureEvaluator(ps)
    truth = _oracle_density(oracle, ps.upper, ps.lower)
    points = ev.rho * grid[checks]
    got = ev.density(points)
    worst = 16.0
    for t, value in zip(points.tolist(), got.tolist()):
        err = oracle.rel_error(value, 0 if truth is None else truth(t))
        worst = min(worst, oracle.digits(err))
    return worst


def _timed(fn) -> Callable:
    """The work of a batch that is one call of ``fn``: its raw seconds."""
    def work(r):
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0,)
    return work


def _cold(code: str, src: Path, worker) -> Callable:
    """The work of an L6 batch: ``code`` in a new process, with its own probes."""
    def work(r):
        out = subprocess.run([sys.executable, "-c", code, str(src), worker.__file__],
                             check=True, capture_output=True, text=True).stdout
        raw, before, after = map(float, out.split())
        return (raw,), before, after
    return work


def _time(worker, entries: list[Entry], repeats: int) -> None:
    """Repeat one batch of each entry in turn, and keep its raw seconds
    scaled by the worker's nominal probe time over the mean of the probe
    minima just before and just after it, per ``unit``."""
    for r in range(repeats):
        for (probe, work), group in itertools.groupby(entries, key=lambda e: (e.probe, e.work)):
            if probe is None:
                raws, before, after = work(r)
            else:
                before = min(probe() for _ in range(2))
                raws = work(r)
                after = min(probe() for _ in range(2))
            for entry, raw in zip(group, raws, strict=True):
                per_s = PER_S[entry.unit.split()[0]] / (entry.per or entry.calls)
                entry.times.append(raw * worker.REF_NOMINAL_S / (0.5 * (before + after)) * per_s)


def _row(entry: Entry, repeats: int) -> dict:
    q1, median, q3 = statistics.quantiles(entry.times, n=4, method="inclusive")
    return {"layer": entry.layer, "what": entry.what, "family": entry.family,
            "calls": repeats * entry.calls, "unit": entry.unit,
            "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "digits": entry.digits}


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
    from foxwright.special import _log_gamma_taylor

    if Path(fw.__file__).resolve().parent != src / "foxwright":
        raise SystemExit(f"foxwright imported from {fw.__file__}, not from {src}")

    inputs, oracle, worker = _load("inputs"), _load("oracle"), _load("worker")
    repeats, batch = (3, 4) if args.quick else (25, 10)
    density = _density_entries(inputs, oracle, worker, fw, np.array(inputs.density_grid()),
                               repeats * batch, batch)
    _time(worker, density, repeats)

    # L5 after the builds, whose cache clearing would leave its evaluators cold
    lift = [Entry("L5", "laplace_lift_check on the slot's grid",
                  f"identity-cli-{SEED}/{name}[lam={lam:g}]", "ms per call", batch,
                  worker.reference_mixed_s, _timed(lambda ps=ps, lam=lam, zs=zs: [
                      fw.laplace_lift_check(ps, lam, zs) for _ in range(batch)]),
                  _laplace_digits(oracle, fw, ps, lam, zs))  # which also warms the evaluator
            for name, ps, lam, zs in _laplace_slots(inputs, fw)]
    _time(worker, lift, repeats)

    xs = np.array(GAMMA_XS)
    lgamma_digits, taylor_digits = _gamma_digits(oracle, _log_gamma_taylor, xs)
    gamma = [
        Entry("L0", "math.lgamma per call at x = 0.5, 1.25, .., 23.75", "lgamma", "ns per call",
              batch * LGAMMA_PASSES * len(GAMMA_XS), worker.reference_s, _timed(lambda: [
                  list(map(math.lgamma, GAMMA_XS)) for _ in range(batch * LGAMMA_PASSES)]),
              lgamma_digits),
        Entry("L0", f"special._log_gamma_taylor on a {len(GAMMA_XS)} x {TAYLOR_TERMS} block "
                    "at the same x", "log-gamma-taylor", "us per block", batch, worker.reference_s,
              _timed(lambda: [_log_gamma_taylor(xs, TAYLOR_TERMS) for _ in range(batch)]),
              taylor_digits),
    ]
    _time(worker, gamma, repeats)

    # the L1 digits warm the series' per-set caches; L1 is timed after L6
    series = [Entry("L1", "fox_wright per point on z = linspace(-2, 5, 8)", name, "us per point",
                    batch * len(SERIES_ZS), worker.reference_s, _timed(lambda ps=ps: [
                        fw.fox_wright(ps, z) for _ in range(batch) for z in SERIES_ZS]),
                    _series_digits(oracle, fw, ps))
              for name, ps in fw.NAMED_SETS.items()]
    identity_digits = next(e.digits for e in series if e.family == "identity")
    cold = [
        Entry("L6", "identity-cli setup in a new process: import foxwright and foxwright.cli, "
                    "build the four catalog evaluators", "cold-setup", "ms per setup", 1, None,
              _cold(COLD_SETUP, src, worker),
              min(e.digits for e in density if e.family in fw.NAMED_SETS)),
        Entry("L6", "a series eval in a new process: import foxwright.cli, "
                    "cli.main eval --params identity --z 0,1", "cold-eval", "ms per eval", 1, None,
              _cold(COLD_EVAL, src, worker), identity_digits),
        Entry("L6", "series-sweep's setup in a new process: import foxwright, "
                    "fox_wright on identity at z = 0.5", "cold-import", "ms per import", 1, None,
              _cold(COLD_IMPORT, src, worker), identity_digits),
    ]
    _time(worker, cold, repeats)
    _time(worker, series, repeats)

    entries = sorted(density + lift + gamma + series + cold, key=lambda e: e.layer)
    rows = [_row(entry, repeats) for entry in entries]
    report = {
        "label": args.label, "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "repeats": repeats,
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
