"""The workload process: imports foxwright from this checkout and runs calls.

Usage (from ``run.py``; not meant to be run by hand)::

    python3 perfbench/worker.py INPUT.json OUTPUT.json --mode setup|time|trace
        [--seconds S] [--spans SPANS.jsonl.gz]

``setup`` times ``import foxwright`` plus the workload's warm-up and stops.
``time`` runs a closed loop, one call at a time, for ``--seconds`` of
normalized call time (see ``HostSpeed``).
``trace`` runs a fixed, seed-determined prefix of the call stream untraced,
then the same calls again traced, and reports per-layer figures.
After ``time`` or ``trace`` the worker makes each call of the workload's
probe (the known weak spots) once, untimed, after peak memory is read.
The process never imports mpmath; checking happens in the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Reference-probe time that timings are scaled to (see HostSpeed).
REF_NOMINAL_S = 0.4e-3
# Calls per pass in trace mode, per workload.
TRACE_CALLS = {"series-sweep": 384, "density-cold": 14, "identity-cli": 45}


def reference_s() -> float:
    """Seconds taken by a fixed, pure-Python mix of scalar math, complex
    arithmetic and list work: a yardstick for interpreter-bound workloads."""
    t0 = time.perf_counter()
    acc = 0.0
    zc = 0.3 + 0.4j
    xs = []
    for i in range(1, 1000):
        acc += math.lgamma(0.37 * i + 0.5) * math.exp(-1e-3 * i)
        zc = zc * (0.999 + 1e-3j) + 1e-4
        xs.append(acc)
    xs.sort()
    return time.perf_counter() - t0


def reference_array_s() -> float:
    """Seconds taken by fixed complex numpy array work (log, exp, an outer
    product and a reduction): a yardstick for array-bound workloads."""
    import numpy as np

    s = np.linspace(0.1, 3.0, 64) + 0.5j
    t = np.linspace(-2.0, 2.0, 48)
    t0 = time.perf_counter()
    for _ in range(3):
        w = np.exp(np.outer(t, s)) + np.log(s)[None, :]
        float(np.abs(w).sum())
    return time.perf_counter() - t0


def reference_mixed_s() -> float:
    """Mean of the two yardsticks, for a workload that splits its time
    between interpreter-bound code and numpy array kernels."""
    return 0.5 * (reference_s() + reference_array_s())


class HostSpeed:
    """Interleaved reference probes that put latencies on a fixed yardstick.

    This kind of shared host changes speed by up to 2x over seconds (its
    CPU time slows as much as its wall time, so the cause is the hardware,
    not descheduling).  Latencies measured between two probes are scaled by
    REF_NOMINAL_S over the mean of those probes, which removes most of that
    drift; the raw figures are kept alongside.
    """

    INTERVAL_S = 0.05

    def __init__(self, probe):
        self.probe = probe
        self.probes: list[float] = []
        self.pending: list[float] = []
        self.normalized: list[float] = []
        self.total = 0.0
        self.last = self._probe()
        self.at = time.perf_counter()

    def _probe(self) -> float:
        r = min(self.probe() for _ in range(2))
        self.probes.append(r)
        return r

    def add(self, latency: float) -> None:
        self.pending.append(latency)
        if time.perf_counter() - self.at >= self.INTERVAL_S:
            self.flush()

    def elapsed(self) -> float:
        """Normalized call time so far (pending calls at the last probe's scale)."""
        return self.total + sum(self.pending) * REF_NOMINAL_S / self.last

    def flush(self) -> None:
        nxt = self._probe()
        scale = REF_NOMINAL_S / (0.5 * (self.last + nxt))
        self.normalized.extend(x * scale for x in self.pending)
        self.total += scale * sum(self.pending)
        self.pending = []
        self.last = nxt
        self.at = time.perf_counter()


def _outcome_of(exc: BaseException, typed: type) -> str:
    kind = "error" if isinstance(exc, typed) else "untyped"
    return f"{kind}:{type(exc).__name__}"


class SeriesSweep:
    probe = staticmethod(reference_s)

    def __init__(self, spec: dict, fw):
        self.fw = fw
        self.sets = [fw.ParameterSet(s["upper"], s["lower"]) for s in spec["sets"]]
        self.points = spec["points"]
        self.order = spec["order"]
        self.results: dict[int, list] = {}

    def call(self, i: int):
        idx = self.order[i % len(self.order)]
        set_idx, re, im = self.points[idx]
        z = re if im == 0 else complex(re, im)
        try:
            res = self.fw.fox_wright(self.sets[set_idx], z)
        except Exception as exc:  # recorded per item; the parent classifies it
            return idx, (_outcome_of(exc, self.fw.FoxwrightError), None, None, 0)
        value = complex(res.value)
        return idx, (res.status.name, value.real, value.imag, res.terms_used)

    def record(self, out) -> int:
        idx, result = out
        _count(self.results.setdefault(idx, []), list(result))
        return 1


class DensityCold:
    # its time goes to numpy array kernels, which a slow host slows by a
    # different factor than interpreter-bound code
    probe = staticmethod(reference_array_s)

    def __init__(self, spec: dict, fw):
        import numpy as np

        from inputs import shifted_rows

        self.fw = fw
        self.shifted_rows = shifted_rows
        self.isfinite = np.isfinite
        self.bases = spec["bases"]
        self.grid = np.array(spec["grid"])
        self.deltas = spec["deltas"]
        self.results: list = []

    def call(self, i: int):
        b = i % len(self.bases)
        base, delta = self.bases[b], self.deltas[i]
        try:
            ps = self.fw.ParameterSet(self.shifted_rows(base["upper"], delta),
                                      self.shifted_rows(base["lower"], delta))
            vals = self.fw.get_evaluator(ps).density(self.grid)
        except Exception as exc:
            return i, b, _outcome_of(exc, self.fw.FoxwrightError), None
        return i, b, "ok", vals

    def record(self, out) -> int:
        i, b, status, vals = out
        if vals is None:
            self.results.append([i, b, status, 0, 0, None])
        else:
            sample = [float(vals[j]) for j in self.bases[b]["checks"]]
            finite = int(self.isfinite(vals).sum())
            self.results.append([i, b, status, int(vals.size), finite, sample])
        return len(self.grid)


class IdentityCli:
    # its integrals run numpy quadrature under Python-level CLI, verifier and
    # bound code
    probe = staticmethod(reference_mixed_s)

    def __init__(self, spec: dict, fw):
        from foxwright import cli

        self.cli = cli  # main is looked up per call, so the traced run sees the wrapper
        self.invocations = spec["invocations"]
        self.order = spec["order"]
        self.results: dict[int, list] = {}
        for name in sorted({inv["argv"][2] for inv in self.invocations}):
            fw.get_evaluator(fw.NAMED_SETS[name])

    def call(self, i: int):
        idx = self.order[i % len(self.order)]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(self.invocations[idx]["argv"])
        except Exception as exc:
            return idx, [f"untyped:{type(exc).__name__}", ""]
        return idx, [rc, out.getvalue()]

    def record(self, out) -> int:
        idx, result = out
        _count(self.results.setdefault(idx, []), result)
        return result[1].count("\n")


WORKLOADS = {"series-sweep": SeriesSweep, "density-cold": DensityCold, "identity-cli": IdentityCli}


def _count(variants: list, result: list) -> None:
    """Keep each distinct result once, with the number of calls that gave it."""
    key = repr(result)  # repr, so NaN results compare equal
    for v in variants:
        if repr(v[0]) == key:
            v[1] += 1
            return
    variants.append([result, 1])


def _closed_loop(work, first: int, calls: int | None, seconds: float | None, tracer=None):
    """Run calls one after another, for ``calls`` calls or until ``seconds``
    of normalized call time have passed, so that the amount of work does not
    follow the host's speed; returns (raw latencies, speed, items, wall)."""
    latencies = []
    items = 0
    clock = time.perf_counter
    speed = HostSpeed(work.probe)
    start = clock()
    i = first
    while True:
        if tracer is not None:
            tracer.item = i
            frame = tracer.enter("bench.call")
        t0 = clock()
        out = work.call(i)
        t1 = clock()
        if tracer is not None:
            tracer.exit(frame)
        latencies.append(t1 - t0)
        speed.add(t1 - t0)
        items += work.record(out)
        i += 1
        if calls is not None and i - first >= calls:
            break
        if seconds is not None and speed.elapsed() >= seconds:
            break
    wall = clock() - start
    speed.flush()
    return latencies, speed, items, wall


def _forget_sets() -> None:
    """Drop the evaluator cache and every memoized function of foxwright,
    returning it to the state ``import foxwright`` leaves."""
    sys.modules["foxwright.hfun"]._EVALUATORS.clear()
    for name, mod in list(sys.modules.items()):
        if name == "foxwright" or name.startswith("foxwright."):
            for value in vars(mod).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("input")
    ap.add_argument("output")
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.input).read_text())
    sys.path.insert(0, str(SRC))

    before = min(reference_s() for _ in range(3))
    t0 = time.perf_counter()
    import foxwright as fw

    work = WORKLOADS[spec["workload"]](spec, fw)
    setup_raw = time.perf_counter() - t0
    after = min(reference_s() for _ in range(3))
    if Path(fw.__file__).resolve().parent != SRC / "foxwright":
        raise SystemExit(f"foxwright imported from {fw.__file__}, not from this checkout")

    out = {"setup_s": setup_raw * REF_NOMINAL_S / (0.5 * (before + after)), "setup_raw_s": setup_raw}
    if args.mode == "time":
        lat, speed, items, wall = _closed_loop(work, 0, None, args.seconds)
        out.update(latencies=speed.normalized, raw_latencies=lat, probes=speed.probes,
                   items=items, wall_s=wall)
    elif args.mode == "trace":
        import spans

        n = TRACE_CALLS[spec["workload"]]
        # both passes make the same calls 0..n-1; density-cold's traced pass
        # must meet its sets as new, as the untraced pass did
        _, _, _, untraced = _closed_loop(work, 0, n, None)
        if spec["workload"] == "density-cold":
            _forget_sets()
        tracer = spans.Tracer()
        state = spans.install(tracer)
        work.results = type(work.results)()
        lat, speed, items, wall = _closed_loop(work, 0, n, None, tracer)
        layer = spans.layer_metrics(tracer, state)
        self_sum = sum(v for k, v in tracer.self_s.items() if not k.startswith("bench."))
        layer.update({
            "trace.wall_s": wall,
            "trace.untraced_s": untraced,
            "trace.overhead_s": wall - untraced,
            "trace.self_sum_s": self_sum,
            "trace.spans": tracer.spans,
        })
        if args.spans:
            tracer.write(args.spans)
        out.update(latencies=speed.normalized, raw_latencies=lat, probes=speed.probes,
                   items=items, wall_s=wall, layer=layer, stack_left=len(tracer.stack))
    if args.mode != "setup":
        out["results"] = work.results
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        probe = WORKLOADS[spec["workload"]](spec["probe"], fw)
        for i in range(spec["probe"]["calls"]):
            probe.record(probe.call(i))
        out["probe_results"] = probe.results
    Path(args.output).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
