"""foxwright benchmark: one seeded, oracle-checked workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the root
of the checkout; see ``perfbench/README.md`` for what each one measures.

The run generates its inputs from the seed, computes the mpmath oracle for
them, times set-up in fresh processes, then starts one worker process that
imports foxwright from ``src/`` of this checkout and runs a closed loop (one
caller, no threads, BLAS pinned to one thread).  Every output the worker
returns is checked against the oracle.  The last line of standard output is
the JSON result; the line before it carries the details (sample counts,
tail percentile, failure kinds).  A copy of both goes to
``.perfbench_out/results/`` for ``perfbench/compare.py``.

The timed loop holds only inputs outside the known weak spots, so no timed
operation fails at this commit; a miss, a typed error or a non-ok status
there counts in ``failed`` and makes ``correct`` false.  ``correct`` is also
false when outputs break their contract (a worker crash, a wrong count or
shape, unparsable CLI output), when an oracle cross-check fails, or when
traced self times exceed wall time.  The weak-spot inputs (the workload's
probe, see ``inputs.py``) are evaluated once per run outside the timed loop
and checked the same way; their misses are reported as known defects in the
details line and, in the traced run, as ``defects.items`` and
``defects.misses``, never in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath as mp

import inputs
import oracle

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
# Series points whose oracle cancellation factor exceeds this go to the probe:
# a double-precision sum keeps about 16 - log10(factor) digits, so below it
# the series can meet the 1e-8 tolerance a thousand times over.
KAPPA_MAX = 1e4
WORKER_TIMEOUT_S = 150
# Tail percentile per workload, fixed so that commits compare like with like.
# Each is the highest of 99.9 / 99 / 95 / 90 that, at this commit's rates
# with --seconds 25, leaves at least ten samples beyond it and sits inside
# one kind of call rather than on the edge between two; for series-sweep
# p99.9 is the cost of a single input and moved 40% from seed to seed, so
# p99 is used.
TAIL_PERCENTILE = {"series-sweep": 99.0, "density-cold": 90.0, "identity-cli": 95.0}

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, worker failure)."""


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples strictly beyond it."""
    data = sorted(values)
    idx = max(0, math.ceil(pct / 100.0 * len(data)) - 1)
    return data[idx], len(data) - idx - 1


def _run_worker(spec_path: Path, out_path: Path, mode: str, seconds: float, extra=()) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path),
           "--mode", mode, "--seconds", str(seconds), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(out_path.read_text())


class Check:
    """Tally of checked items: attempted, failed, digits and failure kinds."""

    def __init__(self, tol: float):
        self.tol = tol
        self.attempted = 0
        self.failed = 0
        self.digits: dict[float, int] = {}
        self.kinds: dict[str, int] = {}
        self.malformed: list[str] = []

    def item(self, ok_status: bool, err: float | None, count: int = 1, kind: str = "",
             gap: float | None = None) -> bool:
        """One checked output, seen ``count`` times; returns whether it passed.

        ``err`` is the relative error against the oracle and is judged
        against the tolerance.  Rows without a value carry only ``gap``, the
        distance between two sides that agree in truth; it sets their digits
        but not their verdict, which is the status.
        """
        ok = ok_status and (err is None or err <= self.tol)
        measured = err if err is not None else (gap or 0.0)
        d = oracle.digits(abs(measured)) if ok_status else 0.0
        self.attempted += count
        self.digits[d] = self.digits.get(d, 0) + count
        if not ok:
            self.failed += count
            label = kind if not ok_status else "oracle-miss"
            self.kinds[label] = self.kinds.get(label, 0) + count
        return ok

    def digits_median(self) -> float:
        half = self.attempted / 2.0
        seen = 0
        for d in sorted(self.digits):
            seen += self.digits[d]
            if seen >= half:
                return d
        return 0.0


# ---------------------------------------------------------------------------
# per-workload oracle and checks
# ---------------------------------------------------------------------------


def _split_series(spec: dict) -> list:
    """Evaluates the oracle at every point, moves the points with a
    cancellation factor above KAPPA_MAX from the timed order to the probe,
    and returns the truths by point index."""
    oracles = [oracle.SeriesOracle(s["upper"], s["lower"]) for s in spec["sets"]]
    truths, kappas = [], []
    for set_idx, re, im in spec["points"]:
        value, kappa = oracles[set_idx].evaluate(re if im == 0 else complex(re, im))
        truths.append(value)
        kappas.append(kappa)
    probe = [i for i in spec["order"] if kappas[i] > KAPPA_MAX]
    spec["order"] = [i for i in spec["order"] if kappas[i] <= KAPPA_MAX]
    spec["probe"] = {"workload": spec["workload"], "sets": spec["sets"],
                     "points": spec["points"], "order": probe, "calls": len(probe)}
    return truths


def _series_check(spec: dict, results: dict, check: Check, calls: int, truths: list) -> None:
    seen = 0
    for key, variants in results.items():
        idx = int(key)
        if not 0 <= idx < len(spec["points"]):
            check.malformed.append(f"series result for unknown point {idx}")
            continue
        im = spec["points"][idx][2]
        truth = truths[idx]
        for (status, vre, vim, _terms), count in variants:
            seen += count
            ok_status = status == "CONVERGED"
            err = None
            if ok_status:
                value = vre if im == 0 else complex(vre, vim)
                err = oracle.rel_error(value, truth)
            check.item(ok_status, err, count, kind=status)
    if seen != calls:
        check.malformed.append(f"series results cover {seen} calls of {calls}")


def _density_oracle(spec: dict) -> tuple[list, float]:
    """Per base, its density at each checked grid index; and the largest gap
    between the oracle's two routes."""
    truths = []
    worst_gap = 0.0
    for base in spec["bases"]:
        orc = oracle.DensityOracle(base["upper"], base["lower"])
        worst_gap = max(worst_gap, orc.self_check())
        truths.append({j: orc.value(spec["grid"][j]) for j in base["checks"]})
    return truths, worst_gap


def _density_check(spec: dict, results: list, check: Check, calls: int, truths) -> None:
    grid = spec["grid"]
    if len(results) != calls:
        check.malformed.append(f"density results for {len(results)} calls of {calls}")
    for i, b, status, size, finite, sample in results:
        checks = spec["bases"][b]["checks"]
        if status != "ok":
            check.item(False, None, len(checks), kind=status)
            continue
        if size != len(grid) or len(sample) != len(checks):
            check.malformed.append(f"density call {i} returned {size} values")
        # a non-finite value breaks the density's contract wherever it is;
        # those outside the oracle's sample are failed items of their own
        unsampled = size - finite - sum(not math.isfinite(v) for v in sample)
        if unsampled:
            check.item(False, None, unsampled, kind="nonfinite")
        delta = mp.mpf(spec["deltas"][i])
        with mp.workdps(30):
            for j, value in zip(checks, sample):
                truth = mp.mpf(grid[j]) ** delta * truths[b][j]
                check.item(True, oracle.rel_error(value, truth))


class _CliOracle:
    """Memoized truths for the numeric CLI rows."""

    def __init__(self):
        self.series: dict = {}
        self.memo: dict = {}

    def _series(self, upper, lower):
        key = (tuple(map(tuple, upper)), tuple(map(tuple, lower)))
        if key not in self.series:
            self.series[key] = oracle.SeriesOracle(upper, lower)
        return self.series[key]

    def lifted(self, upper, lower, lam, w):
        return self._series(oracle.lifted_rows(upper, lam), lower).value(w)

    def cm_status(self, inv: dict) -> str:
        """The status a cm-check row should carry: ``fail`` when F(-x) is
        negative at a grid point (an order-0 defect no finite-difference
        noise hides; twin-quarter's measure has a derivative atom), else
        ``pass``, as for the sets whose measure is nonnegative."""
        upper, lower = inputs.CATALOG[inv["params"]]
        series = self._series(upper, lower)
        return "fail" if any(series.value(-x) < 0 for x in inv["grid"]) else "pass"

    def truth(self, inv: dict, z: float):
        key = (inv["kind"], inv.get("params"), inv.get("lam"), inv.get("sigma"),
               inv.get("delta"), z)
        if key in self.memo:
            return self.memo[key]
        upper, lower = inputs.CATALOG[inv["params"]]
        kind = inv["kind"]
        if kind == "moments":
            value = oracle.gamma_ratio(upper, lower, z)
        elif kind == "series-neg":
            value = self._series(upper, lower).value(-z)
        elif kind == "lifted-neg":
            value = self.lifted(upper, lower, inv["lam"], -z)
        else:  # ratio: shifted over unshifted Stieltjes transform, series route
            sigma, delta = inv["sigma"], inv["delta"]
            su, sl = inputs.shifted_rows(upper, delta), inputs.shifted_rows(lower, delta)
            with mp.workdps(40):
                g = mp.gamma(sigma)
                parts = []
                for up, lo in ((su, sl), (upper, lower)):
                    rho, eta = oracle.constants(up, lo)
                    atom = g * eta * (1 + rho * z) ** (-sigma)
                    parts.append(self.lifted(up, lo, sigma, -z) - atom)
                value = parts[0] / parts[1]
        self.memo[key] = value
        return value


def _cli_check(spec: dict, results: dict, check: Check, calls: int) -> tuple[int, int]:
    """Checks every CLI row; returns (rows emitted, rows failed)."""
    orc = _CliOracle()
    rows_total = rows_failed = 0
    seen = 0
    for key, variants in results.items():
        inv = spec["invocations"][int(key)]
        for (rc, text), count in variants:
            seen += count
            if isinstance(rc, str):  # an exception escaped cli.main
                check.item(False, None, inv["rows"] * count, kind=rc)
                rows_failed += inv["rows"] * count
                continue
            try:
                rows = [json.loads(line) for line in text.splitlines()]
            except json.JSONDecodeError:
                rows = None
            if rows is None or len(rows) != inv["rows"]:
                check.malformed.append(f"{' '.join(inv['argv'])}: unexpected output")
                check.item(False, None, inv["rows"] * count, kind="malformed")
                rows_failed += inv["rows"] * count
                continue
            for n, row in enumerate(rows):
                ok_status = row["status"] in ("ok", "pass")
                z = row["z"]
                if inv["kind"] == "cm":
                    want = orc.cm_status(inv)
                    ok = check.item(row["status"] == want, None, count,
                                    kind=f"{row['status']} (want {want})")
                elif inv["kind"] != "verdict" and z is not None:
                    err = None
                    if inv["grid"] is not None and not math.isclose(z, inv["grid"][n], rel_tol=1e-9):
                        check.malformed.append(f"{' '.join(inv['argv'])}: row z {z}")
                    if ok_status:
                        err = oracle.rel_error(row["value_or_verdict"], orc.truth(inv, z))
                    ok = check.item(ok_status, err, count, kind=str(row["status"]))
                else:
                    gap = row.get("rel_err")
                    ok = check.item(ok_status, None, count, kind=str(row["status"]),
                                    gap=None if gap is None else float(gap))
                rows_failed += 0 if ok else count
            if (rc == 0) != all(r["status"] in ("ok", "pass") for r in rows):
                check.malformed.append(f"{' '.join(inv['argv'])}: exit code {rc} disagrees with rows")
            rows_total += len(rows) * count
    if seen != calls:
        check.malformed.append(f"cli results cover {seen} calls of {calls}")
    return rows_total, rows_failed


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def _units(entries) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, details)."""
    declared = _declared()
    if workload not in {w["name"] for w in declared["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    if not (ROOT / "src" / "foxwright" / "__init__.py").is_file():
        raise BenchError("src/foxwright is missing: run from a checkout of the repository")

    spec = inputs.GENERATORS[workload](seed)
    t_oracle = time.perf_counter()
    series_truths = _split_series(spec) if workload == "series-sweep" else None
    oracle_s = time.perf_counter() - t_oracle
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        spec_path = tmp / "spec.json"
        spec_path.write_text(json.dumps(spec))
        setups = [_run_worker(spec_path, tmp / f"setup{k}.json", "setup", 0)
                  for k in range(SETUP_PROBES)]
        extra = ("--spans", str(OUT / f"spans-{workload}.jsonl.gz")) if trace else ()
        worker = _run_worker(spec_path, tmp / "worker.json", "trace" if trace else "time",
                             seconds, extra)
    finally:
        for f in tmp.iterdir():
            f.unlink()
        tmp.rmdir()

    raw_setups = [p["setup_raw_s"] for p in setups] + [worker["setup_raw_s"]]
    t_oracle = time.perf_counter()
    tol = inputs.TOLERANCES[workload]
    check, known = Check(tol), Check(tol)
    calls = len(worker["latencies"])
    probe_spec = spec["probe"]
    details: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if workload == "series-sweep":
        _series_check(spec, worker["results"], check, calls, series_truths)
        _series_check(probe_spec, worker["probe_results"], known, probe_spec["calls"],
                      series_truths)
    elif workload == "density-cold":
        for part, chk, n, res in ((spec, check, calls, worker["results"]),
                                  (probe_spec, known, probe_spec["calls"], worker["probe_results"])):
            truths, gap = _density_oracle(part)
            details["oracle_route_gap"] = max(gap, details.get("oracle_route_gap", 0.0))
            _density_check(part, res, chk, n, truths)
        if details["oracle_route_gap"] > 1e-20:
            check.malformed.append(f"density oracle routes disagree by {details['oracle_route_gap']:.2e}")
    else:
        rows, rows_failed = _cli_check(spec, worker["results"], check, calls)
        _cli_check(probe_spec, worker["probe_results"], known, probe_spec["calls"])
    oracle_s += time.perf_counter() - t_oracle
    check.malformed += known.malformed

    lat = worker["latencies"]
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = percentile(lat, pct)
    details.update({
        "calls": calls,
        "items": worker["items"],
        "wall_s": worker["wall_s"],
        "tolerance": check.tol,
        "checked_items": check.attempted,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "latency_ms": {str(q): percentile(lat, q)[0] * 1e3 for q in (50, 90, 95, 99, 99.9)},
        "raw_items_per_s": worker["items"] / worker["wall_s"],
        "raw_call_p50_ms": statistics.median(worker["raw_latencies"]) * 1e3,
        "raw_setup_s": statistics.median(raw_setups),
        "reference_probe_ms": statistics.median(worker["probes"]) * 1e3,
        "setup_samples_s": [p["setup_s"] for p in setups] + [worker["setup_s"]],
        "failure_kinds": check.kinds,
        "known_defects": {"calls": probe_spec["calls"], "items": known.attempted,
                          "misses": known.failed, "kinds": known.kinds,
                          "digits_p50": known.digits_median() if known.attempted else None},
        "malformed": check.malformed[:10],
        "oracle_s": oracle_s,
    })
    correct = not check.malformed and check.failed == 0
    if trace:
        values = dict(worker["layer"])
        if workload == "identity-cli":
            values["cli.rows"], values["cli.rows_failed"] = rows, rows_failed
        else:
            values["cli.rows"] = values["cli.rows_failed"] = 0
        values["defects.items"], values["defects.misses"] = known.attempted, known.failed
        if values["trace.self_sum_s"] > values["trace.wall_s"] or worker["stack_left"]:
            correct = False
            details["malformed"].append("traced self times exceed wall time")
        units = _units(declared["per_layer"])
    else:
        values = {
            "setup_s": statistics.median(details["setup_samples_s"]),
            "items_per_s": worker["items"] / sum(lat),
            "call_p50_ms": statistics.median(lat) * 1e3,
            "call_tail_ms": tail * 1e3,
            "digits_p50": check.digits_median(),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        units = _units(declared["end_to_end"])
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return result, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, oracle.OracleError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"details": details, "result": result}, indent=1))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
