"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (or single files) of the JSON results that
``run.py`` writes to ``.perfbench_out/results/``, one set per commit, made
with the same ``--seconds``.  Runs are paired by seed.  For each workload
and end-to-end metric the report gives each side's median and quartiles,
the share of pairs the new side won (ties count for neither) and a verdict:

* ``better``     -- the new side won at least 9/10 of the pairs and the
                    medians differ by more than the base's quartile spread;
* ``worse``      -- the new median is worse than the base median by more
                    than the metric's bound in BENCHMARK.json;
* ``no worse``   -- neither of the above;
* ``unresolved`` -- the base's own spread (Q3 - Q1 over the median) is wider
                    than the bound, unless every new run beats (or loses to)
                    every base run.

Traced results are compared on their per-layer metrics the same way, with
no bound (so never ``worse``).  Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from a directory or one file."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = {}
    for f in files:
        data = json.loads(f.read_text())
        d = data["details"]
        metrics = {k: v["value"] for k, v in data["result"]["metrics"].items()}
        out.setdefault((d["workload"], d["trace"]), {})[d["seed"]] = metrics
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            higher_better: bool, bound: float | None) -> dict:
    sign = 1.0 if higher_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    won = wins / len(pairs) if pairs else 0.0
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    change = sign * (nm - bm) / abs(bm) if bm else 0.0
    if bound is not None and change < -bound:
        label = "worse"
    elif won >= 0.9 and abs(nm - bm) > (b3 - b1):
        label = "better"
    else:
        label = "no worse"
    if bound is not None and spread > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            label = "better"
        elif all(sign * (n - b) < 0 for n in new for b in base):
            label = "worse"
        else:
            label = "unresolved"
    return {"base": (b1, bm, b3), "new": (n1, nm, n3), "won": won, "pairs": len(pairs),
            "spread": spread, "change": change, "verdict": label}


def compare(base: dict, new: dict, declared: dict) -> list[dict]:
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    rows = []
    for key in sorted(set(base) & set(new)):
        b_runs, n_runs = base[key], new[key]
        common = sorted(set(b_runs) & set(n_runs))
        if common:
            pairs_idx = [(b_runs[s], n_runs[s]) for s in common]
        else:
            pairs_idx = list(zip((b_runs[s] for s in sorted(b_runs)),
                                 (n_runs[s] for s in sorted(n_runs))))
        names = [n for n in specs if n in next(iter(b_runs.values()))]
        for name in names:
            spec = specs[name]
            b_vals = [m[name] for m in b_runs.values()]
            n_vals = [m[name] for m in n_runs.values()]
            pairs = [(b[name], n[name]) for b, n in pairs_idx]
            row = verdict(b_vals, n_vals, pairs, spec["better"] == "higher", spec.get("bound"))
            row.update(workload=key[0], trace=key[1], metric=name)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), declared)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':14} {'metric':42} {'base q1/med/q3':>32} {'new q1/med/q3':>32} "
          f"{'won':>9} {'change':>8}  verdict")
    for r in rows:
        b = "/".join(f"{v:.4g}" for v in r["base"])
        n = "/".join(f"{v:.4g}" for v in r["new"])
        won = f"{r['won']:.2f}/{r['pairs']}"
        print(f"{r['workload']:14} {r['metric']:42} {b:>32} {n:>32} {won:>9} "
              f"{r['change']:+8.3f}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
