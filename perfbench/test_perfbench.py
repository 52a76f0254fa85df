"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py -q

They check that inputs are a pure function of the seed, that the mpmath
oracles agree with foxwright where foxwright is known to be accurate, that
self time is derived correctly on a synthetic span tree, that the compare
verdicts follow their rules, and that a real run prints exactly the metrics
BENCHMARK.json declares (and refuses to run without the sources).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import foxwright as fw  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_inputs_are_a_function_of_the_seed(workload):
    gen = inputs.GENERATORS[workload]
    assert json.dumps(gen(7)) == json.dumps(gen(7))
    assert json.dumps(gen(7)) != json.dumps(gen(8))


def test_declared_workloads_have_generators():
    assert {w["name"] for w in DECLARED["workloads"]} == set(inputs.GENERATORS)


def test_series_deep_negative_band_goes_to_the_probe():
    spec = inputs.series_sweep(3)
    deep = {i for i, p in enumerate(spec["points"]) if p[2] == 0 and p[1] < -20}
    assert len(deep) == 8 * 8  # eight entire sets (catalog + random), 8 points each
    everything = set(spec["order"])
    truths = run._split_series(spec)
    probe = spec["probe"]["order"]
    assert len(truths) == len(spec["points"])
    assert set(spec["order"]) | set(probe) == everything and not set(spec["order"]) & set(probe)
    assert spec["probe"]["calls"] == len(probe)
    # the terms cancel by a factor far above the limit on the deep band of
    # every set, and never on the positive real axis
    assert deep <= set(probe)
    assert all(spec["points"][i][1] < 0 for i in probe if spec["points"][i][2] == 0)


def test_density_probe_covers_both_ends():
    spec = inputs.density_cold(3)
    grid, probe = spec["grid"], spec["probe"]
    lo, hi = inputs.DENSITY_BAND
    assert len(grid) == 1000 and grid[0] == pytest.approx(lo) and grid[-1] == pytest.approx(hi)
    for base in spec["bases"]:
        assert {0, len(grid) - 1} <= set(base["checks"]) and len(base["checks"]) == 32
    pgrid = probe["grid"]
    m = len(pgrid)
    assert pgrid[0] == pytest.approx(1e-3) and 1 - pgrid[-1] == pytest.approx(1e-4)
    assert all(t < lo or t > hi for t in pgrid)
    assert probe["calls"] == len(probe["bases"]) == len(probe["deltas"]) == len(spec["bases"])
    for base in probe["bases"]:
        checks = set(base["checks"])
        assert {0, 1, 2, 3, m - 4, m - 3, m - 2, m - 1} <= checks
        # the AUTO switch at 0.8 rho lies between two checked points
        assert any(0.75 < pgrid[j] < 0.8 for j in checks) and any(0.8 < pgrid[j] < 0.85 for j in checks)


def test_cm_check_verdicts_follow_the_sign_of_the_series():
    orc = run._CliOracle()
    grid = [0.5, 1.5, 3.0]
    assert orc.cm_status({"params": "twin-quarter", "grid": grid}) == "fail"
    for name in ("double-pole", "exp-collapse", "identity"):
        assert orc.cm_status({"params": name, "grid": grid}) == "pass"


@pytest.mark.parametrize("name", sorted(inputs.CATALOG))
def test_series_oracle_agrees_at_easy_points(name):
    upper, lower = inputs.CATALOG[name]
    ps = fw.ParameterSet(upper, lower)
    orc = oracle.SeriesOracle(upper, lower)
    # easy: rho |z| <= 5, short of the cancellation that spoils Re z << 0
    scale = 1.0 / inputs.rho_of(upper, lower)
    for w in (-5.0, -2.5, -0.5, 0.5, 3.0, 5.0, complex(2.0, -3.0)):
        z = w * scale
        value = complex(fw.fox_wright(ps, z).value)
        assert oracle.rel_error(value, orc.value(z)) < 1e-9, z


def test_series_oracle_random_set_and_gamma_ratio():
    upper, lower = [(1.3, 1.0), (0.7, 0.25)], [(2.1, 1.0)]
    ps = fw.ParameterSet(upper, lower)
    orc = oracle.SeriesOracle(upper, lower)
    for z in (-4.0, 1.5, 5.0):
        assert oracle.rel_error(fw.fox_wright(ps, z).value, orc.value(z)) < 1e-9
    for k in (0.0, 1.0, 3.5, 7.0):
        assert oracle.rel_error(fw.gamma_ratio(ps, k), oracle.gamma_ratio(upper, lower, k)) < 1e-12


def test_density_oracle_agrees_and_routes_meet():
    spec = inputs.density_cold(5)
    for base in spec["bases"]:
        orc = oracle.DensityOracle(base["upper"], base["lower"])
        assert orc.self_check() < 1e-20
        ev = fw.get_evaluator(fw.ParameterSet(base["upper"], base["lower"]))
        # the residue route is the accurate one away from both ends (the
        # contour route is off by 4e-8 at t = 0.2 on the mu ~ 2.5 class)
        for t in (0.2, 0.5):
            value = float(ev.density(np.array([t]), method=fw.HfunMethod.RESIDUE_SERIES)[0])
            truth = orc.value(t)
            assert abs(value - float(truth)) <= 1e-9 * (1 + abs(float(truth))), (base, t)


def test_shifted_density_is_t_to_delta_times_base():
    base = inputs.density_cold(5)["bases"][2]
    delta = 0.37
    shifted = oracle.DensityOracle(inputs.shifted_rows(base["upper"], delta),
                                   inputs.shifted_rows(base["lower"], delta))
    orc = oracle.DensityOracle(base["upper"], base["lower"])
    # base 2 has mu = -1; the shifted rows are rounded to floats, which moves
    # mu off -1 by ~1e-16 and leaves the oracle a near-atom term of relative
    # size ~1e-12 near rho, so the identity holds to 1e-10 rather than 1e-12
    for t in (0.1, 0.6, 0.95):
        assert oracle.rel_error(float(orc.value(t, delta)), shifted.value(t)) < 1e-10


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.enter("series.root")
    a = tracer.enter("special.a")
    c = tracer.enter("special.c")
    tracer.exit(c)
    tracer.exit(a)
    b = tracer.enter("hfun.b")
    tracer.exit(b)
    tracer.exit(root)
    assert dict(tracer.self_s) == {"special.c": 1, "special.a": 2, "hfun.b": 4, "series.root": 3}
    assert dict(tracer.layer_self()) == {"special": 3, "hfun": 4, "series": 3}
    assert sum(tracer.self_s.values()) == 10


def test_counted_kernels_leave_their_time_to_the_caller():
    # the caller's span is [0, 1]; the kernel reads no clock
    tracer = spans.Tracer(clock=FakeClock([0, 1]))
    kernel = spans._count(tracer, lambda x: x + 1, "special.log_gamma")
    caller = spans._wrap(tracer, lambda: kernel(kernel(1)), "series.fox_wright")
    assert caller() == 3
    assert tracer.calls == {"special.log_gamma": 2, "series.fox_wright": 1}
    assert dict(tracer.self_s) == {"series.fox_wright": 1}
    assert tracer.spans == 1


def test_density_counts_nonfinite_values_outside_the_sample():
    mp = oracle.mp
    spec = {"grid": [0.1 * k for k in range(1, 11)], "deltas": [0.0],
            "bases": [{"checks": [0, 9]}]}
    truths = [{0: mp.mpf(1), 9: mp.mpf(2)}]
    check = run.Check(1e-8)
    # ten values, three of them NaN, none of those among the two checked
    run._density_check(spec, [[0, 0, "ok", 10, 7, [1.0, 2.0]]], check, 1, truths)
    assert (check.attempted, check.failed) == (5, 3)
    assert check.kinds == {"nonfinite": 3} and not check.malformed
    # a NaN among the checked values fails there and is not counted twice
    check = run.Check(1e-8)
    run._density_check(spec, [[0, 0, "ok", 10, 9, [math.nan, 2.0]]], check, 1, truths)
    assert (check.attempted, check.failed) == (2, 1)


def test_errors_are_counted_where_they_leave_a_layer():
    tracer = spans.Tracer(clock=FakeClock(range(100)))

    def boom():
        raise fw.QuadratureFailure("x")

    inner = spans._wrap(tracer, boom, "quadrature.inner")
    outer = spans._wrap(tracer, lambda: inner(), "quadrature.outer")
    top = spans._wrap(tracer, lambda: outer(), "hfun.top")
    with pytest.raises(fw.QuadratureFailure):
        top()
    assert dict(tracer.errors) == {"quadrature": 1, "hfun": 1}
    assert tracer.calls["quadrature.inner"] == 1 and not tracer.stack


def test_percentile_reports_samples_beyond():
    value, beyond = run.percentile(list(range(1, 101)), 90.0)
    assert value == 90 and beyond == 10


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.02, 9.98, 10.0]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, False, 0.1)["verdict"] == "better"
    assert compare.verdict(base, [v * 1.3 for v in base], pairs, False, 0.1)["verdict"] == "worse"
    assert compare.verdict(base, list(base), list(zip(base, base)), False, 0.1)["verdict"] == "no worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, list(noisy), list(zip(noisy, noisy)), False, 0.1)["verdict"] == "unresolved"


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload,trace", [("series-sweep", "0"), ("series-sweep", "1"),
                                            ("density-cold", "0"), ("identity-cli", "0")])
def test_printed_metrics_match_benchmark_json(workload, trace):
    proc = _run(["--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert result["failed"] == 0
    details = json.loads(proc.stdout.strip().splitlines()[-2])
    known = details["known_defects"]
    assert known["items"] >= known["misses"] > 0  # the weak spots still miss, in the probe
    if trace == "1":
        layer = {k: v["value"] for k, v in result["metrics"].items()}
        assert layer["trace.self_sum_s"] <= layer["trace.wall_s"]
        assert layer["series.fox_wright.calls"] == 384
        assert (layer["defects.items"], layer["defects.misses"]) == (known["items"], known["misses"])


def test_refuses_to_run_without_the_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(["--workload", "series-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
