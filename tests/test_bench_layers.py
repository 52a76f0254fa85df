"""The layer bench's quick mode: every row has a finite median and at least
the benchmark's 1e-8 tolerance in digits, the L5 rows at least 10 digits."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_layers.py"


def test_quick_rows_are_finite_and_accurate(tmp_path):
    pytest.importorskip("mpmath")
    subprocess.run([sys.executable, str(SCRIPT), "--label", "quick", "--quick"],
                   cwd=tmp_path, check=True, capture_output=True)
    report = json.loads((tmp_path / "BENCH_quick.json").read_text())
    rows = report["rows"]
    # two L0 rows (lgamma and the Taylor block), an L1 row for each catalog
    # set, an L2 and an L3 row for each of the seven density-cold classes and
    # the four catalog sets, an L5 row for each verify-laplace slot, then the
    # L6 rows of a cold process's setup, of a cold series eval and of a cold
    # import with one series sum
    assert [r["layer"] for r in rows] == (["L0"] * 2 + ["L1"] * 4 + ["L2"] * 11 + ["L3"] * 11
                                          + ["L5"] * 3 + ["L6"] * 3)
    assert [r["family"] for r in rows[:2]] == ["lgamma", "log-gamma-taylor"]
    assert [r["family"] for r in rows[-3:]] == ["cold-setup", "cold-eval", "cold-import"]
    assert all(math.isfinite(r["median"]) and r["median"] > 0 for r in rows)
    assert all(r["digits"] >= 8 for r in rows)
    assert all(r["digits"] >= 10 for r in rows if r["layer"] == "L5")
