"""scripts/verify_all.py, run in-process: every check it prints must pass."""

import importlib.util
from pathlib import Path

import pytest


def test_verify_all_exits_zero(capsys):
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    status = module.main()
    out = capsys.readouterr().out
    assert status == 0, [line for line in out.splitlines() if "FAIL" in line]
