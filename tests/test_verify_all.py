"""scripts/verify_all.py, run in-process once: every check it prints must
pass, and its output is the bytes captured in ``tests/golden/verify_all.txt``."""

import importlib.util
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def verify_all_run():
    """Status and output of the run ``scripts/recapture_goldens.py`` captures."""
    pytest.importorskip("mpmath")
    path = TESTS.parent / "scripts" / "recapture_goldens.py"
    spec = importlib.util.spec_from_file_location("recapture_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.capture_verify_all()


def test_verify_all_exits_zero(verify_all_run):
    status, out = verify_all_run
    assert status == 0, [line for line in out.splitlines() if "FAIL" in line]


def test_verify_all_output_matches_golden(verify_all_run):
    _, out = verify_all_run
    assert out == (TESTS / "golden" / "verify_all.txt").read_text()
