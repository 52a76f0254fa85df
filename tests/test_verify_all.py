"""scripts/verify_all.py, run in-process once: every check it prints must
pass, and its output is the bytes captured in ``tests/golden/verify_all.txt``."""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def verify_all_run():
    pytest.importorskip("mpmath")
    path = TESTS.parent / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = module.main()
    return status, out.getvalue()


def test_verify_all_exits_zero(verify_all_run):
    status, out = verify_all_run
    assert status == 0, [line for line in out.splitlines() if "FAIL" in line]


def test_verify_all_output_matches_golden(verify_all_run):
    _, out = verify_all_run
    assert out == (TESTS / "golden" / "verify_all.txt").read_text()
