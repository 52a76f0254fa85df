"""Shared fixtures: acceptance-verdict recording with end-of-run summary, and
one loader of the checkout's scripts and benchmark modules by path."""

import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@functools.cache
def load_file(relpath: str):
    """The module at ``relpath`` under the checkout's root (``scripts/…`` or
    ``perfbench/…``), loaded by path and kept, so its body runs once per
    session; ``load_file.__wrapped__`` loads a fresh copy."""
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(f"{path.parent.name}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

_ACCEPTANCE: list[tuple[str, bool]] = []


@pytest.fixture
def acceptance():
    """Record and print one acceptance verdict; returns the boolean.

    Usage: ``assert acceptance("criterion-name", ok)`` — the verdict line is
    printed immediately (visible in captured output on failure) and repeated
    in the terminal summary after the run (visible always).
    """

    def _record(name: str, ok: bool) -> bool:
        _ACCEPTANCE.append((name, ok))
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
        return ok

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, ok in _ACCEPTANCE:
        terminalreporter.write_line(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
