#!/usr/bin/env python3
"""Rewrite the golden outputs under ``tests/golden/`` from the current tree.

    python3 scripts/recapture_goldens.py

``readme_cli.json`` holds the stdout and exit code of every ``foxwright``
line in the README's CLI block, and ``verify_all.txt`` the output of
``scripts/verify_all.py``; both are captured in-process, as the tests run
them.  Every number that changed is printed as ``old -> new`` with its
absolute and relative change, so a change that only moves rounding shows
as a list of changes near 1e-16 relative (an error figure near 1e-16 moves
by a large relative amount but a tiny absolute one).  A change to anything
but numbers (a status, an exit code) prints the old and the new line.
``git diff tests/golden`` shows the rewrite; ``git checkout tests/golden``
undoes it.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import re
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "src"))

_NUMBER = re.compile(r"(-?\d+\.?\d*(?:[eE][-+]?\d+)?)")


def readme_cli_argvs() -> list[list[str]]:
    """Every ``foxwright ...`` line of the README's CLI code block, as argv."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("foxwright ")]


def capture_readme_cli() -> str:
    from foxwright.cli import main

    entries = []
    for argv in readme_cli_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        entries.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    return json.dumps(entries, indent=1) + "\n"


def capture_verify_all() -> tuple[int, str]:
    """``scripts/verify_all.py``'s exit status and output."""
    path = ROOT / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = module.main()
    return status, out.getvalue()


def _lines(name: str, text: str) -> list[tuple[str, str]]:
    """(label, line) for each output line: the README golden's rows are
    labelled with the command that printed them and their z, verify_all's
    lines with themselves."""
    if name.endswith(".json"):
        out = []
        for entry in json.loads(text):
            command = " ".join(entry["argv"])
            out.append((command, f"exit {entry['exit']}"))
            out += [(f"{command}  [z={json.loads(line)['z']}]", line)
                    for line in entry["stdout"].splitlines()]
        return out
    return [(line.strip(), line) for line in text.splitlines()]


def changes(name: str, old: str, new: str) -> list[str]:
    """A report line per number that differs between old and new, named by
    the text before it, and the old and new line where anything else differs."""
    old_lines, new_lines = _lines(name, old), _lines(name, new)
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} -> {len(new_lines)} lines"]
    report = []
    for (label, a), (_, b) in zip(old_lines, new_lines):
        if a == b:
            continue
        pa, pb = _NUMBER.split(a), _NUMBER.split(b)
        report.append(f"{name}: {label}")
        if pa[::2] != pb[::2]:
            report += [f"  - {a}", f"  + {b}"]
            continue
        for before, x, y in zip(pa[::2], pa[1::2], pb[1::2]):
            if x != y:
                fx, fy = float(x), float(y)
                rel = abs(fy - fx) / abs(fx) if fx else math.inf
                field = re.findall(r"[A-Za-z_][\w ]*", before)[-1].strip()
                report.append(f"  {field}: {x} -> {y}  (abs {abs(fy - fx):.2e}, rel {rel:.2e})")
    return report


def main() -> int:
    for name, capture in (("readme_cli.json", capture_readme_cli),
                          ("verify_all.txt", lambda: capture_verify_all()[1])):
        path = GOLDEN / name
        old, new = path.read_text(), capture()
        if old == new:
            print(f"{name}: unchanged")
            continue
        print("\n".join(changes(name, old, new)))
        path.write_text(new)
        print(f"{name}: rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
