"""Batch command-line front end.

Every subcommand walks a grid, emits one report row per grid point (plus a
summary row where a scan has a single verdict), and exits 0 when everything
verified, 2 when any row failed or errored, 1 on usage or IO problems.
Numerical failures never abort a run: they land in the row's ``status``
field as ``error:<ExceptionName>`` and the walk continues.

Report rows share one schema across commands::

    command, params_hash, z, value_or_verdict, abs_err, rel_err, status

serialized as JSON lines (default) or CSV with a header row.  Floats are
written with ``repr``, i.e. shortest round-trip form, so identical inputs
produce byte-identical reports.  ``params_hash`` is the content hash of the
canonicalized parameter JSON, making reports joinable across runs.

``main`` may be called any number of times in one process: the argument
parser is built on the first call and reused, and each call parses into a
fresh namespace.

Every check is read from the package root, which loads the measure layer
on first use, so an ``eval`` on a comma-list grid loads no numpy; the CLI
imports numpy only where it forms an array itself.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import foxwright as fw

from .series import _fox_wright_values

__all__ = ["main", "run", "parse_grid", "parse_k_list"]

_FIELDS = ("command", "params_hash", "z", "value_or_verdict", "abs_err", "rel_err", "status")

# cm-check's closed forms: each maps numpy and an array of abscissae to
# their values
_CM_FUNCTIONS = {
    "exp-decay": lambda np, x: np.exp(-x),
    "inverse-linear": lambda np, x: 1.0 / (1.0 + x),
    "linear": lambda np, x: x,
    "collapse-remainder": lambda np, x: (np.exp(-2.0 * x) - np.exp(-x / 2.0))
    / math.sqrt(math.pi),
}

# The most points one grid may hold: far above every grid the README, the
# tests and the benchmark run, and low enough that a pass over the measure's
# rule (up to ~1000 nodes a level) stays in tens of MB.  A count past it is
# refused before anything is allocated.
_MAX_POINTS = 10_000


class CliUsageError(Exception):
    """Bad flags, unreadable files, malformed grids: exit code 1."""


def parse_grid(spec: str) -> list[float]:
    """``start:stop:count`` (inclusive, 1 <= count <= 10000), comma list, or
    scalar; at least one value and every value finite."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise CliUsageError(f"grid must be start:stop:count, got {spec!r}")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise CliUsageError(f"bad grid {spec!r}: {exc}") from None
        if count < 1:
            raise CliUsageError("grid count must be >= 1")
        _size(count, spec)
        _finite([start, stop], spec)
        if count == 1:
            return [start]
        # finite ends can still overflow their span, which linspace would warn about
        _finite([stop - start], spec)
        import numpy as np

        values = [float(v) for v in np.linspace(start, stop, count)]
    else:
        values = _float_list(spec, "grid")
    return _finite(values, spec)


def parse_k_list(spec: str) -> list[float]:
    """``lo..hi`` (inclusive integers, at most 10000), comma list, or scalar;
    at least one value and every value finite."""
    spec = spec.strip()
    if ".." in spec:
        lo_s, _, hi_s = spec.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise CliUsageError(f"bad k-range {spec!r}: {exc}") from None
        if hi < lo:
            raise CliUsageError(f"empty k-range {spec!r}")
        _size(hi - lo + 1, spec)
        return [float(k) for k in range(lo, hi + 1)]
    return _finite(_float_list(spec, "k-list"), spec)


def _float_list(spec: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliUsageError(f"bad {what} {spec!r}: {exc}") from None
    if not values:
        raise CliUsageError(f"empty {what} {spec!r}")
    _size(len(values), spec)
    return values


def _size(count: int, spec: str) -> None:
    """A usage error where ``count`` points are more than one grid may hold."""
    if count > _MAX_POINTS:
        raise CliUsageError(f"{spec!r} has {count} points; a grid holds at most {_MAX_POINTS}")


def _finite(values: list[float], spec: str) -> list[float]:
    if not all(math.isfinite(v) for v in values):
        raise CliUsageError(f"non-finite value in {spec!r}")
    return values


def _finite_float(text: str) -> float:
    """argparse ``type`` of the float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value {text!r}")
    return value


def _load_params(spec: str) -> fw.ParameterSet:
    """Catalog name, or path to a JSON file with upper/lower rows."""
    if spec in fw.NAMED_SETS:
        return fw.NAMED_SETS[spec]
    path = Path(spec)
    if not path.is_file():
        raise CliUsageError(f"parameter file not found: {spec}")
    try:
        return fw.ParameterSet.from_json(path.read_text())
    except Exception as exc:
        raise CliUsageError(f"could not parse parameter file {spec}: {exc}") from None


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# grid functions: (ns, params, xs) -> [(x, value, abs_err, rel_err, status)]
# ---------------------------------------------------------------------------


def _eval_rows(ns, params, zs):
    return [(z, v, None, None, "ok") for z, v in zip(zs, _fox_wright_values(params, zs))]


def _hfun_rows(ns, params, ts):
    values = fw.get_evaluator(params).density(ts)
    return [(t, float(v), None, None, "ok") for t, v in zip(ts, values)]


def _moments_rows(ns, params, ks):
    return [(k, rec.lhs, rec.abs_err, rec.rel_err, _verdict(rec.ok()))
            for k, rec in zip(ks, fw.moment_identity_check(params, ks))]


def _identity_rows(check):
    def rows(ns, params, zs):
        return [(z, rec.verdict, rec.abs_err, rec.rel_err, _verdict(rec.ok()))
                for z, rec in zip(zs, check(ns, params, zs))]

    return rows


def _bounds_rows(ns, params, zs):
    """The bounded value; its margin over the lower bound; and the margin to
    the upper bound, or for --sigma the lower margin relative to 1 + |value|."""
    if ns.sigma is not None and ns.lift is not None:
        raise CliUsageError("bounds takes --sigma or --lift, not both")
    if ns.sigma is not None:
        rows = []
        for z, (lower, step) in zip(zs, fw.stieltjes_lower_bound(params, ns.sigma, zs)):
            margin = lower.rhs - lower.lhs
            rows.append((z, lower.rhs, margin, margin / (1.0 + abs(lower.rhs)),
                         _verdict(lower.ok() and step.ok())))
        return rows
    if ns.lift is not None:
        pairs = fw.lifted_kernel_bounds(params, ns.lift, zs)
    else:
        pairs = fw.exp_kernel_bounds(params, zs)
    return [(z, lower.rhs, lower.rhs - lower.lhs, upper.rhs - upper.lhs,
             _verdict(lower.ok() and upper.ok())) for z, (lower, upper) in zip(zs, pairs)]


# ---------------------------------------------------------------------------
# scan functions: (ns, params, [None]) -> [(z, value, abs_err, rel_err, status)]
# ---------------------------------------------------------------------------


def _scan_grid(ns, default) -> list[float]:
    return parse_grid(ns.z) if ns.z else [float(v) for v in default]


def _cm_scan(ns, params, _):
    import numpy as np

    from .bounds import _cm_order

    name = ns.function or "series"
    if name == "series":
        if params is None:
            raise CliUsageError("cm-check --function series needs --params")
        f = params
    elif name in _CM_FUNCTIONS:
        f = functools.partial(_CM_FUNCTIONS[name], np)
    else:
        raise CliUsageError(
            f"unknown --function {name!r}; choices: series, " + ", ".join(_CM_FUNCTIONS)
        )
    grid = _scan_grid(ns, np.logspace(math.log10(0.01), math.log10(10.0), 30))
    defect = next((r for r in fw.cm_check(f, grid) if not r.ok()), None)
    if defect is None:
        return [(None, "clean", None, None, "pass")]
    return [(defect.z, f"order-{_cm_order(defect)}-defect", None, None, "fail")]


def _ratio_scan(ns, params, _):
    import numpy as np

    from .bounds import _scan_direction

    grid = _scan_grid(ns, np.linspace(0.05, 0.95, 17))
    records = fw.ratio_monotonicity_scan(params, ns.sigma, ns.delta, grid)
    routes = [r for r in records if r.relation == "=="]
    steps = [r for r in records if r.relation == "<="]
    rows = [(r.z, r.rhs, r.abs_err, r.rel_err, "ok") for r in routes]
    rows.append((None, _scan_direction(steps[0]), max(0.0, max(r.lhs for r in steps)),
                 max(r.rel_err for r in routes), _verdict(all(r.ok() for r in records))))
    return rows


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_Z_HELP = ("grid: start:stop:count, comma list, or scalar "
           "(use --z=-3:3:7 when the grid starts negative)")

# Every optional flag a command may take, in the order --help lists them.
_FLAGS = {
    "--z": dict(help=_Z_HELP),
    "--k": dict(help="moment orders: lo..hi, comma list, or scalar"),
    "--sigma": dict(type=_finite_float, help="power-kernel exponent"),
    "--delta": dict(type=_finite_float, help="parameter shift"),
    "--lift": dict(type=_finite_float, help="gamma-lift exponent"),
    "--function": dict(help="series (default) or one of: " + ", ".join(_CM_FUNCTIONS)),
}


class _Command(NamedTuple):
    """One subcommand.  ``flags`` maps each extra flag to its default.
    ``run`` takes the whole grid and returns its rows; ``grid`` names the
    option the grid is read from (``z`` or ``k``).  A scan
    (``grid=None``) ignores the grid and returns all of its rows."""

    help: str
    flags: dict
    run: Callable
    grid: str | None = "z"
    needs_params: bool = True


_COMMANDS = {
    "eval": _Command("evaluate the series over a z grid", {"--z": None}, _eval_rows),
    "hfun": _Command("evaluate the representing density over a t grid", {"--z": None},
                     _hfun_rows),
    "moments": _Command("check gamma-ratio moments against the measure", {"--k": None},
                        _moments_rows, grid="k"),
    "verify-representation": _Command(
        "series vs exponential-kernel integral", {"--z": None},
        _identity_rows(lambda ns, p, zs: fw.verify_representation(p, zs))),
    "verify-stieltjes": _Command(
        "lifted series vs power-kernel integral", {"--z": None, "--sigma": 1.0},
        _identity_rows(lambda ns, p, zs: fw.verify_stieltjes(p, ns.sigma, zs))),
    "verify-laplace": _Command(
        "gamma-weighted transform vs lifted series", {"--z": None, "--lift": 1.0},
        _identity_rows(lambda ns, p, zs: fw.laplace_lift_check(p, ns.lift, zs))),
    "bounds": _Command("two-sided kernel bounds (default exponential; --lift or --sigma)",
                       {"--z": None, "--sigma": None, "--lift": None}, _bounds_rows),
    "cm-check": _Command("finite-difference complete-monotonicity scan",
                         {"--z": None, "--function": "series"},
                         _cm_scan, grid=None, needs_params=False),
    "ratio-scan": _Command("shifted-ratio monotonicity scan",
                           {"--z": None, "--sigma": 1.0, "--delta": 1.0}, _ratio_scan,
                           grid=None),
}

_GRID_HINTS = {"z": "--z (grid start:stop:count or list)", "k": "--k (e.g. --k 0..8)"}


def _points(cmd: _Command, ns: argparse.Namespace) -> list:
    """The grid ``run`` takes; one ``None`` for a scan."""
    if cmd.grid is None:
        return [None]
    spec = getattr(ns, cmd.grid)
    if not spec:
        raise CliUsageError(f"{ns.command} needs {_GRID_HINTS[cmd.grid]}")
    return parse_grid(spec) if cmd.grid == "z" else parse_k_list(spec)


def _walk(ns: argparse.Namespace, params: fw.ParameterSet | None) -> list[dict]:
    """Build every row under one guard: a numerical error becomes an error row."""
    cmd = _COMMANDS[ns.command]
    rows = [_nulls_for_non_finite(row) for row in _grid_rows(cmd, ns, params, _points(cmd, ns))]
    phash = params.hash_key() if params is not None else ""
    return [dict(zip(_FIELDS, (ns.command, phash, *row))) for row in rows]


def _grid_rows(cmd: _Command, ns: argparse.Namespace, params: fw.ParameterSet | None,
               xs: list) -> list[tuple]:
    """The rows of one ``run`` on the whole grid.  Where it raises, ``run``
    goes again on each point alone, so each row carries its own value or
    its own error row, as a grid of one would."""
    try:
        return cmd.run(ns, params, xs)
    except fw.FoxwrightError as exc:
        if len(xs) == 1:
            return [(xs[0], None, None, None, f"error:{type(exc).__name__}")]
    return [row for x in xs for row in _grid_rows(cmd, ns, params, [x])]


def _nulls_for_non_finite(row: tuple) -> tuple:
    """The row with each non-finite float written as null, which JSON and
    CSV readers both take; such a row fails unless it already reports an error."""
    *fields, status = row
    if all(not isinstance(v, float) or math.isfinite(v) for v in fields):
        return row
    fields = [None if isinstance(v, float) and not math.isfinite(v) else v for v in fields]
    return (*fields, status if status.startswith("error:") else "fail")


def _render(rows: list[dict], output: str) -> str:
    if output == "json":
        return "".join(json.dumps(r) + "\n" for r in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELDS)
    for r in rows:
        writer.writerow(
            ["" if r[f] is None else (repr(r[f]) if isinstance(r[f], float) else str(r[f]))
             for f in _FIELDS]
        )
    return buf.getvalue()


def run(ns: argparse.Namespace) -> int:
    """Run one parsed invocation; returns the exit status."""
    params = None if ns.params is None else _load_params(ns.params)
    if params is None and _COMMANDS[ns.command].needs_params:
        raise CliUsageError(f"{ns.command} needs --params (catalog name or JSON path)")

    rows = _walk(ns, params)
    text = _render(rows, ns.output)
    if ns.out_path:
        try:
            Path(ns.out_path).write_text(text)
        except OSError as exc:
            raise CliUsageError(f"could not write {ns.out_path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0 if all(r["status"] in ("ok", "pass") for r in rows) else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; we want 1
        raise CliUsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="foxwright", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        # full flag names only: an abbreviation would read --h as --help
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        p.add_argument("--params", help="catalog name or JSON file with upper/lower rows")
        for flag, kwargs in _FLAGS.items():
            if flag in cmd.flags:
                p.add_argument(flag, default=cmd.flags[flag], **kwargs)
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--out", dest="out_path", help="write report here instead of stdout")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
