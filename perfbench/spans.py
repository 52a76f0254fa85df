"""In-memory span tracer and the layer wrapping used by the traced run.

``install`` wraps the public functions of each foxwright layer from the
outside: every module-level name bound to a wrapped function is rebound to
the wrapper in every ``foxwright.*`` module that imported it, and the
``MeasureEvaluator`` methods are replaced on the class.  No file of the
package is edited.

The scalar gamma kernels in ``COUNTED`` run hundreds of thousands of times
per traced run, each for about as long as two clock reads.  A span around
each would make their layers' self time mostly the tracer's own cost, so
they only count calls, read no clock, and their time stays in the self time
of the span that called them.

A span is (name, start, end, parent, item).  Self time is a span's duration
minus the part of its interval covered by child spans; since the program is
single-threaded and synchronous, children nest strictly and the covered
part is the sum of the children's durations.  Self times, call counts and
errors are aggregated as spans close, so memory stays bounded; the first
``keep`` span records are kept and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "params", "series", "hfun", "quadrature", "representations", "bounds", "cli")

# Methods wrapped on MeasureEvaluator; __init__ is the evaluator build.
_EVALUATOR_METHODS = {
    "__init__": "hfun.MeasureEvaluator",
    "density": "hfun.MeasureEvaluator.density",
    "measure_integral": "hfun.MeasureEvaluator.measure_integral",
    "moment": "hfun.MeasureEvaluator.moment",
    "atom_mellin": "hfun.MeasureEvaluator.atom_mellin",
}


# Leaf scalar kernels wrapped with a call counter instead of a span.
COUNTED = frozenset({
    "special.log_gamma", "special.log_gamma_complex", "special.log_abs_gamma_signed",
    "special.gamma_real", "params.gamma_ratio_log_signed",
})


class Tracer:
    """Records nested spans; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter, keep: int = 200_000):
        self.clock = clock
        self.keep = keep
        self.stack: list[list] = []  # [span id, name, start, child time]
        self.records: list[tuple] = []
        self.spans = 0
        self.item = -1
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def enter(self, name: str) -> list:
        frame = [self.spans, name, self.clock(), 0.0]
        self.spans += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: list, failed: bool = False) -> None:
        end = self.clock()
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        span_id, name, start, child = frame
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if failed:
            layer = name.split(".", 1)[0]
            if parent is None or parent[1].split(".", 1)[0] != layer:
                self.errors[layer] += 1
        if len(self.records) < self.keep:
            self.records.append(
                (name, start, end, parent[0] if parent is not None else -1, self.item, span_id)
            )

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write(self, path) -> None:
        """Kept span records as gzip JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, item, span_id in self.records:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def _wrap(tracer: Tracer, fn, name: str, after=None):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame, failed=True)
            raise
        if after is not None:
            after(args, result)
        tracer.exit(frame)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _count(tracer: Tracer, fn, name: str):
    calls = tracer.calls

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def install(tracer: Tracer) -> dict:
    """Wrap every layer's public functions; returns state for ``layer_metrics``."""
    modules = {name: importlib.import_module(f"foxwright.{name}") for name in LAYERS}
    hfun, series = modules["hfun"], modules["series"]

    counters = tracer.counters
    evaluators: list = []
    scanned: set = set()

    def after_vec(args, result):
        counters["special.log_gamma_complex_vec.elems"] += np.size(args[0])

    def after_series(args, result):
        counters["series.fox_wright.terms"] += result.terms_used
        if result.status is series.SeriesStatus.MAX_TERMS:
            counters["series.fox_wright.max_terms"] += 1

    def after_density(args, result):
        counters["hfun.density.points"] += np.size(args[1])

    def after_build(args, result):
        evaluators.append(args[0])

    def after_scan(args, result):
        scanned.add(args[0])

    hooks = {
        "special.log_gamma_complex_vec": after_vec,
        "series.fox_wright": after_series,
        "hfun.MeasureEvaluator.density": after_density,
        "hfun.MeasureEvaluator": after_build,
        "hfun.hfun_nonneg_scan": after_scan,
    }
    replaced = {}
    for layer, mod in modules.items():
        public = ["main", "run", "parse_grid", "parse_k_list"] if layer == "cli" else mod.__all__
        for attr in public:
            fn = getattr(mod, attr)
            if isinstance(fn, type) or not callable(fn):
                continue
            name = f"{layer}.{attr}"
            if name in COUNTED:
                replaced[id(fn)] = _count(tracer, fn, name)
            else:
                replaced[id(fn)] = _wrap(tracer, fn, name, hooks.get(name))
    for mod in [m for n, m in sys.modules.items() if n == "foxwright" or n.startswith("foxwright.")]:
        for attr, value in list(vars(mod).items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    cls = hfun.MeasureEvaluator
    for method, name in _EVALUATOR_METHODS.items():
        setattr(cls, method, _wrap(tracer, getattr(cls, method), name, hooks.get(name)))
    return {"evaluators": evaluators, "scanned": scanned}


def _evaluator_nodes(ev) -> int:
    """Residue plus contour nodes of an evaluator: the package's own ``work``
    figure, as ``hfun_value`` and ``eval_via_representation`` compute it."""
    return int(ev._res_nodes_used) + int(ev._tau.size)


# Functions of the representations and bounds layers reported one by one.
REPRESENTATION_FNS = (
    "eval_via_representation", "verify_representation", "stieltjes_eval", "verify_stieltjes",
    "lifted_value", "laplace_lift_check", "finite_laplace_identity", "four_param_representation",
)
BOUND_FNS = (
    "exp_kernel_bounds", "lifted_kernel_bounds", "stieltjes_lower_bound", "cm_check",
    "shifted_stieltjes_ratio", "ratio_monotonicity_scan",
)


def layer_metrics(tracer: Tracer, state: dict) -> dict[str, float]:
    """The per-layer figures named in BENCHMARK.json (except the cli row counts
    and the trace wall-time figures, which the caller adds)."""
    calls, own, counters = tracer.calls, tracer.self_s, tracer.counters
    layer = tracer.layer_self()
    out = {
        "special.log_gamma.calls": calls["special.log_gamma"],
        "special.log_gamma_complex_vec.calls": calls["special.log_gamma_complex_vec"],
        "special.log_gamma_complex_vec.elems": counters["special.log_gamma_complex_vec.elems"],
        "special.self_s": layer["special"],
        "params.gamma_ratio_log_signed.calls": calls["params.gamma_ratio_log_signed"],
        "params.correction_coeffs.calls": calls["params.correction_coeffs"],
        "params.self_s": layer["params"],
        "series.fox_wright.calls": calls["series.fox_wright"],
        "series.fox_wright.terms": counters["series.fox_wright.terms"],
        "series.fox_wright.max_terms": counters["series.fox_wright.max_terms"],
        "series.self_s": layer["series"],
        "hfun.MeasureEvaluator.calls": calls["hfun.MeasureEvaluator"],
        "hfun.MeasureEvaluator.self_s": own["hfun.MeasureEvaluator"],
        "hfun.work_nodes": sum(_evaluator_nodes(ev) for ev in state["evaluators"]),
        "hfun.density.calls": calls["hfun.MeasureEvaluator.density"],
        "hfun.density.points": counters["hfun.density.points"],
        "hfun.density.self_s": own["hfun.MeasureEvaluator.density"],
        "hfun.measure_integral.calls": calls["hfun.MeasureEvaluator.measure_integral"],
        "hfun.measure_integral.self_s": own["hfun.MeasureEvaluator.measure_integral"],
        "hfun.hfun_nonneg_scan.calls": calls["hfun.hfun_nonneg_scan"],
        "hfun.nonneg_scan_reuse": _ratio(len(state["scanned"]), calls["hfun.hfun_nonneg_scan"]),
        "hfun.errors": tracer.errors["hfun"],
        "hfun.self_s": layer["hfun"],
        "quadrature.integrate_adaptive.calls": calls["quadrature.integrate_adaptive"],
        "quadrature.kronrod15.calls": calls["quadrature.kronrod15"],
        "quadrature.integrate_gamma_weighted.calls": calls["quadrature.integrate_gamma_weighted"],
        "quadrature.kronrod15_per_integral": _ratio(
            calls["quadrature.kronrod15"], calls["quadrature.integrate_adaptive"]),
        "quadrature.errors": tracer.errors["quadrature"],
        "quadrature.self_s": layer["quadrature"],
    }
    for prefix, fns in (("representations", REPRESENTATION_FNS), ("bounds", BOUND_FNS)):
        for fn in fns:
            out[f"{prefix}.{fn}.calls"] = calls[f"{prefix}.{fn}"]
            out[f"{prefix}.{fn}.self_s"] = own[f"{prefix}.{fn}"]
        out[f"{prefix}.self_s"] = layer[prefix]
    out["cli.main.calls"] = calls["cli.main"]
    out["cli.self_s"] = layer["cli"]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
