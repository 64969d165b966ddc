"""Per-layer spans and counters, recorded by wrapping sgoal's functions.

Each target is wrapped where its caller looks it up (a module global or
a class attribute), so sgoal itself is unchanged.  A target that no
longer exists is reported absent, and every metric built on it is left
out rather than crashing the run.  Spans are kept in memory, up to a
cap, and written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SPAN_CAP = 100_000
LAYER_MAP = Path(__file__).resolve().parent / "layer_map.json"


def _after_trace_write(tracer, args, kwargs, result):
    tracer.counts["cli.trace_rows"] += len(args[1])


def _after_metropolis(tracer, args, kwargs, result):
    tracer.counts["sa.accepts"] += bool(result)


def _after_extract(tracer, args, kwargs, result):
    tracer.counts["verify.matrices_kept"] += len(result.matrices)


def _after_check_bound(tracer, args, kwargs, result):
    tracer.counts["verify.states"] += args[0].size


def _after_products(tracer, args, kwargs, result):
    n = result[0].shape[0]
    tracer.counts["kernels.product_bytes"] += len(result) * n * n * 8


# (layer, module, attribute path, hook run on the result)
TARGETS = (
    ("kernels.sample", "sgoal.kernels", "Kernel.sample", None),
    ("es.child", "sgoal.es", "next_sub_pop", None),
    ("es.recombine", "sgoal.es", "recombine", None),
    ("es.update_strategies", "sgoal.es", "update_strategies", None),
    ("es.mutate_y", "sgoal.es", "mutate_y", None),
    ("es.replace", "sgoal.es", "replace_es", None),
    ("core.evaluate", "sgoal.core", "Problem.evaluate", None),
    ("bench.objective", "sgoal.bench", "sphere", None),
    ("bench.objective", "sgoal.bench", "rastrigin", None),
    ("bench.objective", "sgoal.bench", "onemax", None),
    ("core.run", "sgoal.core", "run_sgoal", None),
    ("core.reflect", "sgoal.core", "ContinuousBox.reflect", None),
    ("sa.replace", "sgoal.sa", "replace_sa", None),
    ("sa.metropolis", "sgoal.sa", "metropolis_accept", _after_metropolis),
    ("cli.trace_write", "sgoal.cli", "_write_trace_csv", _after_trace_write),
    ("verify.extract", "sgoal.cli", "extract_chain", _after_extract),
    ("kernels.matrix", "sgoal.kernels", "Kernel.exact_matrix", None),
    ("kernels.row_check", "sgoal.kernels", "check_row_stochastic", None),
    ("kernels.row_check", "sgoal.verify", "check_row_stochastic", None),
    ("kernels.load_matrix", "sgoal.kernels", "load_matrix", None),
    ("verify.premises", "sgoal.verify", "check_premises", None),
    ("verify.bound", "sgoal.cli", "check_bound", _after_check_bound),
    ("verify.bound", "sgoal.verify", "check_bound", _after_check_bound),
    ("kernels.products", "sgoal.verify", "iterated_products", _after_products),
    ("verify.write", "sgoal.cli", "write_bound_json", None),
    ("verify.write", "sgoal.cli", "write_bound_csv", None),
)


class Tracer:
    """Calls, inclusive seconds and counters per layer, plus a span log.

    A layer's seconds count only its outermost call, so a recursive call
    is not counted twice.  ``reset`` clears the counters between rounds;
    the span log keeps the first ``span_cap`` spans of the whole run.
    """

    def __init__(self, span_cap: int = SPAN_CAP) -> None:
        self.span_cap = span_cap
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_seen = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.present: set[str] = set()
        self.absent: set[str] = set()
        self._installed: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, fn, after=None):
        layer_id = self._layer_ids.setdefault(layer, len(self._layer_ids))
        if layer_id == len(self.layers):
            self.layers.append(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer_id)
            outermost = self._depth[layer] == 0
            self._depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[layer] -= 1
                self._close(span, start, end)
                self.calls[layer] += 1
                if outermost:
                    self.seconds[layer] += end - start
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _open(self, layer_id: int) -> int:
        span = self.spans_seen
        self.spans_seen += 1
        if span < self.span_cap:
            self.span_layer.append(layer_id)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(math.nan)
            self.span_end.append(math.nan)
        self._stack.append(span)
        return span

    def _close(self, span: int, start: float, end: float) -> None:
        self._stack.pop()
        if span < self.span_cap:
            self.span_start[span] = start
            self.span_end[span] = end

    def install(self) -> None:
        """Wrap every target that exists; note the layers that do not."""
        for layer, module_name, path, after in TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.absent.add(layer)
                continue
            fn = getattr(owner, attr)
            if layer == "core.run":
                wrapped = self.wrap(layer, _timing_init(self, fn))
            else:
                wrapped = self.wrap(layer, fn, after)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, fn))
            self.present.add(layer)
        self.absent -= self.present

    def uninstall(self) -> None:
        """Put back every function ``install`` wrapped."""
        while self._installed:
            owner, attr, fn = self._installed.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path: Path, header: dict) -> None:
        """One JSON header line, then ``id,parent,layer,start_s,end_s`` rows."""
        stored = min(self.spans_seen, self.span_cap)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({**header, "spans": self.spans_seen, "stored": stored}) + "\n")
            fh.write("id,parent,layer,start_s,end_s\n")
            for i in range(stored):
                fh.write(
                    f"{i},{self.span_parent[i]},{self.layers[self.span_layer[i]]},"
                    f"{self.span_start[i]!r},{self.span_end[i]!r}\n"
                )


def _resolve(module_name: str, path: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, attr, None)):
        return None, None
    return owner, attr


def _timing_init(tracer: Tracer, run_sgoal):
    """run_sgoal with its ``init`` argument wrapped as layer ``core.init``."""

    @functools.wraps(run_sgoal)
    def call(problem, init, *args, **kwargs):
        return run_sgoal(problem, tracer.wrap("core.init", init), *args, **kwargs)

    return call


# metric -> layer whose seconds, calls or counter it reports
SECONDS = {
    "kernels.sample_s": "kernels.sample",
    "es.child_s": "es.child",
    "es.recombine_s": "es.recombine",
    "es.update_strategies_s": "es.update_strategies",
    "es.mutate_y_s": "es.mutate_y",
    "es.replace_s": "es.replace",
    "core.evaluate_s": "core.evaluate",
    "bench.objective_s": "bench.objective",
    "core.run_s": "core.run",
    "core.reflect_s": "core.reflect",
    "sa.replace_s": "sa.replace",
    "cli.trace_write_s": "cli.trace_write",
    "verify.extract_s": "verify.extract",
    "kernels.matrix_s": "kernels.matrix",
    "kernels.row_check_s": "kernels.row_check",
    "kernels.load_matrix_s": "kernels.load_matrix",
    "verify.premises_s": "verify.premises",
    "verify.bound_s": "verify.bound",
    "kernels.products_s": "kernels.products",
    "verify.write_s": "verify.write",
}
CALLS = {
    "kernels.sample_calls": "kernels.sample",
    "es.children": "es.child",
    "es.replace_calls": "es.replace",
    "core.evaluate_calls": "core.evaluate",
    "bench.objective_calls": "bench.objective",
    "core.reflect_calls": "core.reflect",
    "sa.replace_calls": "sa.replace",
    "kernels.matrix_calls": "kernels.matrix",
}
COUNTERS = {
    "cli.trace_rows": "cli.trace_write",
    "verify.matrices_kept": "verify.extract",
    "verify.states": "verify.bound",
    "kernels.product_bytes": "kernels.products",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one round; metrics on an absent layer are left out."""
    calls, secs, counts = tracer.calls, tracer.seconds, tracer.counts
    out = {name: secs[layer] for name, layer in SECONDS.items()}
    out.update({name: float(calls[layer]) for name, layer in CALLS.items()})
    out.update({name: counts[name] for name in COUNTERS})
    out["core.memo_hit_ratio"] = (
        1.0 - _ratio(calls["bench.objective"], calls["core.evaluate"])
        if calls["core.evaluate"] else 0.0
    )
    out["core.loop_self_s"] = secs["core.run"] - secs["kernels.sample"] - secs["core.init"]
    out["sa.accept_ratio"] = _ratio(counts["sa.accepts"], calls["sa.metropolis"])
    out["verify.matrix_keep_ratio"] = _ratio(
        counts["verify.matrices_kept"], calls["kernels.matrix"]
    )
    needs = {**SECONDS, **CALLS, **COUNTERS}
    derived = {
        "core.memo_hit_ratio": ("core.evaluate", "bench.objective"),
        "core.loop_self_s": ("core.run", "kernels.sample"),
        "sa.accept_ratio": ("sa.metropolis",),
        "verify.matrix_keep_ratio": ("verify.extract", "kernels.matrix"),
    }
    return {
        name: value for name, value in out.items()
        if not tracer.absent.intersection(derived.get(name, (needs.get(name),)))
    }
