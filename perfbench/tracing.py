"""Span recording around the package's layer boundaries, and span analysis.

Spans are recorded from the benchmark's side only: :func:`install` replaces
the names that each package module uses to reach another module (and each
module's own public functions, which is how other modules and the
benchmark reach them through ``module.name``) with thin wrappers.  Nothing
in the package itself is edited.

A span is ``(name, start_ns, end_ns, parent, size)``: ``name`` is
``"<layer>.<function>"``, ``parent`` is the index of the enclosing span
(-1 at top level) and ``size`` is the number of amplitudes of the state a
``state_at`` call returned (0 for every other span).  Spans are held in
memory and written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Dict, List, Sequence

#: The package's modules, one per layer; the layer name is the module name.
LAYERS = ("spin_ops", "evolution", "fs_metric", "analytic", "verify", "cli")


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self._stack: List[int] = []

    def wrap(self, layer: str, name: str, fn):
        span_name = f"{layer}.{name}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        records_size = name == "state_at"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [span_name, clock(), 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if records_size:
                    span[4] = int(result.amplitudes.size)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        traced.perfbench_layer = layer
        return traced

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans}, fh)


def _wrappable(obj, module_name: str) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module_name
        and not hasattr(obj, "perfbench_layer")
    )


def install(tracer: Tracer) -> int:
    """Wrap every cross-layer name the package's modules use; return the count.

    For a module X and another layer module T, every function X imported
    from T is wrapped in X's namespace (private ones too: that is how X
    calls T).  Each module's own public functions are wrapped in its own
    namespace, which covers ``module.name`` calls and calls made inside the
    module.  Names that a module does not have are skipped, so the table
    follows the package as it changes.
    """
    modules = {layer: importlib.import_module(f"spinmanifold.{layer}") for layer in LAYERS}
    count = 0
    for caller in modules.values():
        namespace = vars(caller)
        for layer, target in modules.items():
            for name, obj in list(namespace.items()):
                if not _wrappable(obj, target.__name__):
                    continue
                if target is caller and name.startswith("_"):
                    continue
                namespace[name] = tracer.wrap(layer, name, obj)
                count += 1
    return count


def load_spans(path: str) -> List[list]:
    with open(path) as fh:
        return json.load(fh)["spans"]


def percentile_us(durations_ns: Sequence[int], q: float) -> float:
    """The q-quantile in microseconds.

    A quantile above the median is reported only where at least ten samples
    lie beyond it; otherwise, and for no samples at all, the result is 0.0.
    """
    n = len(durations_ns)
    if n == 0 or (q > 0.5 and n * (1.0 - q) < 10):
        return 0.0
    ordered = sorted(durations_ns)
    if q == 0.5:
        return statistics.median(ordered) / 1e3
    return ordered[min(n - 1, int(q * n))] / 1e3


class SpanSummary:
    """Per-layer self time, call counts and durations from one or more span lists."""

    def __init__(self, span_lists: Sequence[List[list]]):
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {}
        self.durations: Dict[str, List[int]] = {}
        self.outer_ns: Dict[str, int] = {}
        self.state_sizes: List[int] = []
        for spans in span_lists:
            self._add(spans)

    def _add(self, spans: List[list]):
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, parent, size) in enumerate(spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            self.self_ns[layer] = self.self_ns.get(layer, 0) + dur - child_ns[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(dur)
            if name == "evolution.state_at":
                self.state_sizes.append(size)
            if not self._has_ancestor_named(spans, parent, name):
                self.outer_ns[name] = self.outer_ns.get(name, 0) + dur

    @staticmethod
    def _has_ancestor_named(spans, parent: int, name: str) -> bool:
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def layer_self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def p50_us(self, name: str) -> float:
        return percentile_us(self.durations.get(name, []), 0.5)

    def p99_us(self, name: str) -> float:
        return percentile_us(self.durations.get(name, []), 0.99)

    def total_s(self, name: str) -> float:
        """Summed duration of the outermost spans of ``name``."""
        return self.outer_ns.get(name, 0) / 1e9

    def amplitudes_per_point(self) -> float:
        if not self.state_sizes:
            return 0.0
        return sum(self.state_sizes) / len(self.state_sizes)
