"""A tracer built from outside groverlab: it wraps the public functions of the
package's modules and records one span per call.

A span holds its name (``<module>.<function>``), the id of the span that was
open when it started, its start and end times, the ``tracemalloc`` peak
inside it (measured from the traced memory at its start), and, for a call
that enters ``linalg`` from outside it, the bytes of the two-dimensional
arrays passed in.  Spans stay in memory until the run writes them out.

``from .linalg import ...`` in ``verification`` and ``cli`` binds a second
name to each function, so every module namespace that binds an original
function gets the wrapper, not just the module that defines it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass

PACKAGE = "groverlab"
LAYERS = ("linalg", "grover", "hamiltonians", "verification", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    base_bytes: int = 0
    peak_bytes: int = 0
    operand_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls into the groverlab layers while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)][1])
        tracemalloc.start()

    def uninstall(self) -> None:
        tracemalloc.stop()
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, span_name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self._call(span_name, function, args, kwargs)

        return traced

    def _call(self, name: str, function, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), parent=parent.id if parent else None, name=name, start=0.0)
        if name.startswith("linalg.") and not any(s.name.startswith("linalg.") for s in self._stack):
            span.operand_bytes = sum(a.nbytes for a in args if getattr(a, "ndim", 0) == 2)
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent.peak_bytes = max(parent.peak_bytes, peak)
        tracemalloc.reset_peak()
        span.base_bytes = span.peak_bytes = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            span.peak_bytes = max(span.peak_bytes, tracemalloc.get_traced_memory()[1])
            if parent is not None:
                parent.peak_bytes = max(parent.peak_bytes, span.peak_bytes)

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span], table) -> dict[str, float]:
    """Aggregate spans by ``table``: (metric, unit, kind, span names) rows.

    Kinds: ``self_s`` sums the self time of the named spans; ``total_s`` sums
    the inclusive time of the outermost ones (whose parent is not named);
    ``calls`` counts the outermost ones; ``alloc_peak_mb`` is the largest
    peak above a span's starting memory; ``operand_mb`` sums the operand
    bytes of every span.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    values = {}
    for metric, _unit, kind, names in table:
        group = [span for span in spans if span.name in names]
        outer = [s for s in group if s.parent is None or by_id[s.parent].name not in names]
        if kind == "self_s":
            value = sum(own[s.id] for s in group)
        elif kind == "total_s":
            value = sum(s.duration for s in outer)
        elif kind == "calls":
            value = len(outer)
        elif kind == "alloc_peak_mb":
            value = max((s.peak_bytes - s.base_bytes for s in group), default=0) / 2**20
        else:
            value = sum(s.operand_bytes for s in spans) / 2**20
        values[metric] = value
    return values
