"""Span recorder and self-time reducer for the benchmark's traced run.

Spans are recorded in the benchmark's own code, around calls into one
layer of the program under test (``repro.hll``, ``repro.cc``, ...).
Each span has a name, the layer it measures, a start and end time, the
span that caused it (``parent``) and a ``trace_id`` shared by every
span of one program run, campaign trial or service request.

Spans are kept in memory and written out once, when the run ends.  A
layer's *self time* is the time its spans cover minus the part of that
interval their child spans cover, so nested layers are not counted
twice.  Stdlib only; times are read off the benchmark's host clock
(``common.clock``).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager, nullcontext

from common import clock


class SpanRecorder:
    """Collects spans in memory; thread-safe, one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def trace(self, trace_id: str):
        """Scope whose spans all carry *trace_id* (one run/trial/request)."""
        previous = getattr(self._local, "trace_id", None)
        self._local.trace_id = trace_id
        try:
            yield
        finally:
            self._local.trace_id = previous

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        """Record one span around the ``with`` body."""
        stack = self._stack()
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "name": name,
            "layer": layer,
            "parent": stack[-1] if stack else None,
            "trace_id": getattr(self._local, "trace_id", None),
            "thread": threading.get_ident(),
        }
        if attrs:
            record["attrs"] = attrs
        stack.append(span_id)
        record["start"] = clock()
        try:
            yield
        finally:
            record["end"] = clock()
            stack.pop()
            self.spans.append(record)

    def durations(self, name: str) -> list[float]:
        """Seconds covered by every span called *name*, in record order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write(self, path: str, extra: dict) -> None:
        """Write every span plus *extra* (metrics, tables) as one JSON file."""
        doc = dict(extra)
        doc["spans"] = sorted(self.spans, key=lambda s: s["start"])
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True, default=str)


class NullRecorder:
    """The recorder of an untraced run: same calls, nothing recorded."""

    def trace(self, trace_id: str):
        return nullcontext()

    def span(self, name: str, layer: str, **attrs):
        return nullcontext()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per layer.

    Each span contributes its duration minus the union of its children's
    intervals (clipped to the span), so a parent that merely waits on a
    child layer is charged nothing for that wait.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    per_layer: dict[str, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        inner = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(span["id"], ())
            if hi > start and lo < end
        ]
        own = (end - start) - _covered(inner)
        per_layer[span["layer"]] = per_layer.get(span["layer"], 0.0) + own
    return per_layer
