"""In-memory spans for the traced benchmark run.

A span records a name, start and end (``time.perf_counter`` seconds), the
index of the span it ran inside and the benchmark operation it belongs to.
Spans stay in memory until the run writes them out once at the end.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = 0

    @contextmanager
    def span(self, name: str):
        span = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span["end"] = perf_counter()
            self._open.pop()


class NullTracer:
    """Records nothing; stands in for Tracer in the untraced operations."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def durations(spans: list[dict], op: int, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["op"] == op and s["name"] == name]


def self_times(spans: list[dict], op: int) -> dict[str, float]:
    """Seconds per span name in one operation, minus the time of its child spans.

    Spans nest without overlapping siblings, so the children's durations are
    exactly the part of the parent's interval that they cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["op"] == op and s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s["op"] == op:
            out[s["name"]] += s["end"] - s["start"] - child_time[i]
    return dict(out)
