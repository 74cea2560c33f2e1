"""In-memory span recorder for the traced benchmark run.

Spans are recorded around calls into the program's layers from the
benchmark's own code: :meth:`Tracer.wrap` returns a stand-in for a layer
function that records a span (name, start, end, parent span, run id) and
adds counts taken from the call's arguments and result.  Nothing is written
while ops run; the worker dumps :attr:`Tracer.spans` once at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    run: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0


Counter = Callable[[tuple, object], dict[str, float]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), self.run, name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                for key, value in counter(args, result).items():
                    self.counts[self.run][key] += value
            return result

        return traced


def self_times(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Per run id, the summed self time of each span name.

    A span's self time is its duration minus that of its direct children;
    spans come from one thread, so children never overlap one another.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s["run"]][s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return out
