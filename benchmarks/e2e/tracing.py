"""Spans recorded by the benchmark around its calls into each layer.

A span is ``{name, start, end, parent, round}`` in ``perf_counter_ns``
ticks, kept in memory and written out as a Chrome trace when the run
ends.  A layer's *self time* is its span's duration minus the part its
child spans cover.  End-to-end numbers never come from traced rounds;
the difference between the two is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: Optional[int]
    round: int

    @property
    def duration_ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.round = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0, 0, parent, self.round))
        self._stack.append(index)
        self.spans[index].start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start: int, end: int) -> None:
        """A span timed by the caller (concurrent requests do not nest)."""
        self.spans.append(Span(name, start, end, None, self.round))

    def self_ms(self, round_: int) -> Dict[str, float]:
        """Self time per span name within one round (same-named spans add up)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for k, span in enumerate(self.spans):
            if span.round == round_:
                own = (span.end - span.start - child_ns[k]) / 1e6
                out[span.name] = out.get(span.name, 0.0) + own
        return out

    def durations_ms(self, round_: int, name: str) -> List[float]:
        """Inclusive durations of the spans called ``name`` in one round."""
        return [
            span.duration_ms
            for span in self.spans
            if span.round == round_ and span.name == name
        ]

    def as_dicts(self) -> List[dict]:
        return [vars(span).copy() for span in self.spans]


def write_chrome_trace(path: str, spans_by_workload: Dict[str, List[dict]]) -> None:
    """One Chrome-trace process per workload, one thread per round."""
    events = []
    for pid, (workload, spans) in enumerate(sorted(spans_by_workload.items())):
        events.append(
            {"ph": "M", "pid": pid, "name": "process_name", "args": {"name": workload}}
        )
        origin = min((s["start"] for s in spans), default=0)
        for span in spans:
            events.append(
                {
                    "ph": "X",
                    "pid": pid,
                    "tid": span["round"],
                    "name": span["name"],
                    "ts": (span["start"] - origin) / 1e3,
                    "dur": (span["end"] - span["start"]) / 1e3,
                    "args": {"parent": span["parent"]},
                }
            )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        handle.write("\n")
