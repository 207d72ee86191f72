"""In-memory spans around the benchmark's calls into each layer.

Spans are recorded from the benchmark's own files only; nothing inside
``repro`` is instrumented.  A span is (name, id, parent id, workload, start,
end, detail); they stay in memory and are written as JSON lines at the end.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    workload: str
    start: float
    end: float = 0.0
    #: what the span worked on (a cell's scheme and link), for reading the file
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans of one process; ``span`` is not thread-safe (serial pass)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, detail: str = "", start: Optional[float] = None) -> Iterator[Span]:
        """``start`` backdates the span (the root starts at the process's first statement)."""
        span = self.add(name, time.perf_counter() if start is None else start)
        span.detail = detail
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def add(self, name: str, start: float, end: float = 0.0) -> Span:
        """Record a span from known timestamps, under the current span."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, len(self.spans), parent, self.workload, start, end)
        self.spans.append(span)
        return span

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus what its child spans cover."""
        own = {span.id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def high_percentile(values: Sequence[float], percent: float) -> float:
    """The ``percent``-th percentile, or 0.0 with fewer than ten samples beyond it."""
    ordered = sorted(values)
    beyond = int(len(ordered) * (100.0 - percent) / 100.0)
    if beyond < 10:
        return 0.0
    return ordered[len(ordered) - beyond - 1]
