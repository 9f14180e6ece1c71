"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent, attrs]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (-1 at
the top) and ``attrs`` holds labels such as the opponent count.  Spans are
recorded only by the benchmark's own code, around its calls into the
program; the untraced run records nothing.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter as now


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._open = [-1]

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        self.spans.append([name, now(), None, self._open[-1], attrs])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = now()

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a finished span under the innermost open one."""
        self.spans.append([name, start, end, self._open[-1], attrs])

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def durations(self, name: str, **attrs) -> list[float]:
        return [
            end - start
            for span_name, start, end, _, span_attrs in self.spans
            if span_name == name and all(span_attrs.get(k) == v for k, v in attrs.items())
        ]

    def median(self, name: str, **attrs) -> tuple[float, int]:
        """Median duration in seconds and the number of spans it covers (0.0 if none)."""
        d = self.durations(name, **attrs)
        return (statistics.median(d) if d else 0.0), len(d)

    def total(self, name: str, **attrs) -> tuple[float, int]:
        d = self.durations(name, **attrs)
        return sum(d), len(d)
