"""Spans around the benchmark's calls into the package.

A span records its name, start, end and the span open around it, in
seconds of the monotonic clock. Spans are kept in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

_OFF = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _OFF

    def wrap(self, name: str, fn):
        """``fn`` itself when tracing is off, else ``fn`` inside a span."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def write(self, path: str) -> None:
        rows = [
            {"name": n, "start": start, "end": end, "parent": parent}
            for n, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        parent = tr._open[-1] if tr._open else -1
        self.index = len(tr.spans)
        tr.spans.append((self.name, time.monotonic(), 0.0, parent))
        tr._open.append(self.index)
        return self

    def __exit__(self, *exc):
        end = time.monotonic()
        tr = self.tracer
        tr._open.pop()
        name, start, _, parent = tr.spans[self.index]
        tr.spans[self.index] = (name, start, end, parent)
        return False
