"""Spans around the benchmark's calls into the package.

Untraced, a call is only counted.  Traced, each call leaves a span in
memory: name, start, end, parent span and the level or command it belongs
to.  Spans are only read when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: str          # level ("degree-3") or command id


class Recorder:
    def __init__(self, traced: bool = False):
        self.traced = traced
        self.spans: list[Span] = []
        self.attempted = 0
        self.failed = 0
        self._stack: list[int] = []
        self._unit = ""

    def add_span(self, name: str, start: float, end: float) -> int | None:
        if not self.traced:
            return None
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end,
                               self._stack[-1] if self._stack else None,
                               self._unit))
        return sid

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        """Group calls (a pass, a level); the group is not a call itself."""
        outer = self._unit
        if unit is not None:
            self._unit = unit
        sid = self.add_span(name, time.perf_counter(), 0.0)
        if sid is not None:
            self._stack.append(sid)
        try:
            yield
        finally:
            if sid is not None:
                self._stack.pop()
                self.spans[sid].end = time.perf_counter()
            self._unit = outer

    def call(self, name: str, fn, *args, **kwargs):
        """Run one package call and count it as attempted."""
        self.attempted += 1
        if not self.traced:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.add_span(name, start, time.perf_counter())

    def busy(self) -> dict[str, tuple[float, int]]:
        """Busy seconds and call count per span name."""
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            t, n = out.get(s.name, (0.0, 0))
            out[s.name] = (t + s.end - s.start, n + 1)
        return out
