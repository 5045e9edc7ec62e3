"""In-memory spans recorded by the benchmark around its calls into dvcm.

A span has a name, start and end on the monotonic clock, the span that
caused it, and the request it belongs to. Spans are kept in memory and
written out once, when the run ends. A disabled tracer records nothing and
costs one branch per span, so untraced runs measure the program alone.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def _record(self, name: str, request: str | None):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = {"name": name, "request": request, "parent": parent, "start": time.perf_counter()}
        self.spans.append(span)
        self._open.append(index)
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, request)

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every finished span with this name."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and "end" in s]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
