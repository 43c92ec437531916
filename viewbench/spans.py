"""In-memory spans recorded by the benchmark around its calls into pointvis.

A span is one call: its name, start and end on the `perf_counter` clock,
the span that was open when it began (its parent, -1 for none) and the view
it belongs to (-1 for set-up). Nothing is written until the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, view]
        self._open: list[int] = []
        self.view = -1

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.view]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children.

        Children run one after another inside their parent, so the part of
        the parent they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def to_json(self) -> list[dict]:
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "view": view}
            for i, (name, start, end, parent, view) in enumerate(self.spans)
        ]


class NullTracer:
    """Tracing off: the same calls, nothing recorded."""

    view = -1

    def span(self, name: str):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
