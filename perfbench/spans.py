"""Spans for the traced run, kept in memory and written out at the end.

A span records a name, its start and end on the perf_counter clock, the
span that was open when it started, and the workload run it belongs to.
A span's self time is its duration minus the time its child spans cover,
so the self times of every span under a root add up to the root's
duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("span_id", "parent", "name", "run_id", "start", "end",
                 "child_s", "attrs")

    def __init__(self, span_id, parent, name, run_id):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.run_id = run_id
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects nested spans; one tracer serves one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent.span_id if parent else None, name, self.run_id)
        s.attrs.update(attrs)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration

    def select(self, name: str, run_id: str | None = None, within: str | None = None):
        """Spans called name, optionally of one run and under an ancestor called within."""
        out = []
        for s in self.spans:
            if s.name != name or (run_id is not None and s.run_id != run_id):
                continue
            if within is not None and not self.has_ancestor(s, within):
                continue
            out.append(s)
        return out

    def has_ancestor(self, s: Span, name: str) -> bool:
        while s.parent is not None:
            s = self.spans[s.parent]
            if s.name == name:
                return True
        return False

    def self_time(self, name: str, run_id: str, within: str | None = None) -> float:
        return sum(s.self_s for s in self.select(name, run_id, within))

    def layer_self_times(self, root: Span) -> dict[str, float]:
        """Self time per span name over root and every span below it."""
        below = {root.span_id}
        totals = {root.name: root.self_s}
        for s in self.spans[root.span_id + 1:]:
            if s.parent in below:
                below.add(s.span_id)
                totals[s.name] = totals.get(s.name, 0.0) + s.self_s
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "parent": s.parent, "name": s.name,
                    "run": s.run_id, "start": s.start, "end": s.end,
                    "self_s": s.self_s, **s.attrs}) + "\n")
