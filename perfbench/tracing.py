"""In-memory spans around calls into mubgeo, and per-layer self times from them.

A span records its name, start, end, the index of the span that was open when
it began (its parent) and a step id, "<pass>.<step>" or "setup". Spans stay in
a list until the process writes them out at the end. Standard library only, so
importing this module adds nothing to a measured package import.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, STEP = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self.step = "setup"
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.step]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[END] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[list]) -> dict:
    """Total self time in seconds per (step, name): duration minus time covered by children."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[(s[STEP], s[NAME])] += s[END] - s[START] - child_time[i]
    return dict(out)
