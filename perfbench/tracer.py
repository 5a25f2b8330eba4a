"""Spans and counters recorded from outside kdnf, around its public calls.

Spans are kept in memory: name, start, end, parent and tree.  The "main"
tree of an op replays exactly the calls the CLI makes; the "breakdown" tree
holds the extra calls that split a stage into parts (decompose on its own,
reduce and cover_instance on their own before a minimize).  Layer times are
span self times, summed by name over both trees; the tracing overhead is
taken over the main tree only.
"""

from __future__ import annotations

import time
from collections import Counter

_clock = time.perf_counter


class _Span:
    __slots__ = ("tracer", "rec", "c0")

    def __init__(self, tracer: "Tracer", name: str):
        self.c0 = _clock()
        self.tracer = tracer
        self.rec = [name, tracer.tree, None, 0.0, 0.0]

    def __enter__(self):
        tr = self.tracer
        if tr.stack:
            self.rec[2] = tr.stack[-1]
        tr.stack.append(len(tr.spans))
        tr.spans.append(self.rec)
        self.rec[3] = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        tr = self.tracer
        self.rec[4] = end
        tr.stack.pop()
        if self.rec[1] == "main":
            tr.cost += (self.rec[3] - self.c0) + (_clock() - end)
        return False


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, tree, parent index, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tree = "main"
        self.cost = 0.0  # seconds spent in span bookkeeping on the main tree

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def breakdown(self):
        return _Breakdown(self)

    def duration(self, sid: int) -> float:
        rec = self.spans[sid]
        return rec[4] - rec[3]

    def self_times(self) -> Counter:
        """Span duration minus the time its (sequential) children cover, by name."""
        child = Counter()
        for name, tree, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for sid, (name, _, _, start, end) in enumerate(self.spans):
            out[name] += (end - start) - child[sid]
        return out


class _Breakdown:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        self.tracer.tree = "breakdown"
        self.root = self.tracer.span("breakdown").__enter__()
        return self

    def __exit__(self, *exc):
        self.root.__exit__(*exc)
        self.tracer.tree = "main"
        return False
