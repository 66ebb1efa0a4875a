"""Span recording for the traced benchmark run.

The tracer measures each ``multidid`` layer from outside: it replaces a
public function, under the name the calling module looks it up, with a
wrapper that records a span (name, start, end, parent, operation id, thread)
and optional counts read off the call's arguments and result. Nothing inside
the package changes; ``uninstall`` puts the original functions back, so
untraced passes run the plain code.

A span opened on a thread with no open span of its own (a bootstrap worker)
takes as parent the innermost open span of the thread that installed the
tracer, which is the call that started the workers. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main and tid != self._main else None
        span = Span(name, time.perf_counter(), 0.0, parent, self.op, tid)
        # list.append is atomic under the interpreter lock, and each thread
        # only touches its own stack
        self.spans.append(span)
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int, counts: dict[str, float] | None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        if counts:
            span.counts.update(counts)
        self._stacks[span.thread].pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``count(args, kwargs, result)`` may return a dict of counts to attach.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = count(args, kwargs, result) if count and result is not None else None
                self._close(idx, counts)
        return traced

    # -- installation -------------------------------------------------------

    def install(self, targets) -> None:
        """Replace each ``(owner, attribute, span name, count)`` target."""
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": [asdict(s) for s in self.spans]}, fh)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    """Self time of each span: its duration minus the union of its children's
    intervals (worker-thread children of one parent can overlap)."""
    chosen = set(indices)
    children: dict[int, list[tuple[float, float]]] = {i: [] for i in indices}
    for i in indices:
        p = spans[i].parent
        if p is not None and p in chosen:
            children[p].append((spans[i].start, spans[i].end))
    return {i: (spans[i].end - spans[i].start) - _union_length(children[i])
            for i in indices}
