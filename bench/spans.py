"""Spans recorded around calls into the package, from outside it.

A :class:`Tracer` replaces a module attribute or class method with a
wrapper that records one span per call (name, start, end, parent span)
and restores the original on :meth:`Tracer.uninstall`. The package's own
files are not changed. A wrapped name that no longer exists is reported
in :attr:`Tracer.absent` instead of failing the run.

Spans are kept in memory. Self time of a span is its duration minus the
part of it that its child spans cover; a span opened on a thread with no
open span (a pool worker) is a child of the current root.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    note: float | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.root_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _replace(self, owner, attr: str, name: str, make) -> None:
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(name)
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``owner`` is a module or class, or None when it no longer exists.
        ``note`` maps the call's arguments to a number kept on the span.
        """
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else tracer.root_id
                sid = next(tracer._ids)
                stack.append(sid)
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    value = note(*args, **kwargs) if note is not None else None
                    tracer.spans.append(Span(sid, name, start, end, parent, value))

            return traced

        self._replace(owner, attr, name, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without timing them."""
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        counts.setdefault(name, 0)
        self._replace(owner, attr, name, make)

    @contextlib.contextmanager
    def root(self, name: str):
        """Span of one whole call; spans on threads with none open descend from it."""
        self.root_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(self.root_id, name, start, time.perf_counter(), None, None))
            self.root_id = None

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time in seconds per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        inner = _covered(children.get(span.sid, []), span.start, span.end)
        totals[span.name] += (span.end - span.start) - inner
    return totals
