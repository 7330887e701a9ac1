"""Span recording from outside the program.

The recorder never touches the program's source: :mod:`layers` wraps
public functions at each layer boundary, and every wrapper opens one
span -- name, start, end, parent -- in an in-memory list.  Spans of one
session step share a step key.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover, so the
self times of all spans in a step add up to the step's wall time.

Parenting uses a :class:`contextvars.ContextVar`, so concurrent asyncio
client tasks (the serving workload) each keep their own span stack.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import time
import weakref
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "step", "counts")

    def __init__(self, name, start, end=None, parent=None, step=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        #: Index of the enclosing span in the same list (None = step root).
        self.parent = parent
        #: Key shared by every span of one session step.
        self.step = step
        #: Work counted at this boundary (particles returned, bytes, ...).
        self.counts = counts

    def count(self, key: str, amount: float = 1) -> None:
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.step, self.counts]

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.start}, {self.end}, "
            f"parent={self.parent}, step={self.step!r})"
        )


class _Frame:
    """The innermost open span of the current context."""

    __slots__ = ("index", "step", "layers")

    def __init__(self, index: int, step: Any, layers: frozenset):
        self.index = index
        self.step = step
        #: Names of this span and all its ancestors.
        self.layers = layers


_LIVE: "weakref.WeakSet[SpanRecorder]" = weakref.WeakSet()
_FORK_HOOK = False
_IDS = itertools.count()


def _forget_after_fork() -> None:
    # A forked worker starts from a copy of the parent's span list; the
    # worker must report only the spans it records itself.
    for recorder in list(_LIVE):
        recorder.spans = []


class SpanRecorder:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self, clock=time.perf_counter):
        global _FORK_HOOK
        self.clock = clock
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            f"stepbench-span-{next(_IDS)}", default=None
        )
        _LIVE.add(self)
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_forget_after_fork)
            _FORK_HOOK = True

    def current(self) -> Optional[_Frame]:
        return self._current.get()

    def open(self, name: str, step: Any = None, root: bool = False):
        """Open a span as a child of the current one (or a new step root).

        Returns ``(index, token)`` for :meth:`close`.
        """
        frame = None if root else self._current.get()
        if frame is None:
            parent, layers = None, frozenset()
        else:
            parent, step, layers = frame.index, frame.step, frame.layers
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), None, parent, step))
        token = self._current.set(_Frame(index, step, layers | {name}))
        return index, token

    def close(self, index: int, token) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        self._current.reset(token)
        return span

    def open_detached(self, name: str) -> Optional[Span]:
        """A child span that ends later, outside the current call.

        Used for work handed to another process: the span starts now and
        the caller sets ``end`` when the result arrives.  It does not
        become the current span.  Returns None outside a step.
        """
        frame = self._current.get()
        if frame is None:
            return None
        span = Span(name, self.clock(), None, frame.index, frame.step)
        self.spans.append(span)
        return span


def merge_intervals(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval, and overlapping
    children (concurrent work) cover their union once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None:
            continue
        parent = spans[span.parent]
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(span.parent, []).append((start, end))
    return [
        (span.end - span.start) - merge_intervals(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def attach(parents: List[Span], rows: Sequence[list], link) -> None:
    """Append another process's spans, given as rows, to ``parents``.

    Parent indices inside ``rows`` are shifted; each root gets the parent
    index ``link(span)`` returns (None leaves it a root).
    """
    offset = len(parents)
    for row in rows:
        span = Span(*row)
        span.parent = span.parent + offset if span.parent is not None else link(span)
        parents.append(span)
