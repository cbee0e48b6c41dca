"""In-memory spans around calls into the program's layers, and the ledger.

A span records one call into a layer: its name, the span that caused it,
its start and end, and the intervals during which it ran on the thread
(its *segments*).  A plain function runs in one segment.  A coroutine is
suspended while it awaits, so its span keeps one segment per resumption
and the waits do not count as its own time.

A layer's *self time* is the length of its segments minus the part of
them covered by its children's segments (the union of their intervals).
Summed over every span, self times partition the time the thread spent
inside traced code; what is left of the measured window is the ledger
gap (the event loop, untraced glue, and idle waiting).

Tracing is installed by patching attributes (:meth:`Tracer.patch`) and is
removed again by :meth:`Tracer.restore`, so an untraced phase runs the
program's own functions.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.perf_counter

Interval = Tuple[float, float]


class Span:
    """One call into a layer."""

    __slots__ = ("name", "parent", "start", "end", "segments", "items")

    def __init__(self, name: str, parent: Optional["Span"]) -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        #: None while the call is still running
        self.end: Optional[float] = None
        self.segments: List[Interval] = []
        #: work items the call handled (keys, commands), 0 when not counted
        self.items = 0


# ------------------------------------------------------------------ ledger


def merge(intervals: Iterable[Interval]) -> List[Interval]:
    """The union of *intervals* as sorted, disjoint intervals."""
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def length(intervals: Sequence[Interval]) -> float:
    """Total length of disjoint *intervals*."""
    return sum(end - start for start, end in intervals)


def overlap(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Length of the intersection of two sorted, disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """*span*'s segments minus the union of its children's segments."""
    own = merge(span.segments)
    covered = merge(seg for child in children for seg in child.segments)
    return length(own) - overlap(own, covered)


class LayerTotals:
    """Per-name sums over a set of spans."""

    __slots__ = ("calls", "wall", "busy", "self", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.busy = 0.0
        self.self = 0.0
        self.items = 0

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.busy += other.busy
        self.self += other.self
        self.items += other.items

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "wall": self.wall, "busy": self.busy,
            "self": self.self, "items": self.items,
        }


def ledger(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Sum calls, wall time, on-thread time, self time and items by name."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        row = totals.get(span.name)
        if row is None:
            row = totals[span.name] = LayerTotals()
        row.calls += 1
        row.wall += span.end - span.start
        row.busy += length(merge(span.segments))
        row.self += self_time(span, children.get(id(span), ()))
        row.items += span.items
    return totals


def ledger_gap(totals: Dict[str, LayerTotals], window: float) -> float:
    """Share of *window* seconds not covered by the summed self times."""
    covered = sum(row.self for row in totals.values())
    return (window - covered) / window if window > 0 else 0.0


def root_of(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


# ----------------------------------------------------------------- tracer


class _Stepped:
    """Awaitable that drives *coro* one resumption at a time and records
    each resumption as a segment of a span.

    With a fixed *span* the span is current while the coroutine runs.
    Without one (a whole task, see :meth:`Tracer.task_factory`) each
    resumption is charged to whichever span is current in the task's
    context, so the steps of tasks a traced call spawns count as its own.
    """

    __slots__ = ("coro", "span", "tracer")

    def __init__(self, coro, span: Optional[Span], tracer: "Tracer") -> None:
        self.coro = coro
        self.span = span
        self.tracer = tracer

    def __await__(self):
        coro, span, tracer = self.coro, self.span, self.tracer
        var = tracer.current
        value, error = None, None
        while True:
            owner = span if span is not None else var.get()
            token = var.set(span) if span is not None else None
            start = clock()
            try:
                if error is None:
                    out = coro.send(value)
                else:
                    out = coro.throw(error)
            except BaseException as exc:
                end = clock()
                if owner is not None:
                    owner.segments.append((start, end))
                if span is not None:
                    span.end = end
                    if span.parent is None:
                        tracer.spans_closed()
                if isinstance(exc, StopIteration):
                    return exc.value
                raise
            else:
                end = clock()
            finally:
                if token is not None:
                    var.reset(token)
            if owner is not None:
                owner.segments.append((start, end))
            try:
                value, error = (yield out), None
            except BaseException as exc:  # thrown in by the task
                value, error = None, exc


class _SteppedGenerator:
    """A sans-IO generator whose every ``send`` is a span of its own."""

    __slots__ = ("gen", "tracer", "name")

    def __init__(self, gen, tracer: "Tracer", name: str) -> None:
        self.gen = gen
        self.tracer = tracer
        self.name = name

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self.tracer
        span = Span(self.name, tracer.current.get())
        token = tracer.current.set(span)
        span.start = clock()
        try:
            out = self.gen.send(value)
        finally:
            tracer.close(span, token)
        span.items = 1  # one round (or one command) planned
        return out

    def throw(self, *args):
        return self.gen.throw(*args)

    def close(self):
        return self.gen.close()


class Tracer:
    """Keeps spans in memory while patched wrappers are installed.

    Once ``FOLD_AT`` spans are held, every span tree whose root call has
    returned is folded into per-layer totals and dropped, which bounds
    memory on long traced runs; the seconds spent folding are kept in
    :attr:`fold_seconds` so they can be left out of the measured window.
    """

    FOLD_AT = 50_000

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.folded: Dict[str, LayerTotals] = {}
        self.fold_seconds = 0.0
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: List[Tuple[object, str, bool, object]] = []

    # -------------------------------------------------------------- spans

    def close(self, span: Span, token) -> None:
        """End a synchronous span opened with ``current.set(span)``.

        Callers take ``span.start`` last before the traced call, and this
        reads the clock first, so the wrapper's own cost stays outside
        the span.
        """
        span.end = end = clock()
        self.current.reset(token)
        span.segments.append((span.start, end))
        self.spans.append(span)
        if span.parent is None:
            self.spans_closed()

    def spans_closed(self) -> None:
        """A root span returned: fold finished trees if enough are held."""
        if len(self.spans) >= self.FOLD_AT:
            self.fold()

    def fold(self) -> None:
        """Fold every span tree whose root returned into :attr:`folded`."""
        started = clock()
        done: List[Span] = []
        pending: List[Span] = []
        for span in self.spans:
            (done if root_of(span).end is not None else pending).append(span)
        for name, row in ledger(done).items():
            self.folded.setdefault(name, LayerTotals()).add(row)
        self.spans = pending
        self.fold_seconds += clock() - started

    # ----------------------------------------------------------- wrappers

    def wrap(
        self,
        name: str,
        fn: Callable,
        items: Optional[Callable] = None,
        root: bool = False,
    ) -> Callable:
        """*fn* with a span per call; ``items(args, result)`` counts work.

        ``root=True`` gives the span no parent: for callbacks the event
        loop runs outside any task.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, None if root else tracer.current.get())
            token = tracer.current.set(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span, token)
            if items is not None:
                span.items = items(args, result)
            return result

        return traced

    def wrap_async(
        self, name: str, fn: Callable, items: Optional[Callable] = None
    ) -> Callable:
        """Coroutine function *fn* with a span whose segments are its
        resumptions; ``items(args)`` counts the work it was handed."""
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span = Span(name, tracer.current.get())
            span.start = clock()
            if items is not None:
                span.items = items(args)
            tracer.spans.append(span)
            return await _Stepped(fn(*args, **kwargs), span, tracer)

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Generator function *fn* whose every ``send`` is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _SteppedGenerator(fn(*args, **kwargs), tracer, name)

        return traced

    def task_factory(self, loop, coro, **kwargs):
        """Event-loop task factory charging each task step to the span
        current in the task's context (the span that spawned it)."""

        async def run():
            return await _Stepped(coro, None, self)

        return asyncio.Task(run(), loop=loop, **kwargs)

    # ------------------------------------------------------------ patches

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)`` until
        :meth:`restore`."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def totals(self) -> Dict[str, LayerTotals]:
        """Per-layer totals of every finished span tree."""
        self.fold()
        return self.folded
