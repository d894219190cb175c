"""Span recording and method patching for the traced benchmark run.

A span is one call into a layer: its name, start, end and the span that
was open when it began (its parent).  Spans are kept in flat arrays so a
traced run of a few hundred thousand calls stays small, and the
per-layer numbers are computed from them once the run is over.

A layer's *self time* is its spans' time minus the part of that time
their child spans cover.  The program runs in one thread, so children
nest strictly inside their parent and never overlap each other.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Any, Callable, Iterator


class SpanRecorder:
    """Records nested spans as ``(name, start, end, parent)``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        """The interned id of span name *name*."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of nesting order")

    def __len__(self) -> int:
        return len(self.start)

    def spans(self) -> Iterator[tuple[str, float, float, int]]:
        """Every recorded span as ``(name, start, end, parent index)``."""
        names = self.names
        for i in range(len(self.start)):
            yield names[self.name[i]], self.start[i], self.end[i], self.parent[i]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus child-covered time."""
        n = len(self.start)
        start, end, parent = self.start, self.end, self.parent
        covered = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        totals = dict.fromkeys(self.names, 0.0)
        names, name = self.names, self.name
        for i in range(n):
            totals[names[name[i]]] += end[i] - start[i] - covered[i]
        return totals

    def root_time(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.parent[i] < 0
        )

    def durations(self, name: str) -> list[float]:
        """Total (not self) durations of every span called *name*."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == nid
        ]

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.name.count(nid)


def spanned(
    recorder: SpanRecorder, name: str, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """*fn* wrapped so that each call records one span called *name*."""
    nid = recorder.name_id(name)
    open_span, close_span = recorder.open, recorder.close

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        index = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class Patcher:
    """Replaces attributes of classes or instances and puts them back.

    ``patch(owner, attr, make)`` sets ``owner.attr`` to ``make(current)``
    where *current* is what ``getattr`` returns now: the plain function
    for a class, the bound method for an instance.  :meth:`restore`
    reinstates the owner's own attribute, or deletes the override when
    the attribute was inherited.
    """

    _MISSING = object()

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def patch(
        self, owner: Any, attr: str, make: Callable[[Any], Any]
    ) -> None:
        own = vars(owner).get(attr, self._MISSING)
        self._saved.append((owner, attr, own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def quantile(values: list[float], q: float) -> float:
    """The *q* quantile (0 < q < 1) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
