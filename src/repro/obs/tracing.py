"""Span-style tracing into a bounded ring buffer.

Spans and point events are stamped with *simulated* time plus a monotone
sequence number.  The sim clock does not advance while an event handler
runs, so a span opened and closed inside one handler has
``start == end``; the sequence number is what orders records within one
instant, exactly mirroring the event queue's
``(time, seq)`` ordering.  The ring buffer (``collections.deque`` with
``maxlen``) bounds memory on long runs; the export notes how many
records were evicted so truncation is never silent.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable


class Span:
    """One traced operation; use as a context manager."""

    __slots__ = ("tracer", "name", "attrs", "seq", "start", "end")

    def __init__(
        self, tracer: "SpanTracer", name: str, attrs: dict[str, Any]
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.seq = tracer._next_seq()
        self.start = tracer.clock()
        self.end: float | None = None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes mid-span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        if self.end is None:
            self.end = self.tracer.clock()
            self.tracer._record(self)


class _NullSpan:
    """Shared no-op span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Bounded trace collector with deterministic JSON-ready export."""

    def __init__(
        self, clock: Callable[[], float], capacity: int = 4096
    ) -> None:
        self.clock = clock
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._recorded = 0

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; close it (or exit the ``with`` block) to record."""
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous point event."""
        now = self.clock()
        self._ring.append(
            {
                "seq": self._next_seq(),
                "name": name,
                "start": now,
                "end": now,
                "attrs": attrs,
            }
        )
        self._recorded += 1

    def records(self) -> list[dict[str, Any]]:
        """Snapshot of the ring contents, oldest first."""
        return list(self._ring)

    def to_dict(self) -> dict[str, Any]:
        return {
            "capacity": self.capacity,
            "recorded": self._recorded,
            "evicted": max(0, self._recorded - len(self._ring)),
            "spans": self.records(),
        }

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _record(self, span: Span) -> None:
        self._ring.append(
            {
                "seq": span.seq,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "attrs": span.attrs,
            }
        )
        self._recorded += 1
