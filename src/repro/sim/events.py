"""Event queue for the discrete-event simulator.

Events are ordered by scheduled time; ties are broken by a monotonically
increasing sequence number so that two events scheduled for the same
instant fire in scheduling order.  This tie-break is what makes entire
simulation runs deterministic.

The heap holds ``(time, seq, event)`` tuples and a live count keeps
``len`` O(1).  An event of *size* n is one heap entry for n same-instant
actions with consecutive seqs, which no other event can sort between.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class Event:
    """A scheduled callback.

    Attributes:
        time: simulated time at which the event fires.
        seq: tie-breaker; assigned by the queue, increasing.
        fire: runs the event: its zero-argument action, or a subclass method.
        cancelled: cancelled events are skipped when popped.
        size: events this one counts as (its actions not yet skipped).
    """

    __slots__ = ("time", "seq", "fire", "cancelled", "size", "_queue")

    def __init__(self, time: float, action: Callable[[], Any]) -> None:
        self.time = time
        self.fire = action  # a slot, so firing costs no extra call
        self.cancelled = False
        self.size = 1
        # The queue counting this event until popped or cancelled.
        self._queue: EventQueue | None = None

    def cancel(self) -> None:
        """Mark the event so the queue skips it."""
        self.cancelled = True
        if self._queue is not None:
            self._queue._live -= self.size
            self._queue = None

    def skip_one(self) -> None:
        """Count one action fewer (the subclass skips it when it fires);
        skipping the last one cancels the event."""
        self.size -= 1
        if self._queue is not None:
            self._queue._live -= 1
            if not self.size:
                self.cancel()


class EventQueue:
    """A priority queue of :class:`Event` ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push_event(self, event: Event) -> Event:
        """Schedule *event* at ``event.time`` as ``event.size`` events,
        with consecutive seqs from ``event.seq``; return it."""
        seq = event.seq = self._next_seq
        self._next_seq = seq + event.size
        self._live += event.size
        event._queue = self
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or None."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                event._queue = None
                self._live -= event.size
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the fire time of the earliest pending event, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
