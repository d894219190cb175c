"""Event queue for the discrete-event simulator.

Events are ordered by scheduled time; ties are broken by a monotonically
increasing sequence number so that two events scheduled for the same
instant fire in scheduling order.  This tie-break is what makes entire
simulation runs deterministic.

The heap holds ``(time, seq, event)`` tuples and a live count keeps
``len`` O(1).  A *group* is one heap entry for ``n`` same-instant actions
with consecutive seqs, which no other event can sort between.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class Event:
    """A scheduled callback.

    Attributes:
        time: simulated time at which the event fires.
        seq: tie-breaker; assigned by the queue, increasing.
        action: zero-argument callable run when the event fires.
        cancelled: cancelled events are skipped when popped.
        size: events this one counts as (a group's uncancelled members).
    """

    __slots__ = ("time", "seq", "action", "cancelled", "size", "_queue")

    def __init__(
        self, time: float, seq: int, action: Callable[[], Any], queue: EventQueue
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False
        self.size = 1
        # The queue counting this event until popped, cancelled or cleared.
        self._queue: EventQueue | None = queue

    def cancel(self) -> None:
        """Mark the event so the queue skips it."""
        self.cancelled = True
        if self._queue is not None:
            self._queue._live -= self.size
            self._queue = None


class Member:
    """One action of a group: its own ``(time, seq)`` and cancel."""

    __slots__ = ("time", "seq", "_group")

    def __init__(self, time: float, seq: int, group: Event) -> None:
        self.time = time
        self.seq = seq
        self._group: Event | None = group  # None once fired or cancelled

    def cancel(self) -> None:
        """Skip this member when its group fires; the others still fire."""
        group = self._group
        if group is not None:
            self._group = None
            group.size -= 1
            if group._queue is not None:
                group._queue._live -= 1
                if not group.size:  # every member cancelled: skip the entry
                    group.cancel()


class EventQueue:
    """A priority queue of :class:`Event` ordered by (time, seq)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, action: Callable[[], Any]) -> Event:
        """Schedule *action* at simulated *time* and return its event."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time, seq, action, self)
        heapq.heappush(self._heap, (time, seq, event))
        self._live += 1
        return event

    def push_group(
        self, time: float, size: int, action: Callable[[int], Any]
    ) -> list[Member]:
        """*size* :meth:`push` calls of ``action(i)`` as one heap entry that
        skips members cancelled before their turn; returns their handles."""
        members: list[Member] = []

        def fire() -> None:
            for index, member in enumerate(members):
                if member._group is not None:
                    member._group = None
                    action(index)

        group = self.push(time, fire)
        group.size = size
        self._next_seq += size - 1
        self._live += size - 1
        members.extend(Member(time, group.seq + i, group) for i in range(size))
        return members

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

    def clear(self) -> None:
        """Drop every pending event."""
        for _, _, event in self._heap:
            event._queue = None
        self._heap.clear()
        self._live = 0
