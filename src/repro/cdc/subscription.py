"""The change-stream producer and the count-acknowledged subscription.

One protocol, three consumers
-----------------------------

Every consumer of a server's applied-operation stream runs the same
count-acknowledged FIFO protocol (PR 2): per-link FIFO delivery makes
the stream a consumer actually received a prefix of the stream the
producer sent, so the consumer's received-message *count* alone
identifies exactly which sent messages were lost.  None of the three
keeps a copy of what it sends; each is a position over a log the
server already holds:

- a client session's stream is the trace minus the client's own
  echoes (:class:`~repro.server.backend.ClientSession`);
- a shard exchange mark is one sent count over the dense commit log
  of :class:`~repro.server.shard.ShardServer`;
- a :class:`Subscription` (derived views and replica bootstrap) is a
  ``start`` position in its owner's trace plus a ``consumed`` count.

A :class:`ChangeStream` hangs off every server and numbers its commit
path: each applied operation advances the stream ``position`` and the
per-origin-shard count vector (cuts must account for the server's
entire history).  The stream keeps no history: :meth:`Subscription.poll`
builds :class:`~repro.cdc.events.ChangeEvent`s from the owner's trace,
the server's one in-memory log of applied operations, so ``from_cut``
replay and the live tail are one read.

Overflow → snapshot fallback
----------------------------

A subscription's ``capacity`` bounds its unconsumed events: once more
than ``capacity`` are pending, the subscription is *lost* —
:meth:`Subscription.poll` returns ``None`` and the consumer must call
:meth:`Subscription.resync`, which hands it a fresh
``(BootstrapState, Cut)`` snapshot and starts a new count epoch at the
snapshot's position.  This is exactly the snapshot path of the client
resync protocol, applied to in-process consumers.  The bound is checked
on every applied operation.

A crashed owner has lost its volatile state, so reading it would hand
the consumer a wiped replica: :meth:`ChangeStream.subscribe`,
:meth:`Subscription.resync` and :meth:`Subscription.read_chunk` raise
:class:`StreamUnavailableError` until the owner has recovered.
"""

from __future__ import annotations

from typing import Any

from repro.cdc.events import (
    NAMESPACES,
    ChangeEvent,
    Cut,
    SnapshotChunk,
    value_sort_key,
)
from repro.core.messages import TraceRecord


class StreamUnavailableError(RuntimeError):
    """A consumer read the state of a crashed change-stream owner.

    The owner's table died with the process; retry once it has
    recovered (its live subscriptions are *lost* by then, so the retry
    is a snapshot resync against the recovered state).
    """


class Subscription:
    """One consumer's bounded, count-acknowledged position in a change
    stream.

    The events of the current epoch are the owner's trace records from
    stream position :attr:`start` up to the stream's position (frozen at
    :meth:`close`); the first :attr:`consumed` of them are acknowledged.
    Consumers pull with :meth:`poll` and acknowledge with :meth:`ack`
    (a cumulative count, like the client session protocol); a consumer
    attaching mid-run reads :meth:`read_chunk` until exhausted to build
    the snapshot prefix the subscription does not cover (see
    :class:`repro.cdc.view.CdcView` for the certified merge).
    """

    def __init__(
        self,
        stream: "ChangeStream",
        name: str,
        capacity: int | None,
        start: int,
    ) -> None:
        self.stream = stream
        self.name = name
        self.capacity = capacity
        #: Stream position of the current epoch's first event.
        self.start = start
        self.consumed = 0
        self.overflows = 0
        self.snapshot_fallbacks = 0
        self._end: int | None = None
        self._lost = False
        self._ns_index = 0
        self._after: Any = None
        self.chunks_read = 0

    @property
    def sent_count(self) -> int:
        """Events of the current epoch so far: the stream position
        (frozen at :meth:`close`) minus :attr:`start`."""
        end = self.stream.position if self._end is None else self._end
        return end - self.start

    @property
    def lost(self) -> bool:
        """Did more than ``capacity`` events go unconsumed (or did the
        subscription start past the history the owner retains)?  A lost
        subscription must :meth:`resync` before polling again."""
        return self._lost

    def _overflow(self) -> None:
        """The backlog just reached ``capacity + 1`` events: mark the
        subscription lost until the consumer resyncs."""
        self._lost = True
        self.overflows += 1
        stream = self.stream
        obs = stream.obs
        if obs.enabled:
            obs.inc(f"{stream.obs_ns}.cdc.overflows")
            obs.event(
                f"{stream.obs_ns}.cdc.overflow",
                subscription=self.name,
                pending=self.capacity + 1,
            )

    # -- consumer side ------------------------------------------------------

    def poll(self) -> list[ChangeEvent] | None:
        """The events past the acknowledged prefix, oldest first, built
        from the owner's trace — or ``None`` when the subscription is
        lost and the consumer must fall back to :meth:`resync`."""
        if self._lost:
            return None
        stream = self.stream
        trace = stream.owner.trace
        position = stream.position
        end = position if self._end is None else self._end
        # Every note appends one trace record, so position p lives at
        # trace index p - base (base > 0 on a replica seeded from a
        # snapshot cut).
        base = position - len(trace)
        first = self.start + self.consumed
        return [
            _event(index, record)
            for index, record in enumerate(
                trace[first - base:end - base], first
            )
        ]

    def ack(self, count: int) -> None:
        """Acknowledge the first *count* events of this epoch
        (cumulative, like the client session's received count)."""
        if count < self.consumed or count > self.sent_count:
            raise ValueError(
                f"subscription {self.name!r} acked {count} events but "
                f"holds {self.consumed}..{self.sent_count}"
            )
        self.consumed = count

    def take(self) -> list[ChangeEvent] | None:
        """Poll and immediately acknowledge everything pending."""
        events = self.poll()
        if events is not None:
            self.ack(self.consumed + len(events))
        return events

    def resync(self) -> tuple[Any, Cut]:
        """Snapshot fallback: a fresh ``(BootstrapState, Cut)`` of the
        producer's state, starting a new count epoch at the cut (the
        snapshot path of the client resync protocol).

        Raises:
            StreamUnavailableError: the owner is crashed.
        """
        self.stream.check_available(self.name)
        state, cut = self.stream.snapshot_cut()
        self.start = cut.position
        self.consumed = 0
        self._lost = False
        self._ns_index = len(NAMESPACES)  # any bootstrap read is moot now
        self.snapshot_fallbacks += 1
        obs = self.stream.obs
        if obs.enabled:
            obs.inc(f"{self.stream.obs_ns}.cdc.snapshot_fallbacks")
            obs.event(
                f"{self.stream.obs_ns}.cdc.snapshot_fallback",
                subscription=self.name,
                position=cut.position,
            )
        return state, cut

    def close(self) -> None:
        """Detach from the stream: the epoch's events end at the current
        position."""
        if self._end is None:
            self._end = self.stream.position
        self.stream.unsubscribe(self)

    # -- chunked snapshot reads ---------------------------------------------

    @property
    def bootstrap_done(self) -> bool:
        return self._ns_index >= len(NAMESPACES)

    def skip_bootstrap(self) -> None:
        """Mark the chunked bootstrap as unnecessary (the subscription
        already covers the stream's entire history)."""
        self._ns_index = len(NAMESPACES)

    def read_chunk(self, max_entries: int = 64) -> SnapshotChunk | None:
        """Read the next snapshot chunk from the producer's live table.

        Chunks walk :data:`~repro.cdc.events.NAMESPACES` in order, each
        namespace in ascending key order, ``max_entries`` keys per
        chunk.  Each chunk is stamped with the stream cut at read time
        (its low/high watermarks — equal here, the read being atomic
        within one simulated instant).  Returns ``None`` once every
        namespace is exhausted.  The producer is never paused:
        operations keep committing past the subscription's start
        between reads, and the consumer reconciles their events against
        the chunk windows at merge time.

        Raises:
            StreamUnavailableError: the owner is crashed.
        """
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1: {max_entries}")
        self.stream.check_available(self.name)
        if self._ns_index >= len(NAMESPACES):
            return None
        namespace = NAMESPACES[self._ns_index]
        table = self.stream.owner.replica.table
        cut = self.stream.cut()
        after = self._after
        superseded: tuple[str, ...] = ()
        if namespace == "rows":
            pending = sorted(
                (row.row_id, row.value.items_tuple())
                for row in table.rows()
                if after is None or row.row_id > after
            )
            entries = tuple(pending[:max_entries])
            exhausted = len(pending) <= max_entries
            boundary = None if exhausted else entries[-1][0]
            superseded = tuple(
                row_id
                for row_id in sorted(table.superseded)
                if (after is None or row_id > after)
                and (boundary is None or row_id <= boundary)
            )
        else:
            history = (
                table.upvote_history
                if namespace == "upvotes"
                else table.downvote_history
            )
            pending = sorted(
                (value_sort_key(value.items_tuple()), value.items_tuple(), count)
                for value, count in history.items()
                if count and (after is None or value_sort_key(value.items_tuple()) > after)
            )
            entries = tuple((items, count) for _, items, count in pending[:max_entries])
            exhausted = len(pending) <= max_entries
            boundary = None if exhausted else pending[max_entries - 1][0]
        chunk = SnapshotChunk(
            namespace=namespace,
            entries=entries,
            superseded=superseded,
            boundary=boundary,
            low=cut,
            high=cut,
        )
        self.chunks_read += 1
        if exhausted:
            self._ns_index += 1
            self._after = None
        else:
            self._after = boundary
        obs = self.stream.obs
        if obs.enabled:
            obs.inc(f"{self.stream.obs_ns}.cdc.chunks")
            obs.inc(f"{self.stream.obs_ns}.cdc.chunk_entries", len(entries))
        return chunk


class ChangeStream:
    """The CDC producer attached to one server's commit path.

    The owning server calls :meth:`note` for every operation it applies
    (see ``BackendServer._log``); the stream maintains the apply-order
    position and the per-origin-shard count vector, and checks each
    bounded subscription's backlog against its capacity.  Events are
    built only when a subscription polls, from the owner's ``trace``;
    a ``from_cut`` subscription may start up to the owner's
    ``oplog_capacity`` positions back.
    """

    def __init__(self, owner: Any) -> None:
        self.owner = owner
        self.position = 0
        self._counts: dict[int, int] = {}
        self._subs: list[Subscription] = []

    @property
    def obs(self) -> Any:
        return self.owner.obs

    @property
    def obs_ns(self) -> str:
        return self.owner.endpoint

    def cut(self) -> Cut:
        """The stream's current position as a :class:`Cut`."""
        return Cut(self.position, tuple(sorted(self._counts.items())))

    @property
    def available(self) -> bool:
        """Is the owner's state readable (the owner is not crashed)?"""
        return not getattr(self.owner, "crashed", False)

    def check_available(self, name: str) -> None:
        """Raise :class:`StreamUnavailableError` while the owner is
        crashed (its state is not readable)."""
        if not self.available:
            raise StreamUnavailableError(
                f"subscription {name!r}: {self.obs_ns} is crashed; "
                "retry after it recovers"
            )

    def snapshot_cut(self) -> tuple[Any, Cut]:
        """Delegate to the owner's atomic ``(BootstrapState, Cut)``
        capture (the subscription snapshot-fallback path)."""
        return self.owner.snapshot_cut()

    def seed(self, cut: Cut) -> None:
        """Initialize an empty stream's coordinates from *cut* — a
        replica bootstrapped from a snapshot inherits the snapshot's
        history, and its stream's cuts must describe it too."""
        if self.position:
            raise ValueError(
                f"cannot seed a stream at position {self.position}"
            )
        self.position = cut.position
        self._counts = {
            shard_id: count for shard_id, count in cut.counts if count
        }

    def amnesia(self) -> None:
        """The owner crashed: forget the stream's entire history so
        recovery can re-:meth:`seed` it at the rebuilt coordinates, and
        mark every live subscription *lost* — the trace its unconsumed
        events lived in died with the process, so the consumer must
        snapshot-resync against the recovered state (the same fallback
        an overflow forces)."""
        self.position = 0
        self._counts = {}
        for sub in self._subs:
            sub._lost = True

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        return tuple(self._subs)

    # -- producer side ------------------------------------------------------

    def note(self, record: TraceRecord) -> None:
        """One operation was applied at its origin coordinate
        ``(record.shard_id, record.lseq)``.

        Called on the commit path for *every* applied operation, after
        the owner appended *record* to its trace: the position/count
        bookkeeping is unconditional (cuts must describe the server's
        entire history), and a bounded subscription whose backlog now
        exceeds its capacity is lost here, at the op that overflowed it.
        """
        counts = self._counts
        shard_id = record.shard_id
        counts[shard_id] = counts.get(shard_id, 0) + 1
        position = self.position + 1
        self.position = position
        for sub in self._subs:
            capacity = sub.capacity
            if (
                capacity is not None
                and not sub._lost
                and position - sub.start - sub.consumed > capacity
            ):
                sub._overflow()

    # -- consumer side ------------------------------------------------------

    def subscribe(
        self,
        name: str = "consumer",
        *,
        from_cut: Cut | None = None,
        capacity: int | None = None,
    ) -> Subscription:
        """Attach a consumer.

        Args:
            name: diagnostic label (obs events and errors).
            from_cut: resume position.  ``None`` subscribes live (events
                from now on).  A cut within the newest
                ``owner.oplog_capacity`` positions starts the
                subscription there, so its first poll replays the gap
                from the owner's trace; an older cut (or one before the
                history the owner's trace holds, e.g. a seeded
                replica's) leaves the subscription *lost* — its first
                :meth:`Subscription.poll` returns ``None`` and the
                consumer snapshot-resyncs, exactly as a too-stale client
                reattach would.  A gap larger than *capacity* overflows
                at once.
            capacity: the most unconsumed events the consumer tolerates
                before it is lost (``None`` = unbounded, for trusted
                in-process consumers).

        Raises:
            StreamUnavailableError: the owner is crashed.
        """
        self.check_available(name)
        if capacity is not None and capacity < 0:
            raise ValueError(
                f"subscription {name!r} capacity must be >= 0: {capacity}"
            )
        position = self.position
        start = position if from_cut is None else from_cut.position
        gap = position - start
        if gap < 0:
            raise ValueError(
                f"subscription {name!r} starts at position "
                f"{start} but the stream is at {position}"
            )
        sub = Subscription(self, name, capacity, start)
        if gap:
            base = position - len(self.owner.trace)
            if gap > self.owner.oplog_capacity or start < base:
                # The gap reaches past the replay horizon (or past the
                # history the trace holds): the consumer falls back to
                # a snapshot.
                sub._lost = True
            elif capacity is not None and gap > capacity:
                sub._overflow()
        self._subs.append(sub)
        obs = self.obs
        if obs.enabled:
            obs.inc(f"{self.obs_ns}.cdc.subscriptions")
            obs.event(
                f"{self.obs_ns}.cdc.subscribe",
                subscription=name,
                position=position,
            )
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        if sub in self._subs:
            self._subs.remove(sub)


def _event(position: int, record: TraceRecord) -> ChangeEvent:
    """The change event for the trace record applied at *position*."""
    return ChangeEvent(
        position=position,
        shard_id=record.shard_id,
        lseq=record.lseq,
        timestamp=record.timestamp,
        worker_id=record.worker_id,
        message=record.message,
    )
