"""The change-stream producer and the count-acknowledged subscription.

One protocol, three consumers
-----------------------------

Every consumer of a server's applied-operation stream runs the same
count-acknowledged FIFO protocol (PR 2): per-link FIFO delivery makes
the stream a consumer actually received a prefix of the stream the
producer sent, so the consumer's received-message *count* alone
identifies exactly which sent messages were lost.  The sender-side
bookkeeping for the :class:`Subscription` buffers of this module
(derived views and replica bootstrap) is :class:`StreamCursor`; the
per-peer exchange marks of :class:`~repro.server.shard.ShardServer`
are plain sent counts over its dense commit log.

A :class:`ChangeStream` hangs off every server and turns its commit
path into :class:`~repro.cdc.events.ChangeEvent`s.  Emission costs two
integer updates per applied operation until the first subscriber
arrives (positions and cuts must account for the server's entire
history); with subscribers attached, each event is built once and
offered to every subscription's bounded buffer.  The stream keeps no
history of its own: ``from_cut`` replay rebuilds events from the
owner's trace, the server's one in-memory log of applied operations.

Overflow → snapshot fallback
----------------------------

A subscription's buffer is a cursor window: when unacknowledged events
fall off the window, the subscription is *lost* — :meth:`Subscription.poll`
returns ``None`` and the consumer must call :meth:`Subscription.resync`,
which hands it a fresh ``(BootstrapState, Cut)`` snapshot and resets
the count epoch on both sides.  This is exactly the snapshot path of
the client resync protocol, applied to in-process consumers.

A crashed owner has lost its volatile state, so reading it would hand
the consumer a wiped replica: :meth:`Subscription.resync` and
:meth:`Subscription.read_chunk` raise :class:`StreamUnavailableError`
until the owner has recovered.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
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


class StreamCursor:
    """Sender-side position bookkeeping for one FIFO stream consumer.

    ``sent_count`` counts every item sent since the cursor's last *sync
    epoch*; ``refs`` retains the replay references (trace seqs, or the
    events themselves) of the most recent sends.  ``window`` bounds the
    retained refs: an integer keeps that many, ``None`` keeps all
    (trusted in-process consumers), and ``0`` keeps none (the count
    alone is kept).
    """

    __slots__ = ("sent_count", "refs", "window")

    def __init__(self, window: int | None = 0) -> None:
        if window is not None and window < 0:
            raise ValueError(f"cursor window must be >= 0: {window}")
        self.window = window
        self.sent_count = 0
        self.refs: deque[Any] = deque()

    def record_send(self, ref: Any = None) -> None:
        """One item went out; retain its replay ref (window permitting)."""
        self.sent_count += 1
        window = self.window
        if window == 0:
            return
        self.refs.append(ref)
        if window is not None:
            while len(self.refs) > window:
                self.refs.popleft()

    def record_bulk(self, count: int) -> None:
        """Advance the sent count by *count* without retaining refs (a
        replay-gap initialization marks a forgotten prefix)."""
        self.sent_count += count

    @property
    def dropped_prefix(self) -> int:
        """Sent items whose refs have been forgotten (acked-or-bust)."""
        return self.sent_count - len(self.refs)

    def unacked(self, acknowledged: int) -> list[Any] | None:
        """Replay refs past the acknowledged prefix, oldest first, or
        ``None`` when the suffix starts before the retained refs."""
        if acknowledged < self.dropped_prefix:
            return None
        return list(self.refs)[acknowledged - self.dropped_prefix:]

    def reset(self) -> None:
        """A snapshot resync starts a fresh count epoch on both sides."""
        self.sent_count = 0
        self.refs.clear()


class Subscription:
    """One consumer's bounded, count-acknowledged view of a change stream.

    Consumers pull with :meth:`poll` and acknowledge with :meth:`ack`
    (a cumulative count, like the client session protocol); a consumer
    attaching mid-run reads :meth:`read_chunk` until exhausted to build
    the snapshot prefix the stream no longer retains (see
    :class:`repro.cdc.view.CdcView` for the certified merge).
    """

    def __init__(
        self, stream: "ChangeStream", name: str, capacity: int | None
    ) -> None:
        self.stream = stream
        self.name = name
        self.cursor = StreamCursor(window=capacity)
        self.consumed = 0
        self.overflows = 0
        self.snapshot_fallbacks = 0
        self._lost = False
        self._ns_index = 0
        self._after: Any = None
        self.chunks_read = 0

    @property
    def capacity(self) -> int | None:
        return self.cursor.window

    @property
    def lost(self) -> bool:
        """Did unacknowledged events fall off the buffer (or did the
        subscription start past the stream's retention)?  A lost
        subscription must :meth:`resync` before polling again."""
        return self._lost

    # -- producer side ------------------------------------------------------

    def offer(self, event: ChangeEvent) -> None:
        if self._lost:
            return  # buffering is pointless until the consumer resyncs
        cursor = self.cursor
        cursor.record_send(event)
        if cursor.dropped_prefix > self.consumed:
            self._lost = True
            self.overflows += 1
            obs = self.stream.obs
            if obs.enabled:
                obs.inc(f"{self.stream.obs_ns}.cdc.overflows")
                obs.event(
                    f"{self.stream.obs_ns}.cdc.overflow",
                    subscription=self.name,
                    pending=cursor.sent_count - self.consumed,
                )

    # -- consumer side ------------------------------------------------------

    def poll(self) -> list[ChangeEvent] | None:
        """The buffered events past the acknowledged prefix, oldest
        first — or ``None`` when events were lost to overflow and the
        consumer must fall back to :meth:`resync`."""
        if self._lost:
            return None
        return self.cursor.unacked(self.consumed)

    def ack(self, count: int) -> None:
        """Acknowledge the first *count* events of this epoch
        (cumulative, like the client session's received count)."""
        if count < self.consumed or count > self.cursor.sent_count:
            raise ValueError(
                f"subscription {self.name!r} acked {count} events but "
                f"holds {self.consumed}..{self.cursor.sent_count}"
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
        producer's state, resetting the count epoch on both sides (the
        snapshot path of the client resync protocol).

        Raises:
            StreamUnavailableError: the owner is crashed.
        """
        self.stream.check_available(self.name)
        state, cut = self.stream.snapshot_cut()
        self.cursor.reset()
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
        """Detach from the stream (no further events are offered)."""
        self.stream.unsubscribe(self)

    # -- chunked snapshot reads ---------------------------------------------

    @property
    def bootstrap_done(self) -> bool:
        return self._ns_index >= len(NAMESPACES)

    def skip_bootstrap(self) -> None:
        """Mark the chunked bootstrap as unnecessary (the subscription's
        buffer already covers the stream's entire history)."""
        self._ns_index = len(NAMESPACES)

    def read_chunk(self, max_entries: int = 64) -> SnapshotChunk | None:
        """Read the next snapshot chunk from the producer's live table.

        Chunks walk :data:`~repro.cdc.events.NAMESPACES` in order, each
        namespace in ascending key order, ``max_entries`` keys per
        chunk.  Each chunk is stamped with the stream cut at read time
        (its low/high watermarks — equal here, the read being atomic
        within one simulated instant).  Returns ``None`` once every
        namespace is exhausted.  The producer is never paused: events
        keep flowing into the buffer between reads, and the consumer
        reconciles them against the chunk windows at merge time.

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
    position and the per-origin-shard count vector at all times, and —
    once any consumer has subscribed — builds one
    :class:`~repro.cdc.events.ChangeEvent` per operation and offers it
    to every live subscription.  ``from_cut`` replay reads the newest
    ``retention`` positions back out of the owner's ``trace``.
    """

    def __init__(self, owner: Any, retention: int = 512) -> None:
        if retention < 1:
            raise ValueError(f"stream retention must be >= 1: {retention}")
        self.owner = owner
        self.retention = retention
        self.position = 0
        self._counts: dict[int, int] = {}
        self._subs: list[Subscription] = []
        self.active = False

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
        mark every live subscription *lost* — its unacknowledged buffer
        died with the process, so the consumer must snapshot-resync
        against the recovered state (the same fallback an overflow
        forces)."""
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

        Called on the commit path for *every* applied operation: the
        position/count bookkeeping is unconditional (cuts must describe
        the server's entire history), event construction and fan-out
        only happen while a subscriber is attached.
        """
        counts = self._counts
        shard_id = record.shard_id
        counts[shard_id] = counts.get(shard_id, 0) + 1
        position = self.position
        self.position = position + 1
        if not self.active:
            return
        event = _event(position, record)
        for sub in self._subs:
            sub.offer(event)

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
                from now on).  A cut within the newest ``retention``
                positions replays the gap from the owner's trace into
                the buffer; an older cut (or one before the history the
                owner's trace holds, e.g. a seeded replica's) leaves the
                subscription *lost* — its first :meth:`Subscription.poll`
                returns ``None`` and the consumer snapshot-resyncs,
                exactly as a too-stale client reattach would.
            capacity: buffer bound (``None`` = unbounded, for trusted
                in-process consumers).
        """
        self.active = True
        sub = Subscription(self, name, capacity)
        if from_cut is not None:
            gap = self.position - from_cut.position
            if gap < 0:
                raise ValueError(
                    f"subscription {name!r} starts at position "
                    f"{from_cut.position} but the stream is at {self.position}"
                )
            trace = self.owner.trace
            # Every note appends one trace record, so position p lives
            # at trace index p - base (base > 0 on a replica seeded
            # from a snapshot cut).
            base = self.position - len(trace)
            start = from_cut.position - base
            if gap > self.retention or start < 0:
                # The gap reaches past retention (or past the history
                # the trace holds): mark it forgotten so the consumer
                # falls back to a snapshot.
                sub.cursor.record_bulk(gap)
                sub._lost = True
            else:
                for index, record in enumerate(
                    islice(trace, start, None), from_cut.position
                ):
                    sub.offer(_event(index, record))
        self._subs.append(sub)
        obs = self.obs
        if obs.enabled:
            obs.inc(f"{self.obs_ns}.cdc.subscriptions")
            obs.event(
                f"{self.obs_ns}.cdc.subscribe",
                subscription=name,
                position=self.position,
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
