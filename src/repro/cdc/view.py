"""Snapshot-equivalent consumer views over a change stream.

:class:`CdcView` materializes a server's replica state from its CDC
subscription, attaching at any point mid-run without the producer ever
pausing:

1. *Chunked bootstrap* (DBLog-style virtual cuts): :meth:`CdcView.step`
   reads one :class:`~repro.cdc.events.SnapshotChunk` per call — a key
   window of one namespace, stamped with the stream cut (low/high
   watermarks) at read time.  Chunks may be read at different simulated
   instants while operations keep committing; the subscription's start
   position precedes every chunk read, so the events of those
   operations stay pending on it.
2. *Certified merge*: after the last chunk, every pending event is
   replayed through a per-key filter — the event's effect on key ``k``
   is applied iff the chunk window containing ``k`` does **not** cover
   the event's origin coordinate (``lseq >= high[shard_id]``), i.e. iff
   the chunk select did not already fold it in.
3. *Live tail*: after the merge the view is byte-equivalent to the
   producer at the merge cut, and :meth:`CdcView.refresh` folds further
   events in directly.

Why the merge converges
-----------------------

A chunk window's ``high`` cut is downward closed in the producer's
apply order (the producer applies each origin shard's commits in dense
lseq order), and the subscription holds *every* event emitted after
the subscribe point, which precedes every chunk read.  So for any key
``k`` with window cut ``C``: effects on ``k`` from events inside ``C``
are reflected by the chunk entries (the select read post-event state),
effects outside ``C`` are all pending and replayed exactly once.
Keys created after their window was read are absent from the chunk but
their creating event lies outside the window cut, so replay recreates
them; superseded-id tombstones are grow-only and idempotent, so they
are unioned without certification.  Per-row vote counts are *derived*
(paper Lemma 3: ``u(r) = UH[r̄]`` for complete rows — upvotes are
precondition-guarded to complete value-vectors — and
``d(r) = Σ_{w ⊆ r̄} DH[w]``), so the vote namespaces certify on
value-vector keys alone and :meth:`CdcView.state` reconstructs counts
exactly as :meth:`~repro.core.table.CandidateTable.apply_replace` does.

Overflow at any point falls back to the snapshot path
(:meth:`Subscription.resync <repro.cdc.subscription.Subscription.resync>`),
mirroring the client snapshot resync.
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
from repro.cdc.subscription import Subscription
from repro.core.messages import (
    DownvoteMessage,
    InsertMessage,
    ReplaceMessage,
    UndoDownvoteMessage,
    UndoUpvoteMessage,
    UpvoteMessage,
)
from repro.core.row import EMPTY_VALUE, RowValue


class CdcView:
    """A consumer-side materialization of one server's replica state.

    Args:
        subscription: the change-stream subscription to consume.  For a
            subscription opened at stream position 0 (or replayed from a
            covered cut) no bootstrap is needed; otherwise drive
            :meth:`step` until it returns ``False``, then the view is
            live.
        label: diagnostic name.
    """

    def __init__(self, subscription: Subscription, label: str = "view") -> None:
        self.sub = subscription
        self.label = label
        self._columns = subscription.stream.owner.schema.column_names
        self.rows: dict[str, RowValue] = {}
        self.upvotes: dict[RowValue, int] = {}
        self.downvotes: dict[RowValue, int] = {}
        self.superseded: set[str] = set()
        #: Per-namespace chunk windows: ``(boundary, high cut)`` in read
        #: order, ending with an unbounded ``(None, cut)`` window.
        self._windows: dict[str, list[tuple[Any, Cut]]] = {
            ns: [] for ns in NAMESPACES
        }
        self._certify = False
        self.events_applied = 0
        #: The stream cut the view last converged to.
        self.cut: Cut = Cut(0, ())
        # A subscription that covers the stream's entire history
        # (subscribed at birth, or resumed from a covered cut of 0) has
        # nothing to chunk-read: folding its events forward from the
        # empty state is already exact.
        if (
            not subscription.lost
            and subscription.sent_count == subscription.stream.position
        ):
            subscription.skip_bootstrap()

    @property
    def live(self) -> bool:
        """Is the bootstrap complete (view converged, events fold in
        directly)?"""
        return self.sub.bootstrap_done

    # -- bootstrap ----------------------------------------------------------

    def step(self, max_entries: int = 64) -> bool:
        """Read and ingest one snapshot chunk; returns ``True`` while
        more chunks remain.  On the final chunk the pending events are
        certified-merged and the view goes live.  A lost subscription
        (overflow during bootstrap) falls back to a snapshot."""
        if self.sub.lost:
            self._snapshot_fallback()
            return False
        chunk = self.sub.read_chunk(max_entries)
        if chunk is None:
            self._merge()
            return False
        self._ingest(chunk)
        if self.sub.bootstrap_done:
            self._merge()
            return False
        return True

    def bootstrap(self, max_entries: int = 64) -> "CdcView":
        """Run the whole chunked bootstrap in one call (all chunks at
        the current instant — tests and eager consumers; the follower
        bootstrap spreads :meth:`step` calls across simulated time)."""
        while self.step(max_entries):
            pass
        return self

    def _ingest(self, chunk: SnapshotChunk) -> None:
        ns = chunk.namespace
        if ns == "rows":
            for row_id, items in chunk.entries:
                self.rows[row_id] = RowValue.from_sorted_items(items)
            self.superseded.update(chunk.superseded)
        else:
            counts = self.upvotes if ns == "upvotes" else self.downvotes
            for items, count in chunk.entries:
                counts[RowValue.from_sorted_items(items)] = count
        self._windows[ns].append((chunk.boundary, chunk.high))

    def _merge(self) -> None:
        """Certified merge: replay every pending event through the
        per-key chunk-window filter, then go live."""
        events = self.sub.take()
        if events is None:
            self._snapshot_fallback()
            return
        self._certify = True
        try:
            for event in events:
                self._apply_event(event)
        finally:
            self._certify = False
        self.cut = self.sub.stream.cut()

    def _snapshot_fallback(self) -> None:
        """Overflow (or stale resume) path: discard partial state and
        reload wholesale from an atomic snapshot."""
        state, cut = self.sub.resync()
        self.load_snapshot(state, cut)

    def load_snapshot(self, state: Any, cut: Cut) -> None:
        """Replace the view's contents with a
        :class:`~repro.server.backend.BootstrapState` captured at *cut*."""
        self.rows = {
            row_id: RowValue(value) for row_id, value, _up, _down in state.rows
        }
        self.upvotes = {
            RowValue(value): count for value, count in state.upvote_history
        }
        self.downvotes = {
            RowValue(value): count for value, count in state.downvote_history
        }
        self.superseded = set(state.superseded)
        for windows in self._windows.values():
            windows.clear()
        self.cut = cut

    # -- live tail ----------------------------------------------------------

    def refresh(self, events: list[ChangeEvent] | None = None) -> int:
        """Fold all pending events in; returns how many were applied.
        Falls back to a snapshot when the subscription is lost.  After a
        refresh the view is byte-equivalent to the producer's replica
        at :attr:`cut` (the subscription reads the producer's trace).

        Args:
            events: the pending events, when the caller already polled
                them from this view's subscription (they are built once
                per poll); ``None`` polls here.
        """
        sub = self.sub
        if not sub.bootstrap_done:
            raise RuntimeError(
                f"view {self.label!r} is still bootstrapping; drive "
                "step() to completion first"
            )
        if events is None:
            events = sub.poll()
            if events is None:
                self._snapshot_fallback()
                return 0
        sub.ack(sub.consumed + len(events))
        for event in events:
            self._apply_event(event)
        self.cut = sub.stream.cut()
        return len(events)

    # -- event application --------------------------------------------------

    def _fresh(self, ns: str, key: Any, event: ChangeEvent) -> bool:
        """Certification: must *event*'s effect on *key* be applied, or
        did the chunk select that read *key*'s window already fold it
        in?  Outside a merge every event is fresh."""
        if not self._certify:
            return True
        if not self._windows[ns]:
            return True  # no chunk ever read this namespace: nothing folded
        for boundary, high in self._windows[ns]:
            if boundary is None or key <= boundary:
                return not high.covers(event.shard_id, event.lseq)
        raise RuntimeError(
            f"view {self.label!r}: no chunk window for {ns} key {key!r}"
        )

    def _apply_event(self, event: ChangeEvent) -> None:
        message = event.message
        self.events_applied += 1
        if isinstance(message, ReplaceMessage):
            # The deletion half is unconditional: superseded ids are
            # grow-only and a folded removal already left the chunk
            # without the row, so both effects are idempotent.
            self.rows.pop(message.old_id, None)
            self.superseded.add(message.old_id)
            new_id = message.new_id
            if (
                self._fresh("rows", new_id, event)
                and new_id not in self.superseded
                and new_id not in self.rows
            ):
                self.rows[new_id] = message.value
        elif isinstance(message, InsertMessage):
            row_id = message.row_id
            if (
                self._fresh("rows", row_id, event)
                and row_id not in self.superseded
                and row_id not in self.rows
            ):
                self.rows[row_id] = EMPTY_VALUE
        elif isinstance(message, UpvoteMessage):
            self._bump("upvotes", self.upvotes, message.value, 1, event)
        elif isinstance(message, DownvoteMessage):
            self._bump("downvotes", self.downvotes, message.value, 1, event)
        elif isinstance(message, UndoUpvoteMessage):
            self._bump("upvotes", self.upvotes, message.value, -1, event)
        elif isinstance(message, UndoDownvoteMessage):
            self._bump("downvotes", self.downvotes, message.value, -1, event)
        else:
            raise TypeError(
                f"unexpected change-stream message: {type(message).__name__}"
            )

    def _bump(
        self,
        ns: str,
        counts: dict[RowValue, int],
        value: RowValue,
        delta: int,
        event: ChangeEvent,
    ) -> None:
        if not self._fresh(ns, value_sort_key(value.items_tuple()), event):
            return
        count = counts.get(value, 0) + delta
        if count:
            counts[value] = count
        else:
            counts.pop(value, None)

    # -- materialization ----------------------------------------------------

    def state(self) -> Any:
        """The view as a :class:`~repro.server.backend.BootstrapState`.

        Per-row vote counts are reconstructed from the histories by the
        Lemma 3 rule — exactly how the candidate table reconstructs
        them on replace — so a converged view materializes the same
        state a :meth:`BootstrapState.capture` of the producer yields.
        """
        from repro.server.backend import BootstrapState

        columns = self._columns
        # Each DH entry is anchored at its first cell, so a row examines
        # only the entries anchored at one of its own cells — and each
        # of those once (the empty value is under every row).
        empty_down = 0
        anchored: dict[tuple[str, Any], list[tuple[RowValue, int]]] = {}
        for w, count in self.downvotes.items():
            items = w.items_tuple()
            if not items:
                empty_down += count
                continue
            entries = anchored.get(items[0])
            if entries is None:
                entries = anchored[items[0]] = []
            entries.append((w, count))
        rows: list[tuple[str, dict[str, Any], int, int]] = []
        for row_id in sorted(self.rows):
            value = self.rows[row_id]
            up = (
                self.upvotes.get(value, 0)
                if value.is_complete(columns)
                else 0
            )
            down = empty_down
            for cell in value.items_tuple():
                for w, count in anchored.get(cell, ()):
                    if w.issubset(value):
                        down += count
            rows.append((row_id, dict(value), up, down))
        return BootstrapState(
            rows=rows,
            upvote_history=[
                (dict(value), count)
                for value, count in _sorted_counts(self.upvotes)
                if count
            ],
            downvote_history=[
                (dict(value), count)
                for value, count in _sorted_counts(self.downvotes)
                if count
            ],
            superseded=sorted(self.superseded),
        )


def _sorted_counts(
    counts: dict[RowValue, int]
) -> list[tuple[RowValue, int]]:
    return sorted(
        counts.items(), key=lambda item: value_sort_key(item[0].items_tuple())
    )


def canonical_state(state: Any) -> dict[str, Any]:
    """A :class:`BootstrapState` as a canonical JSON-able document.

    ``BootstrapState.capture`` lists rows and history entries in table
    iteration order; canonicalizing (sorted rows, sorted histories,
    values as sorted item lists) makes two captures of equal states
    byte-identical under :func:`repro.obs.dump_json` — the oracle
    comparison the CDC property suite runs."""
    return {
        "rows": [
            [row_id, sorted(value.items()), up, down]
            for row_id, value, up, down in sorted(
                state.rows, key=lambda entry: entry[0]
            )
        ],
        "upvote_history": _canonical_history(state.upvote_history),
        "downvote_history": _canonical_history(state.downvote_history),
        "superseded": sorted(state.superseded),
    }


def _canonical_history(
    entries: list[tuple[dict[str, Any], int]]
) -> list[list[Any]]:
    keyed = sorted(
        (value_sort_key(tuple(sorted(value.items()))), value, count)
        for value, count in entries
        if count
    )
    return [[sorted(value.items()), count] for _key, value, count in keyed]
