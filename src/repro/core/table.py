"""The candidate table, vote histories, and final-table derivation.

This module implements the message-processing specification of paper
section 2.4 verbatim.  A :class:`CandidateTable` is one copy of the
evolving table (the server's master or a client's local copy) together
with its upvote history UH and downvote history DH, which map
value-vectors to vote counts and are the mechanism behind the
convergence theorem:

- ``apply_insert(r)``   — new empty row, u = d = 0.
- ``apply_replace(r, q, v)`` — delete r if present; insert q with value
  v; u(q) = UH[v] if v is complete else 0; d(q) = Σ_{w ⊆ v} DH[w].
- ``apply_upvote(v)``   — u += 1 for every row whose value equals v;
  UH[v] += 1.
- ``apply_downvote(v)`` — d += 1 for every row whose value ⊇ v;
  DH[v] += 1.

The final table (section 2.2) contains each complete row with positive
score that has the highest score among rows sharing its primary key;
ties are broken deterministically by smallest row identifier (section
4.1 requires a deterministic tie-break for probable-row bookkeeping).

Complexity.  Message application and the derived views (probable rows
of section 4.1, final rows of section 2.2) are maintained
*incrementally*: the table keeps secondary indexes — rows by exact
value, rows by (column, value) cell, rows by primary-key group — plus a
per-row score cache, and tracks which key groups were touched since the
derived views were last refreshed.  Each message therefore costs
O(|affected rows|) rather than O(|table|), and a refresh reclassifies
only dirty key groups.  Consumers that need to react to changes (the
Central Client's PRI matching, the back-end server's completion check)
register cursors and drain per-message deltas via :meth:`drain_dirty` /
:meth:`drain_probable_delta` instead of rescanning the table.

Representation.  Value-vectors are interned to dense integer ids
(:mod:`repro.core.intern`) on first sight; the secondary indexes are
keyed by those ids, and the vote histories UH/DH live in columnar array
tallies (:mod:`repro.core.votes`) indexed by them.  ``upvote_history``
and ``downvote_history`` remain dict-compatible mapping views over the
columns.  Batch consumers apply whole message runs through
:meth:`apply_batch`, which reports — via the :attr:`probable_epoch` /
:attr:`final_epoch` counters — exactly when a derived view changed, so
callers can keep per-message reaction semantics while skipping the
(empty) reaction for the vast majority of messages.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.core.intern import ValueInterner
from repro.core.row import EMPTY_VALUE, Row, RowValue
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.core.votes import DownvoteHistoryView, UpvoteHistoryView, VoteColumns


class DirtyDelta:
    """What changed between two :meth:`CandidateTable.drain_dirty` calls.

    Attributes:
        keys: primary-key groups whose rows/votes changed.
        keyless: identifiers of keyless rows that changed.
        full: True when the consumer must resync from scratch (its
            first drain, or after a journal overflow).
    """

    __slots__ = ("keys", "keyless", "full")

    def __init__(self, full: bool = False) -> None:
        self.keys: set[tuple] = set()
        self.keyless: set[str] = set()
        self.full = full


# Journal safety valve: past this many undrained entries, stalled
# consumers are flipped to full-resync and the journal is truncated.
_JOURNAL_LIMIT = 65536

_UNSET = object()
_EMPTY_FROZENSET: frozenset = frozenset()
"""Cache-miss sentinel (None is a legitimate cached primary key)."""


class BatchApplyError(RuntimeError):
    """A message inside :meth:`CandidateTable.apply_batch` failed.

    Message validation happens before any mutation, so the failing
    message left no partial state — but the messages before it in the
    batch *are* applied.  ``applied`` tells the caller how many, so it
    can account for (trace, broadcast) that prefix before surfacing
    ``cause``.
    """

    def __init__(self, applied: int, cause: Exception) -> None:
        super().__init__(
            f"batch application failed after {applied} messages: {cause}"
        )
        self.applied = applied
        self.cause = cause


class CandidateTable:
    """One copy of the evolving candidate table plus UH/DH histories."""

    def __init__(self, schema: Schema, scoring: ScoringFunction) -> None:
        self.schema = schema
        self.scoring = scoring
        self._rows: dict[str, Row] = {}
        # Identifiers this copy has seen *superseded* — named as the
        # old_id of an applied replace.  A creation that arrives later
        # for such an id is skipped instead of resurrecting the row:
        # cross-shard exchange (repro.server.shard) can deliver one
        # lineage's messages out of causal order, and refusing the
        # resurrect is exactly what makes replace application commute
        # (the deletion half of a replace always wins, whichever side
        # applies first).  Single-server streams are causal, so the
        # skip never fires there and behavior is unchanged.
        self.superseded: set[str] = set()
        # Value interning and columnar vote histories (section 2.4): UH/DH
        # tallies live in arrays indexed by interned value id; the mapping
        # views preserve the former dict-of-RowValue API.
        self._interner = ValueInterner()
        self._votes = VoteColumns(self._interner)
        self.upvote_history = UpvoteHistoryView(self._votes)
        self.downvote_history = DownvoteHistoryView(self._votes)

        self._key_columns = schema.key_columns
        self._all_columns = schema.column_names
        # Shared by every indexed row: a bound method per row would be
        # one more object per live row for the collector to scan.
        self._observer = self._on_votes_changed

        # -- secondary indexes over the rows ------------------------------
        self._by_value: dict[int, set[str]] = {}    # value id -> row ids
        self._by_cell: dict[int, set[str]] = {}     # cell id -> row ids
        self._by_key: dict[tuple, set[str]] = {}
        self._keyless: set[str] = set()
        self._key_of: dict[str, tuple | None] = {}
        self._vid_of_row: dict[str, int] = {}       # row id -> value id
        self._score_cache: dict[str, float] = {}
        # Per-value-id caches of schema-derived facts (computed on first
        # sight of a vid; a value id never changes meaning).
        self._key_by_vid: dict[int, tuple | None] = {}
        self._complete_by_vid: dict[int, bool] = {}

        # -- derived views (probable / final), refreshed lazily ------------
        self._dirty_keys: set[tuple] = set()
        self._dirty_keyless: set[str] = set()
        # Monotone counters bumped by _refresh_derived whenever the
        # probable set's membership / the final table actually changed;
        # batch consumers compare them instead of diffing the views.
        self.probable_epoch = 0
        self.final_epoch = 0
        self._probable_by_key: dict[tuple, frozenset[str]] = {}
        self._final_by_key: dict[tuple, str] = {}
        self._probable_keyless: set[str] = set()
        self._probable_set: set[str] = set()
        self._probable_list: list[Row] | None = None
        self._final_list: list[Row] | None = None

        # -- change-journal consumers --------------------------------------
        self._tokens = itertools.count(1)
        self._dirty_consumers: dict[int, DirtyDelta] = {}
        self._probable_journal: list[tuple[str, Row | None]] = []
        self._probable_offsets: dict[int, int] = {}
        self._probable_resync: set[int] = set()

        # -- observability (no-op unless set_observability is called) ------
        from repro.obs import NULL_OBS

        self._obs = NULL_OBS
        self._obs_scope = "table"

    def set_observability(self, obs: object, scope: str = "table") -> None:
        """Attach an :class:`repro.obs.Observability` after construction.

        The table is created inside a :class:`~repro.core.replica.Replica`,
        so owners (the back-end server, the Central Client) thread their
        handle in post-hoc.  *scope* prefixes the metric names — e.g.
        ``server.table.dirty_drains`` vs ``cc.table.dirty_drains`` — so
        the two master-side tables stay distinguishable in one registry.
        """
        from repro.obs import resolve

        self._obs = resolve(obs)  # type: ignore[arg-type]
        self._obs_scope = scope

    # -- row access ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row_id: str) -> bool:
        return row_id in self._rows

    def row(self, row_id: str) -> Row:
        """Look up a row by identifier.

        Raises:
            KeyError: when no such row exists in this copy.
        """
        return self._rows[row_id]

    def get(self, row_id: str) -> Row | None:
        """Like :meth:`row` but returns None on a miss."""
        return self._rows.get(row_id)

    def rows(self) -> Iterator[Row]:
        """All rows, in insertion order of this copy."""
        return iter(self._rows.values())

    def row_ids(self) -> list[str]:
        """All row identifiers, in insertion order of this copy."""
        return list(self._rows)

    def rows_with_value(self, value: RowValue) -> list[Row]:
        """Rows whose value equals *value* exactly, in row-id order."""
        vid = self._interner.id_of(value)
        ids = self._by_value.get(vid) if vid is not None else None
        if not ids:
            return []
        return [self._rows[i] for i in sorted(ids)]

    def rows_subsuming(self, value: RowValue) -> list[Row]:
        """Rows whose value equals or subsumes *value*, in row-id order."""
        ids = self._subsuming_ids(value)
        return [self._rows[i] for i in sorted(ids)]

    def _subsuming_ids(self, value: RowValue) -> list[str]:
        return self._subsuming_ids_vid(self._interner.intern(value))

    def _subsuming_ids_vid(self, vid: int) -> list[str]:
        """Identifiers of rows subsuming the value behind *vid*.

        A subsuming row carries every cell, so it is in every cell's
        posting: the rows of the shortest posting that are in all of
        them, in that posting's order.
        """
        cells = self._interner.cell_ids(vid)
        if not cells:
            return list(self._rows)
        postings = []
        for cid in cells:
            ids = self._by_cell.get(cid)
            if not ids:
                return []
            postings.append(ids)
        smallest = min(postings, key=len)
        if len(cells) == 1:
            return list(smallest)
        common = smallest.intersection(*postings)
        return [i for i in smallest if i in common]

    def rows_in_group(self, key: tuple) -> list[Row]:
        """Rows whose primary key equals *key*, in row-id order."""
        ids = self._by_key.get(key)
        if not ids:
            return []
        return [self._rows[i] for i in sorted(ids)]

    def group_has_positive_score(self, key: tuple) -> bool:
        """Does any row with primary key *key* have a positive score?"""
        ids = self._by_key.get(key, ())
        return any(self.score(self._rows[i]) > 0 for i in ids)

    def downvotes_subsumed_by(self, value: RowValue) -> int:
        """Σ_{w ⊆ value} DH[w] — the replace-message downvote rule."""
        return self._votes.subset_sum(self._interner.intern(value))

    def score(self, row: Row) -> float:
        """The row's score under this table's scoring function (cached)."""
        cached = self._score_cache.get(row.row_id)
        if cached is None:
            cached = self.scoring.score(row.upvotes, row.downvotes)
            self._score_cache[row.row_id] = cached
        return cached

    def load_row(
        self, row_id: str, value: RowValue, upvotes: int, downvotes: int
    ) -> Row:
        """Install a row verbatim (bootstrap of a late-joining client).

        Unlike the message-application methods this does not consult the
        vote histories; the caller is copying a consistent master state.
        """
        if row_id in self._rows:
            raise ValueError(f"duplicate row identifier {row_id!r}")
        row = Row(row_id, value, upvotes, downvotes)
        self._rows[row_id] = row
        self._index_row(row)
        return row

    # -- index maintenance ----------------------------------------------------

    def _vid_is_complete(self, vid: int, value: RowValue) -> bool:
        """Cached ``value.is_complete`` for an interned value."""
        complete = self._complete_by_vid.get(vid)
        if complete is None:
            complete = value.is_complete(self._all_columns)
            self._complete_by_vid[vid] = complete
        return complete

    def _vid_key(self, vid: int, value: RowValue) -> tuple | None:
        """Cached ``value.key`` for an interned value."""
        key = self._key_by_vid.get(vid, _UNSET)
        if key is _UNSET:
            key = value.key(self._key_columns)
            self._key_by_vid[vid] = key
        return key

    def _index_row(self, row: Row, vid: int | None = None) -> None:
        row_id = row.row_id
        if vid is None:
            vid = self._interner.intern(row.value)
        self._vid_of_row[row_id] = vid
        # Postings are looked up before they are made: a setdefault
        # would build (and mostly drop) an empty set per call.
        by_value = self._by_value
        ids = by_value.get(vid)
        if ids is None:
            ids = by_value[vid] = set()
        ids.add(row_id)
        by_cell = self._by_cell
        for cid in self._interner.cell_ids(vid):
            ids = by_cell.get(cid)
            if ids is None:
                ids = by_cell[cid] = set()
            ids.add(row_id)
        key = self._vid_key(vid, row.value)
        self._key_of[row_id] = key
        if key is None:
            self._keyless.add(row_id)
            self._mark_keyless_dirty(row_id)
        else:
            ids = self._by_key.get(key)
            if ids is None:
                ids = self._by_key[key] = set()
            ids.add(row_id)
            self._mark_key_dirty(key)
        row._observer = self._observer

    def _deindex_row(self, row: Row) -> None:
        row_id = row.row_id
        row._observer = None
        self._score_cache.pop(row_id, None)
        vid = self._vid_of_row.pop(row_id)
        ids = self._by_value.get(vid)
        if ids is not None:
            ids.discard(row_id)
            if not ids:
                del self._by_value[vid]
        for cid in self._interner.cell_ids(vid):
            ids = self._by_cell.get(cid)
            if ids is not None:
                ids.discard(row_id)
                if not ids:
                    del self._by_cell[cid]
        key = self._key_of.pop(row_id)
        if key is None:
            self._keyless.discard(row_id)
            self._mark_keyless_dirty(row_id)
        else:
            ids = self._by_key.get(key)
            if ids is not None:
                ids.discard(row_id)
                if not ids:
                    del self._by_key[key]
            self._mark_key_dirty(key)

    def _on_votes_changed(self, row: Row) -> None:
        """Row observer: a vote count changed (table method or direct)."""
        row_id = row.row_id
        self._score_cache.pop(row_id, None)
        key = self._key_of.get(row_id)
        if key is None:
            self._mark_keyless_dirty(row_id)
        else:
            # _mark_key_dirty, inlined: this runs once per vote bump.
            self._dirty_keys.add(key)
            for delta in self._dirty_consumers.values():
                if not delta.full:
                    delta.keys.add(key)

    def _mark_key_dirty(self, key: tuple) -> None:
        self._dirty_keys.add(key)
        for delta in self._dirty_consumers.values():
            if not delta.full:
                delta.keys.add(key)

    def _mark_keyless_dirty(self, row_id: str) -> None:
        self._dirty_keyless.add(row_id)
        for delta in self._dirty_consumers.values():
            if not delta.full:
                delta.keyless.add(row_id)

    # -- message application (section 2.4) -----------------------------------

    def apply_insert(self, row_id: str) -> Row | None:
        """Process an insert message: add an empty row.

        Vote counts are reconstructed from the histories exactly like
        :meth:`apply_replace` does — the UI never downvotes an empty
        row, but a downvote of the empty value-vector can arrive over
        the wire, and it subsumes into every row inserted afterwards
        (Lemma 3's invariant d(r) = Σ_{w ⊆ r̄} DH[w] has no carve-out
        for empty rows).

        Returns None (no row created) when *row_id* is already known
        superseded — a replace naming it as old_id applied first, which
        only happens on cross-shard out-of-causal-order delivery.

        Raises:
            ValueError: if the identifier already exists in this copy
                (identifiers are globally unique by assumption).
        """
        if row_id in self._rows:
            raise ValueError(f"duplicate row identifier {row_id!r}")
        if row_id in self.superseded:
            return None
        downvotes = self._votes.subset_sum(self._interner.intern(EMPTY_VALUE))
        row = Row(row_id, EMPTY_VALUE, 0, downvotes)
        self._rows[row_id] = row
        self._index_row(row)
        return row

    def apply_replace(self, old_id: str, new_id: str, value: RowValue) -> Row | None:
        """Process a replace message per the specification.

        If *old_id* is present it is deleted (it may legitimately be
        absent when a concurrent replace already superseded it).  The
        new row's vote counts are reconstructed from UH and DH, which
        is what makes out-of-order vote/replace interleavings converge.

        The deletion half always runs; the creation half is skipped
        (returning None) when *new_id* is itself already superseded —
        i.e. a replace further down the lineage applied before this one
        did, which only cross-shard exchange can produce.  Skipping the
        resurrect makes any two replaces commute: whichever applies
        second, the surviving row set is the same.
        """
        if new_id in self._rows:
            raise ValueError(f"duplicate row identifier {new_id!r}")
        old = self._rows.pop(old_id, None)
        if old is not None:
            self._deindex_row(old)
        self.superseded.add(old_id)
        if new_id in self.superseded:
            return None
        vid = self._interner.intern(value)
        if self._vid_is_complete(vid, value):
            upvotes = self._votes.up_count(vid)
        else:
            upvotes = 0
        row = Row(new_id, value, upvotes, self._votes.subset_sum(vid))
        self._rows[new_id] = row
        self._index_row(row, vid)
        return row

    def apply_upvote(self, value: RowValue) -> int:
        """Process an upvote message; returns the number of rows bumped."""
        vid = self._interner.intern(value)
        ids = self._by_value.get(vid, ())
        rows = self._rows
        for row_id in ids:
            rows[row_id].upvotes += 1
        self._votes.up_add(vid)
        return len(ids)

    def apply_downvote(self, value: RowValue) -> int:
        """Process a downvote message; returns the number of rows bumped."""
        vid = self._interner.intern(value)
        ids = self._subsuming_ids_vid(vid)
        rows = self._rows
        for row_id in ids:
            rows[row_id].downvotes += 1
        self._votes.down_add(vid)
        return len(ids)

    def apply_undo_upvote(self, value: RowValue) -> int:
        """Process an undo-upvote (extension, paper section 8).

        Decrements the upvote count of rows with exactly *value* and the
        UH entry, preserving the Lemma-3 invariants; undo messages
        commute with votes the same way votes commute with each other,
        so convergence is unaffected.

        Raises:
            ValueError: when UH records no upvote to undo.
        """
        vid = self._interner.intern(value)
        if self._votes.up_count(vid) <= 0:
            raise ValueError(f"no upvote recorded for {value!r}")
        ids = self._by_value.get(vid, ())
        rows = self._rows
        for row_id in ids:
            rows[row_id].upvotes -= 1
        self._votes.up_add(vid, -1)
        return len(ids)

    def apply_undo_downvote(self, value: RowValue) -> int:
        """Process an undo-downvote (extension, paper section 8)."""
        vid = self._interner.intern(value)
        if self._votes.down_count(vid) <= 0:
            raise ValueError(f"no downvote recorded for {value!r}")
        ids = self._subsuming_ids_vid(vid)
        rows = self._rows
        for row_id in ids:
            rows[row_id].downvotes -= 1
        self._votes.down_add(vid, -1)
        return len(ids)

    # -- derived views: probable rows (4.1) and final table (2.2) -------------

    def _refresh_derived(self) -> None:
        """Reclassify dirty key groups and dirty keyless rows only."""
        if not self._dirty_keys and not self._dirty_keyless:
            return
        journal = self._probable_journal if self._probable_offsets else None
        probable_set = self._probable_set
        membership_changed = False
        final_changed = False
        # Sorted iteration everywhere below: journal entries feed the
        # Central Client's processing order, so their order must not
        # depend on the process hash seed.  (A single dirty key — the
        # common case under batching — needs no sort.)
        dirty_keys = self._dirty_keys
        for key in (
            tuple(dirty_keys)
            if len(dirty_keys) < 2
            else sorted(dirty_keys, key=repr)
        ):
            old = self._probable_by_key.get(key, _EMPTY_FROZENSET)
            ids = self._by_key.get(key)
            if not ids:
                new = _EMPTY_FROZENSET
                winner = None
                self._probable_by_key.pop(key, None)
            elif len(ids) == 1:
                # Fast path for the dominant case: a one-row key group
                # re-scored by a vote.  Skips the general scored-list
                # build and reuses *old* when membership is unchanged,
                # so no frozenset is allocated per vote.
                (only_id,) = ids
                row = self._rows[only_id]
                group_score = self.score(row)
                winner = None
                if group_score > 0:
                    vid = self._vid_of_row[only_id]
                    complete = self._complete_by_vid.get(vid)
                    if complete is None:
                        complete = self._vid_is_complete(vid, row.value)
                    if complete:
                        new = (old if len(old) == 1 and only_id in old
                               else frozenset((only_id,)))
                        winner = only_id
                    else:
                        new = _EMPTY_FROZENSET
                elif group_score == 0:
                    new = (old if len(old) == 1 and only_id in old
                           else frozenset((only_id,)))
                else:
                    new = _EMPTY_FROZENSET
                self._probable_by_key[key] = new
            else:
                new, winner = self._classify_group(ids)
                self._probable_by_key[key] = new
            if winner is None:
                if self._final_by_key.pop(key, None) is not None:
                    final_changed = True
            else:
                if self._final_by_key.get(key) != winner:
                    final_changed = True
                    self._final_by_key[key] = winner
            if new != old:
                membership_changed = True
                for row_id in sorted(old - new):
                    probable_set.discard(row_id)
                    if journal is not None:
                        journal.append((row_id, None))
                for row_id in sorted(new - old):
                    probable_set.add(row_id)
                    if journal is not None:
                        journal.append((row_id, self._rows[row_id]))
        for row_id in sorted(self._dirty_keyless) if self._dirty_keyless else ():
            row = self._rows.get(row_id)
            now = (
                row is not None
                and row_id in self._keyless
                and self.score(row) == 0
            )
            was = row_id in self._probable_keyless
            if now and not was:
                membership_changed = True
                self._probable_keyless.add(row_id)
                probable_set.add(row_id)
                if journal is not None:
                    journal.append((row_id, row))
            elif was and not now:
                membership_changed = True
                self._probable_keyless.discard(row_id)
                probable_set.discard(row_id)
                if journal is not None:
                    journal.append((row_id, None))
        self._dirty_keys.clear()
        self._dirty_keyless.clear()
        self._probable_list = None
        self._final_list = None
        if membership_changed:
            self.probable_epoch += 1
        if final_changed:
            self.final_epoch += 1
        if journal is not None:
            self._compact_journal()

    def _classify_group(
        self, ids: set[str]
    ) -> tuple[frozenset[str], str | None]:
        """Probable members and final-table winner of one key group."""
        rows = self._rows
        complete_by_vid = self._complete_by_vid
        vid_of_row = self._vid_of_row
        scored = []
        positive = False
        best: Row | None = None
        best_score = 0.0
        for row_id in sorted(ids):
            row = rows[row_id]
            score = self.score(row)
            complete = complete_by_vid.get(vid_of_row[row_id])
            if complete is None:
                complete = self._vid_is_complete(vid_of_row[row_id], row.value)
            scored.append((row, score, complete))
            if score > 0:
                positive = True
                if complete:
                    if (
                        best is None
                        or score > best_score
                        or (score == best_score and row.row_id < best.row_id)
                    ):
                        best = row
                        best_score = score
        probable: list[str] = []
        for row, score, complete in scored:
            if score > 0 and complete:
                if row is best:
                    probable.append(row.row_id)
            elif score == 0 and not positive:
                probable.append(row.row_id)
        return frozenset(probable), (best.row_id if best is not None else None)

    def _compact_journal(self) -> None:
        journal = self._probable_journal
        if not journal:
            return
        offsets = self._probable_offsets
        if offsets and min(offsets.values()) >= len(journal):
            journal.clear()
            for token in offsets:
                offsets[token] = 0
        elif len(journal) > _JOURNAL_LIMIT:
            # A consumer stalled; force it to resync rather than let the
            # journal grow without bound.
            self._probable_resync.update(offsets)
            journal.clear()
            for token in offsets:
                offsets[token] = 0

    # -- batched application ---------------------------------------------------

    def apply_batch(self, messages: list, stop_on_view_change: bool = True) -> int:
        """Apply a run of messages in order; returns how many were applied.

        Equivalent, message for message, to calling ``message.apply``
        in a loop — the batch only amortizes the dispatch and refreshes
        the derived views once per applied message run.  With
        *stop_on_view_change* (the default), application stops right
        after the first message whose effects change the probable set's
        membership or the final table (detected via
        :attr:`probable_epoch` / :attr:`final_epoch`), so a caller
        driving per-message consumers (PRI repair, completion checks)
        can run them at exactly the point the sequential code would
        have, then resume with the rest of the batch.

        Raises:
            BatchApplyError: a message failed validation; ``applied``
                counts the fully-applied prefix (the failing message
                mutated nothing).
        """
        probable_before = self.probable_epoch
        final_before = self.final_epoch
        applied = 0
        refresh = self._refresh_derived
        for message in messages:
            try:
                message.apply(self)
            except Exception as exc:
                refresh()
                raise BatchApplyError(applied, exc) from exc
            applied += 1
            refresh()
            if stop_on_view_change and (
                self.probable_epoch != probable_before
                or self.final_epoch != final_before
            ):
                break
        return applied

    def probable_rows(self) -> list[Row]:
        """All probable rows (section 4.1), in insertion order."""
        self._refresh_derived()
        if self._probable_list is None:
            member = self._probable_set
            self._probable_list = [
                row for row in self._rows.values() if row.row_id in member
            ]
        return list(self._probable_list)

    def is_row_probable(self, row_id: str) -> bool:
        """Is *row_id* currently probable?  O(dirty groups), not O(n)."""
        if row_id not in self._rows:
            return False
        self._refresh_derived()
        return row_id in self._probable_set

    def final_in_group(self, key: tuple) -> Row | None:
        """The final-table row for primary key *key*, or None."""
        self._refresh_derived()
        row_id = self._final_by_key.get(key)
        return self._rows[row_id] if row_id is not None else None

    def final_groups(self) -> list[tuple[tuple, Row]]:
        """(key, final row) for every key group with a final row."""
        self._refresh_derived()
        return [
            (key, self._rows[row_id])
            for key, row_id in self._final_by_key.items()
        ]

    # -- change-journal consumers ---------------------------------------------

    def register_dirty_consumer(self) -> int:
        """Register a cursor over touched key groups; returns a token.

        The first :meth:`drain_dirty` returns a delta with ``full``
        set, telling the consumer to build its state from scratch.
        """
        token = next(self._tokens)
        self._dirty_consumers[token] = DirtyDelta(full=True)
        return token

    def drain_dirty(self, token: int) -> DirtyDelta:
        """The key groups / keyless rows touched since the last drain.

        Derived views are refreshed first, so the consumer can read
        :meth:`final_in_group` / :meth:`is_row_probable` for exactly the
        returned keys.
        """
        self._refresh_derived()
        delta = self._dirty_consumers[token]
        self._dirty_consumers[token] = DirtyDelta()
        if self._obs.enabled:
            scope = self._obs_scope
            self._obs.inc(f"{scope}.table.dirty_drains")
            if delta.full:
                self._obs.inc(f"{scope}.table.dirty_full_resyncs")
            else:
                self._obs.observe(
                    f"{scope}.table.dirty_keys_per_drain",
                    len(delta.keys) + len(delta.keyless),
                )
        return delta

    def register_probable_consumer(self) -> int:
        """Register a cursor over probable-set membership changes."""
        token = next(self._tokens)
        self._probable_offsets[token] = len(self._probable_journal)
        self._probable_resync.add(token)
        return token

    def drain_probable_delta(
        self, token: int
    ) -> tuple[list[Row], list[str], bool]:
        """(added rows, removed row ids, full) since the last drain.

        Membership toggles that cancelled out between drains are
        coalesced away.  ``full`` is True when the consumer must resync
        from :meth:`probable_rows` instead (first drain, or after a
        journal overflow).
        """
        self._refresh_derived()
        if self._obs.enabled:
            self._obs.inc(f"{self._obs_scope}.table.probable_drains")
        journal = self._probable_journal
        if token in self._probable_resync:
            self._probable_resync.discard(token)
            self._probable_offsets[token] = len(journal)
            if self._obs.enabled:
                self._obs.inc(
                    f"{self._obs_scope}.table.probable_full_resyncs"
                )
            return [], [], True
        offset = self._probable_offsets[token]
        events = journal[offset:]
        self._probable_offsets[token] = len(journal)
        self._compact_journal()
        if not events:
            return [], [], False
        first_was_add: dict[str, bool] = {}
        last: dict[str, Row | None] = {}
        for row_id, row in events:
            if row_id not in first_was_add:
                first_was_add[row_id] = row is not None
            last[row_id] = row
        added = [
            row
            for row_id, row in last.items()
            if row is not None and first_was_add[row_id]
        ]
        removed = [
            row_id
            for row_id, row in last.items()
            if row is None and not first_was_add[row_id]
        ]
        if self._obs.enabled:
            self._obs.observe(
                f"{self._obs_scope}.table.probable_changes_per_drain",
                len(added) + len(removed),
            )
        return added, removed, False

    # -- final table (section 2.2) -------------------------------------------

    def final_rows(self) -> list[Row]:
        """Rows of the final table S derived from this candidate table.

        Each complete row with positive score whose score is the highest
        among rows with its primary key; ties broken by smallest row id.
        """
        self._refresh_derived()
        if self._final_list is None:
            self._final_list = sorted(
                (self._rows[row_id] for row_id in self._final_by_key.values()),
                key=lambda r: r.row_id,
            )
        return list(self._final_list)

    def final_table(self) -> list[RowValue]:
        """Final-table values (deduplicated, key-respecting)."""
        return [row.value for row in self.final_rows()]

    # -- convergence/consistency helpers --------------------------------------

    def snapshot(self) -> frozenset:
        """A hashable snapshot of rows and vote counts.

        Two copies of the table are "identical" in the convergence
        theorem's sense exactly when their snapshots are equal.
        """
        return frozenset(row.snapshot() for row in self._rows.values())

    def history_snapshot(self) -> tuple[frozenset, frozenset]:
        """Hashable snapshot of (UH, DH)."""
        return (
            frozenset((v, n) for v, n in self.upvote_history.items() if n),
            frozenset((v, n) for v, n in self.downvote_history.items() if n),
        )

    def check_vote_invariants(self) -> None:
        """Assert Lemma 3: u(r) = UH[r̄] for complete rows, d(r) = Σ DH[w ⊆ r̄].

        Deliberately brute-force (no indexes): this is the oracle the
        indexed fast paths are tested against.

        Raises:
            AssertionError: when a row's counts deviate from the histories.
        """
        for row in self._rows.values():
            if row.value.is_complete(self.schema.column_names):
                expected_up = self.upvote_history.get(row.value, 0)
                if row.upvotes != expected_up:
                    raise AssertionError(
                        f"row {row.row_id}: upvotes {row.upvotes} != "
                        f"UH[value] {expected_up}"
                    )
            expected_down = sum(
                count
                for value, count in self.downvote_history.items()
                if value.issubset(row.value)
            )
            if row.downvotes != expected_down:
                raise AssertionError(
                    f"row {row.row_id}: downvotes {row.downvotes} != "
                    f"sum of DH subsets {expected_down}"
                )

    # -- presentation ---------------------------------------------------------

    def render(self, max_rows: int | None = None) -> str:
        """An ASCII rendering of the candidate table (for examples/demos)."""
        headers = list(self.schema.column_names) + ["u", "d", "score"]
        rows_out: list[list[str]] = []
        for row in self._rows.values():
            cells = [str(dict(row.value).get(c, "")) for c in self.schema.column_names]
            cells += [str(row.upvotes), str(row.downvotes), str(self.score(row))]
            rows_out.append(cells)
            if max_rows is not None and len(rows_out) >= max_rows:
                break
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows_out)) if rows_out
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for cells in rows_out:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)

    def to_records(self) -> list[dict[str, Any]]:
        """JSON-ready dump of every row (used by the front-end server)."""
        return [
            {
                "row_id": row.row_id,
                "value": dict(row.value),
                "upvotes": row.upvotes,
                "downvotes": row.downvotes,
                "score": self.score(row),
            }
            for row in self._rows.values()
        ]
