"""Value interning: dense integer ids for value-vectors and cells.

The hot paths of message application compare value-vectors constantly:
exact-match lookups for upvotes, subset tests for downvote subsumption,
cell-postings intersections for ``rows_subsuming``.  A
:class:`ValueInterner` maps each distinct :class:`RowValue` (and each
distinct (column, value) cell) to a dense integer id on first sight, so
those comparisons become integer indexing and set tests over cell-id
tuples instead of hashing whole value-vectors repeatedly.  An id's cells
are kept as a tuple of ints only: the collector stops tracking such a
tuple, where it would re-scan a frozenset per value for the whole run.

Ids are assigned in first-seen order, which is a deterministic function
of the operation stream alone — replays of the same seed intern
identically, so id-indexed state never introduces hash-seed-dependent
behaviour.  One interner is owned by each
:class:`~repro.core.table.CandidateTable` and shared by its secondary
indexes and its :class:`~repro.core.votes.VoteColumns`.
"""

from __future__ import annotations

from typing import Any

from repro.core.row import RowValue

Cell = tuple[str, Any]


class ValueInterner:
    """First-seen-order interner for value-vectors and their cells."""

    __slots__ = ("_vid_of", "_values", "_cid_of", "_cell_ids")

    def __init__(self) -> None:
        self._vid_of: dict[RowValue, int] = {}
        self._values: list[RowValue] = []
        self._cid_of: dict[Cell, int] = {}
        self._cell_ids: list[tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self._values)

    def intern(self, value: RowValue) -> int:
        """The dense id of *value*, assigning the next id on first sight.

        Interning a value also interns each of its (column, value) cells,
        so :meth:`cell_ids` is always available for an interned id.
        """
        vid = self._vid_of.get(value)
        if vid is not None:
            return vid
        vid = len(self._values)
        self._vid_of[value] = vid
        self._values.append(value)
        cid_of = self._cid_of
        cids = []
        for cell in value.items_tuple():
            cid = cid_of.get(cell)
            if cid is None:
                cid = len(cid_of)
                cid_of[cell] = cid
            cids.append(cid)
        self._cell_ids.append(tuple(cids))
        return vid

    def id_of(self, value: RowValue) -> int | None:
        """The id of *value* if already interned, else None (no insert)."""
        return self._vid_of.get(value)

    def value_of(self, vid: int) -> RowValue:
        """The value-vector behind id *vid*."""
        return self._values[vid]

    def cell_ids(self, vid: int) -> tuple[int, ...]:
        """Cell ids of the value behind *vid*, in column-sorted order."""
        return self._cell_ids[vid]
