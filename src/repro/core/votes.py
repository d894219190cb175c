"""Columnar vote tallies over an interned value-id space.

The paper's vote histories UH and DH (section 2.4) are logically
mappings from value-vectors to counts.  The obvious dict-of-RowValue
representation pays a full value hash per history touch and a dict
traversal per ``Σ_{w ⊆ v} DH[w]`` reconstruction; at hundreds of
thousands of messages those dominate the apply path.

:class:`VoteColumns` stores both histories as flat ``array('q')``
columns indexed by the table's :class:`~repro.core.intern.ValueInterner`
ids, so ``apply_upvote`` / ``apply_downvote`` / ``apply_undo_*`` become
integer indexing.  The downvote column also posts each downvoted value
once, under its anchor: the cell that fewest downvoted values carried
when it was first written.  Since ``w ⊆ q`` puts ``anchor(w)`` in ``q``,
the replace-message subset-sum reads only the values anchored at the
queried value's cells, each once.

The dict-of-dicts API the rest of the system (bootstrap capture/restore,
invariant oracles, tests) relies on survives as the mapping views
:class:`UpvoteHistoryView` / :class:`DownvoteHistoryView`, which iterate
in first-write order — exactly the insertion order of the dicts they
replace.  The columns are plain stdlib arrays so the core stays
dependency-free; a numpy-backed drop-in would only change the two
``array("q")`` constructors.
"""

from __future__ import annotations

from array import array
from collections.abc import MutableMapping
from typing import Iterator

from repro.core.intern import ValueInterner
from repro.core.row import RowValue


class VoteColumns:
    """UH/DH tallies as dense arrays indexed by interned value id."""

    __slots__ = (
        "interner",
        "_up",
        "_down",
        "_up_seen",
        "_down_seen",
        "_down_posted",
        "_down_cell_counts",
        "_down_postings",
        "_down_empty_vid",
    )

    def __init__(self, interner: ValueInterner) -> None:
        self.interner = interner
        self._up = array("q")
        self._down = array("q")
        # Ever-written ids per column, insertion-ordered (dict-as-ordered-
        # set): the mapping views iterate these to reproduce the old
        # dicts' insertion order, including entries decremented back to 0.
        self._up_seen: dict[int, None] = {}
        self._down_seen: dict[int, None] = {}
        # Ids ever posted: a view ``del`` leaves its id in the postings.
        self._down_posted: set[int] = set()
        # Cell id -> downvoted values carrying it; anchor cell id -> the
        # values posted there.  Drives the subset-sum.
        self._down_cell_counts: dict[int, int] = {}
        self._down_postings: dict[int, list[int]] = {}
        # DH[empty] subsumes into every value; tracked explicitly since
        # the empty value has no cells and so no postings.
        self._down_empty_vid: int | None = None

    # -- counts ------------------------------------------------------------

    def up_count(self, vid: int) -> int:
        """UH tally of value id *vid* (0 when never upvoted)."""
        return self._up[vid] if vid < len(self._up) else 0

    def down_count(self, vid: int) -> int:
        """DH tally of value id *vid* (0 when never downvoted)."""
        return self._down[vid] if vid < len(self._down) else 0

    def up_add(self, vid: int, delta: int = 1) -> int:
        """Add *delta* to UH[vid]; returns the new tally."""
        up = self._up
        if vid >= len(up):
            up.extend([0] * (vid + 1 - len(up)))
        up[vid] += delta
        self._up_seen.setdefault(vid, None)
        return up[vid]

    def down_add(self, vid: int, delta: int = 1) -> int:
        """Add *delta* to DH[vid]; returns the new tally."""
        down = self._down
        if vid >= len(down):
            down.extend([0] * (vid + 1 - len(down)))
        down[vid] += delta
        if vid not in self._down_seen:
            self._down_seen[vid] = None
            if vid not in self._down_posted:
                self._post_down(vid)
        return down[vid]

    def _post_down(self, vid: int) -> None:
        """Post *vid* under its rarest cell (ties: first in cell order)."""
        self._down_posted.add(vid)
        cells = self.interner.cell_ids(vid)
        if not cells:
            self._down_empty_vid = vid
            return
        counts = self._down_cell_counts
        anchor = min(cells, key=lambda cid: counts.get(cid, 0))
        for cid in cells:
            counts[cid] = counts.get(cid, 0) + 1
        self._down_postings.setdefault(anchor, []).append(vid)

    def up_set(self, vid: int, count: int) -> None:
        """Set UH[vid] outright (bootstrap restore)."""
        self.up_add(vid, count - self.up_count(vid))

    def down_set(self, vid: int, count: int) -> None:
        """Set DH[vid] outright (bootstrap restore)."""
        self.down_add(vid, count - self.down_count(vid))

    # -- the subset sum ----------------------------------------------------

    def subset_sum(self, vid: int) -> int:
        """Σ_{w ⊆ value(vid)} DH[w], over the values anchored at its cells."""
        down = self._down
        empty_vid = self._down_empty_vid
        total = 0 if empty_vid is None else down[empty_vid]
        cell_ids = self.interner.cell_ids
        query = cell_ids(vid)
        covers = set(query).issuperset
        postings = self._down_postings
        for cid in query:
            for entry_vid in postings.get(cid, ()):
                if covers(cell_ids(entry_vid)):
                    total += down[entry_vid]
        return total


class _HistoryView(MutableMapping):
    """Dict-compatible view of one vote column, keyed by RowValue.

    Matches the replaced plain dicts bit for bit where it matters:
    iteration in first-write order, entries retained at count 0 (an undo
    decrements, it does not delete), KeyError for never-written values.
    """

    __slots__ = ("_votes",)

    def __init__(self, votes: VoteColumns) -> None:
        self._votes = votes

    # Subclasses bind these to the up or down column.
    def _seen(self) -> dict[int, None]:
        raise NotImplementedError

    def _count(self, vid: int) -> int:
        raise NotImplementedError

    def _set(self, vid: int, count: int) -> None:
        raise NotImplementedError

    def __getitem__(self, value: RowValue) -> int:
        vid = self._votes.interner.id_of(value)
        if vid is None or vid not in self._seen():
            raise KeyError(value)
        return self._count(vid)

    def __setitem__(self, value: RowValue, count: int) -> None:
        self._set(self._votes.interner.intern(value), count)

    def __delitem__(self, value: RowValue) -> None:
        vid = self._votes.interner.id_of(value)
        if vid is None or vid not in self._seen():
            raise KeyError(value)
        self._set(vid, 0)
        del self._seen()[vid]

    def __iter__(self) -> Iterator[RowValue]:
        value_of = self._votes.interner.value_of
        return (value_of(vid) for vid in self._seen())

    def __len__(self) -> int:
        return len(self._seen())

    def nonzero_items(self) -> Iterator[tuple[RowValue, int]]:
        """``items()`` minus the zero tallies, read by id in first-write
        order (``items()`` re-hashes every value via ``__getitem__``)."""
        value_of, count = self._votes.interner.value_of, self._count
        return ((value_of(v), n) for v in self._seen() if (n := count(v)))

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, RowValue):
            return False
        vid = self._votes.interner.id_of(value)
        return vid is not None and vid in self._seen()

    def get(self, value: RowValue, default: int | None = None) -> int | None:
        vid = self._votes.interner.id_of(value)
        if vid is None or vid not in self._seen():
            return default
        return self._count(vid)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (_HistoryView, dict)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class UpvoteHistoryView(_HistoryView):
    """UH as a mapping: RowValue → upvote tally."""

    __slots__ = ()

    def _seen(self) -> dict[int, None]:
        return self._votes._up_seen

    def _count(self, vid: int) -> int:
        return self._votes.up_count(vid)

    def _set(self, vid: int, count: int) -> None:
        self._votes.up_set(vid, count)


class DownvoteHistoryView(_HistoryView):
    """DH as a mapping: RowValue → downvote tally, plus the subset sum."""

    __slots__ = ()

    def _seen(self) -> dict[int, None]:
        return self._votes._down_seen

    def _count(self, vid: int) -> int:
        return self._votes.down_count(vid)

    def _set(self, vid: int, count: int) -> None:
        self._votes.down_set(vid, count)

    def subset_sum(self, value: RowValue) -> int:
        """Σ_{w ⊆ value} DH[w] (API kept from the dict predecessor)."""
        return self._votes.subset_sum(self._votes.interner.intern(value))
