"""Row values and rows.

The paper distinguishes a row's *identifier* r from its *value* r̄ — a
partial assignment of columns to values (section 2.3).  Value-vectors
are the unit of comparison everywhere: vote histories UH/DH are keyed by
them, downvotes apply to every row whose value is a superset of the
downvoted vector, and template subsumption (s ⊇ t) is defined on them.

:class:`RowValue` is therefore immutable and hashable; :class:`Row`
pairs an identifier and a value with its mutable vote counts.

Every replica keeps one value per committed op, so a RowValue holds
its pairs once: a sorted pairs tuple (equality, hashing, iteration)
and the column → value dict built from it.  Subsumption and the
filled-column tests run on that dict's ``items()``/``keys()`` views,
which are set-like at C level, instead of on frozensets kept beside it.
"""

from __future__ import annotations

from typing import Any, Callable, ItemsView, Iterable, Iterator, KeysView, Mapping

#: A single cell's value on the wire: plain scalars only.  Everything a
#: fill can put in a cell (and everything the exchange/trace codecs
#: carry per cell) is one of these, which is what makes messages and
#: exchange batches *provably* deeply immutable — the static aliasing
#: pass (crowdlint ESC001) proves send payloads alias-free from this
#: alias.
CellValue = str | int | float | bool | None


class RowValue(Mapping[str, Any]):
    """An immutable partial assignment of column names to values.

    The subsumption order of the paper is exposed as :meth:`subsumes`
    (⊇) and :meth:`issubset` (⊆).  An empty RowValue is the value of an
    empty row.  Equality, hashing and iteration use the sorted pairs;
    lookups and the subset tests use the dict built from them.

    Example:
        >>> partial = RowValue({"name": "Messi"})
        >>> fuller = partial.with_value("nationality", "Argentina")
        >>> fuller.subsumes(partial)
        True
        >>> partial.subsumes(fuller)
        False
    """

    __slots__ = ("_items", "_hash", "_map")

    def __init__(self, values: Mapping[str, Any] | None = None) -> None:
        pairs = dict(values or {})
        _check_columns(pairs)
        # Keys are distinct strings, so the pairs sort by column alone.
        self._map: dict[str, Any] = dict(sorted(pairs.items()))
        self._items: tuple[tuple[str, Any], ...] = tuple(self._map.items())
        self._hash = hash(self._items)

    @classmethod
    def from_sorted_items(cls, items: Iterable[tuple[str, Any]]) -> "RowValue":
        """A value from (column, value) pairs already in column order,
        such as a value's :meth:`items_tuple` off the wire, without the
        sort.  It builds its own pairs, so it never aliases *items*."""
        value = cls.__new__(cls)
        value._map = mapping = dict(items)
        _check_columns(mapping)
        value._items = tuple(mapping.items())
        value._hash = hash(value._items)
        return value

    # -- Mapping interface ---------------------------------------------------

    def __getitem__(self, column: str) -> Any:
        return self._map[column]

    def __iter__(self) -> Iterator[str]:
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowValue):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == RowValue(other)._items
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"RowValue({inner})"

    # -- model operations ----------------------------------------------------

    def items_tuple(self) -> tuple[tuple[str, Any], ...]:
        """The sorted (column, value) pairs backing this value."""
        return self._items

    @property
    def mapping(self) -> dict[str, Any]:
        """The backing column → value dict, for read-only hot-path lookups.

        Callers must not mutate it; use :meth:`with_value` /
        :meth:`without_column` to derive new values.  Exists because
        ``dict(value)`` on the generic Mapping interface re-iterates the
        pairs on every predicate evaluation, which dominates the PRI
        edge computation at scale.
        """
        return self._map

    def subsumes(self, other: "RowValue") -> bool:
        """True when self ⊇ other: every pair of *other* appears in self."""
        return other._map.items() <= self._map.items()

    def issubset(self, other: "RowValue") -> bool:
        """True when self ⊆ other."""
        return self._map.items() <= other._map.items()

    def with_value(self, column: str, value: Any) -> "RowValue":
        """A new value with *column* additionally filled in.

        Raises:
            ValueError: if *column* is already filled (the model's fill
                applies only to empty cells).
        """
        if column in self._map:
            raise ValueError(f"column {column!r} already filled")
        return RowValue({**self._map, column: value})

    def without_column(self, column: str) -> "RowValue":
        """A new value with *column* removed (used by the modify action)."""
        return RowValue.from_sorted_items(kv for kv in self._items if kv[0] != column)

    def merge(self, other: "RowValue") -> "RowValue":
        """The union of two compatible partial values.

        Raises:
            ValueError: if the two assign different values to a column.
        """
        merged = dict(self._items)
        for column, value in other._items:
            if column in merged and merged[column] != value:
                raise ValueError(
                    f"conflicting values for {column!r}: "
                    f"{merged[column]!r} vs {value!r}"
                )
            merged[column] = value
        return RowValue(merged)

    def compatible_with(self, other: "RowValue") -> bool:
        """True when no column is assigned differently by the two values."""
        mine = self._map
        return all(
            mine.get(column, value) == value for column, value in other._items
        )

    @property
    def is_empty(self) -> bool:
        """True for the value of an empty row."""
        return not self._items

    def filled_columns(self) -> KeysView[str]:
        """Names of the columns this value assigns (a set-like view)."""
        return self._map.keys()

    def is_complete(self, column_names: tuple[str, ...]) -> bool:
        """True when every column in *column_names* is assigned."""
        return all(map(self._map.__contains__, column_names))

    def key(self, key_columns: tuple[str, ...]) -> tuple | None:
        """The primary-key tuple, or None if any key column is empty."""
        mine = self._map
        if any(column not in mine for column in key_columns):
            return None
        return tuple(mine[column] for column in key_columns)

    def missing_columns(self, column_names: tuple[str, ...]) -> tuple[str, ...]:
        """Columns of *column_names* this value leaves empty, in order."""
        filled = self._map
        return tuple(name for name in column_names if name not in filled)


def _check_columns(mapping: Mapping[Any, Any]) -> None:
    for column in mapping:
        if not isinstance(column, str):
            raise TypeError(f"column names must be strings, got {column!r}")


EMPTY_VALUE = RowValue()


class Row:
    """A candidate-table row: identifier, value, and vote counts.

    Vote counts are mutable; identity and value are fixed — the model
    replaces a row (new identifier) whenever a cell is filled, which is
    the key ingredient enabling conflict-free concurrency (section
    2.4.1).

    A row installed in a :class:`~repro.core.table.CandidateTable`
    carries an observer callback so that *any* vote-count mutation —
    including direct assignment from outside the table — invalidates
    the table's cached score and derived probable/final classification
    for the row's key group.
    """

    __slots__ = ("row_id", "value", "_upvotes", "_downvotes", "_observer")

    def __init__(
        self,
        row_id: str,
        value: RowValue = EMPTY_VALUE,
        upvotes: int = 0,
        downvotes: int = 0,
    ) -> None:
        self.row_id = row_id
        self.value = value
        self._observer: Callable[["Row"], None] | None = None
        self._upvotes = upvotes
        self._downvotes = downvotes

    @property
    def upvotes(self) -> int:
        return self._upvotes

    @upvotes.setter
    def upvotes(self, count: int) -> None:
        self._upvotes = count
        if self._observer is not None:
            self._observer(self)

    @property
    def downvotes(self) -> int:
        return self._downvotes

    @downvotes.setter
    def downvotes(self, count: int) -> None:
        self._downvotes = count
        if self._observer is not None:
            self._observer(self)

    def __repr__(self) -> str:
        return (
            f"Row({self.row_id!r}, {self.value!r}, "
            f"u={self.upvotes}, d={self.downvotes})"
        )

    def snapshot(self) -> tuple[str, tuple[tuple[str, Any], ...], int, int]:
        """A hashable snapshot used for convergence comparison."""
        return (self.row_id, self.value.items_tuple(), self._upvotes, self._downvotes)

    def items(self) -> ItemsView[str, Any]:
        """The filled (column, value) pairs."""
        return self.value.items()
