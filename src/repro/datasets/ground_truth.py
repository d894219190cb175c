"""Ground truth: a complete true table behind a simulated crowd."""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Sequence

from repro.core.row import RowValue
from repro.core.schema import Schema


class GroundTruth:
    """A complete, keyed set of true rows for one schema.

    Simulated workers consult this to "know" facts, and voting
    judgement compares candidate rows against it.

    Args:
        schema: the table schema the rows conform to.
        rows: complete row values (every column filled, unique keys).
    """

    def __init__(self, schema: Schema, rows: Iterable[RowValue]) -> None:
        self.schema = schema
        self.rows: list[RowValue] = list(rows)
        # (key, row) for each row, parallel to ``rows``: a true row never
        # changes, so its key is computed here once and read thereafter.
        self._keyed: list[tuple[tuple, RowValue]] = []
        self._by_key: dict[tuple, RowValue] = {}
        # Postings index: (column, value) -> row indices.  Consistency
        # lookups are the hot path of every simulated worker decision.
        self._postings: dict[tuple[str, Any], list[int]] = {}
        for index, row in enumerate(self.rows):
            if not row.is_complete(schema.column_names):
                raise ValueError(f"ground-truth row is incomplete: {row!r}")
            key = row.key(schema.key_columns)
            assert key is not None
            if key in self._by_key:
                raise ValueError(f"duplicate ground-truth key: {key}")
            self._by_key[key] = row
            self._keyed.append((key, row))
            for column, value in row.items():
                self._postings.setdefault((column, value), []).append(index)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def by_key(self, key: tuple) -> RowValue | None:
        """The true row for *key*, or None."""
        return self._by_key.get(key)

    def keys(self) -> list[tuple]:
        """All primary keys, in row order."""
        return [key for key, _ in self._keyed]

    def lookup_consistent(self, partial: RowValue) -> list[RowValue]:
        """True rows whose values are consistent with *partial*.

        A simulated worker uses this to decide which entity a partially
        filled row refers to.
        """
        rows = self.rows
        return [rows[index] for index in self._consistent_indices(partial)]

    def lookup_consistent_keyed(
        self, partial: RowValue
    ) -> list[tuple[tuple, RowValue]]:
        """(key, true row) for every true row consistent with *partial*,
        in row order — :meth:`lookup_consistent` with the precomputed
        keys alongside, so callers never re-derive a true row's key."""
        keyed = self._keyed
        return [keyed[index] for index in self._consistent_indices(partial)]

    def _consistent_indices(self, partial: RowValue) -> Sequence[int]:
        """Indices of the true rows consistent with *partial*.  Uses the
        postings index: the candidate set is the smallest posting among
        the filled cells."""
        if partial.is_empty:
            return range(len(self.rows))
        smallest: list[int] | None = None
        for column, value in partial.items():
            posting = self._postings.get((column, value))
            if posting is None:
                return ()
            if smallest is None or len(posting) < len(smallest):
                smallest = posting
        assert smallest is not None
        rows = self.rows
        return [index for index in smallest if rows[index].subsumes(partial)]

    def is_consistent(self, partial: RowValue) -> bool:
        """Is *partial* a sub-row of some true row?"""
        return bool(self.lookup_consistent(partial))

    def true_value(self, partial: RowValue, column: str) -> Any | None:
        """The true value of *column* for the entity *partial* denotes.

        Returns None when the partial row is ambiguous (consistent with
        zero or several true rows).
        """
        consistent = self.lookup_consistent(partial)
        if len(consistent) != 1:
            return None
        return consistent[0][column]

    def filter(self, predicate: Callable[[RowValue], bool]) -> "GroundTruth":
        """A new GroundTruth restricted to rows satisfying *predicate*."""
        return GroundTruth(self.schema, [r for r in self.rows if predicate(r)])

    def sample_known_subset(
        self, rng: random.Random, fraction: float
    ) -> "GroundTruth":
        """A worker's personal knowledge: a random subset of the rows."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        count = round(fraction * len(self.rows))
        chosen = rng.sample(self.rows, count) if count else []
        return GroundTruth(self.schema, chosen)

    def accuracy_of(self, values: Sequence[RowValue]) -> float:
        """Fraction of *values* that exactly match a true row.

        The experiments use this to report final-table accuracy.
        """
        if not values:
            return 1.0
        correct = sum(
            1
            for value in values
            if self._by_key.get(value.key(self.schema.key_columns) or ())
            == value
        )
        return correct / len(values)
