"""Contribution analysis over the action trace (paper section 5.2.1).

Given the final table S and the trace M of worker messages (Central
Client messages excluded), we determine:

- for each cell c ∈ C — a final-table cell whose value was entered by a
  worker — exactly one *directly* contributing replace message (the one
  on the replace chain that became the final row) and at most one
  *indirectly* contributing replace message (the earliest one in M that
  entered the same value into the same column on a row whose value is a
  subset of the final row);
- the set U of contributing upvote messages (manual upvotes whose value
  equals a final row's value — the automatic completion upvote is not a
  separate contribution);
- the set D of contributing downvote messages (those consistent with
  the final table: no final row subsumes the downvoted value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.core.messages import (
    DownvoteMessage,
    ReplaceMessage,
    TraceRecord,
    UpvoteMessage,
)
from repro.core.row import Row
from repro.core.schema import Schema
from repro.pay.timing import WorkerLedger, freeze


@dataclass(frozen=True)
class CellContribution:
    """One final-table cell c ∈ C and its contributing messages.

    Attributes:
        final_row_id: identifier of the final row s.
        column: the cell's column A.
        value: the cell's value.
        direct: the replace message that filled A on the row that became s.
        indirect: the earliest replace entering (A, value) with a value
            subset of s — None when no qualifying message exists (e.g.
            the first entry of the value was on an incompatible row).
            May be the same record as *direct*.
    """

    final_row_id: str
    column: str
    value: Any
    direct: TraceRecord
    indirect: TraceRecord | None


@dataclass
class ContributionAnalysis:
    """The outcome of section 5.2.1 over one collection run."""

    cells: list[CellContribution] = field(default_factory=list)
    upvotes: list[TraceRecord] = field(default_factory=list)
    downvotes: list[TraceRecord] = field(default_factory=list)

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def contributing_seqs(self) -> set[int]:
        """Sequence numbers of every contributing message.

        Used to compute "corrected" compensation estimates (section 6,
        Figure 5's rightmost bars).
        """
        seqs: set[int] = set()
        for cell in self.cells:
            seqs.add(cell.direct.seq)
            if cell.indirect is not None:
                seqs.add(cell.indirect.seq)
        seqs.update(record.seq for record in self.upvotes)
        seqs.update(record.seq for record in self.downvotes)
        return seqs

    def workers(self) -> list[str]:
        """All workers appearing in any contribution, sorted."""
        ids = {cell.direct.worker_id for cell in self.cells}
        ids.update(
            cell.indirect.worker_id
            for cell in self.cells
            if cell.indirect is not None
        )
        ids.update(record.worker_id for record in self.upvotes)
        ids.update(record.worker_id for record in self.downvotes)
        return sorted(ids)


def analyze_contributions(
    schema: Schema,
    final_rows: Sequence[Row],
    trace: Iterable[TraceRecord],
) -> ContributionAnalysis:
    """Run the full section 5.2.1 analysis.

    Args:
        schema: the collected table's schema.
        final_rows: the final table S (rows of the master candidate
            table, with their identifiers).
        trace: worker messages M, in server order.  Central Client
            records must already be excluded — pass
            ``BackendServer.worker_trace()``.
    """
    records = list(trace)
    analysis = ContributionAnalysis()

    replace_by_new_id: dict[str, TraceRecord] = {}
    for record in records:
        if isinstance(record.message, ReplaceMessage):
            message = record.message
            # Globally-unique new ids: the model guarantees one replace
            # per new identifier.
            replace_by_new_id[message.new_id] = record

    # Earliest entry of (column, value) across M, for indirect credit.
    first_entry = WorkerLedger.of(records).first_entry

    final_values = [row.value for row in final_rows]

    for final_row in final_rows:
        direct_by_column = _walk_chain(final_row.row_id, replace_by_new_id)
        for column, direct in direct_by_column.items():
            value = final_row.value[column]
            indirect = first_entry.get((column, freeze(value)))
            if indirect is not None:
                assert isinstance(indirect.message, ReplaceMessage)
                if not indirect.message.value.issubset(final_row.value):
                    indirect = None
            analysis.cells.append(
                CellContribution(
                    final_row_id=final_row.row_id,
                    column=column,
                    value=value,
                    direct=direct,
                    indirect=indirect,
                )
            )

    final_value_set = set(final_values)
    for record in records:
        message = record.message
        if isinstance(message, UpvoteMessage):
            if not message.auto and message.value in final_value_set:
                analysis.upvotes.append(record)
        elif isinstance(message, DownvoteMessage):
            if not any(value.subsumes(message.value) for value in final_values):
                analysis.downvotes.append(record)

    return analysis


def _walk_chain(
    final_row_id: str, replace_by_new_id: dict[str, TraceRecord]
) -> dict[str, TraceRecord]:
    """Walk the replace chain backwards from a final row.

    Each worker replace on the chain directly contributed the cell of
    the column it filled.  The walk stops at an identifier that no
    worker replace created — the row inserted by the Central Client
    (whose own fills are template values, hence not in C).
    """
    contributions: dict[str, TraceRecord] = {}
    current = final_row_id
    while current in replace_by_new_id:
        record = replace_by_new_id[current]
        message = record.message
        assert isinstance(message, ReplaceMessage)
        # Exactly one replace fills a given column on the chain: fill
        # only targets empty cells.
        contributions[message.column] = record
        current = message.old_id
    return contributions
