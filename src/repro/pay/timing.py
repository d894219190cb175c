"""The worker ledger: the one home of section 5.2's per-worker trace rules.

Section 5.2.2: "we use the difference of timestamps in two consecutive
messages from the same worker as the time taken for generating the
second message" — the paper acknowledges this proxy's flaws and so do
we; it is what both the final weights and the live estimates consume.

A worker's first message has no predecessor and yields no sample.
Automatic completion upvotes are skipped as predecessors' *outputs*
(they are not worker actions) but they do not advance the
previous-timestamp pointer either, since they are sent in the same
instant as the fill that triggered them.

Section 5.2.1 credits the earliest replace entering a (column, value)
indirectly, and the dual-weighted scheme ranks key cells by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.messages import ReplaceMessage, TraceRecord, UpvoteMessage


def freeze(value: Any) -> Any:
    """Hashable view of a filled value (values are scalars in practice)."""
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


@dataclass
class WorkerLedger:
    """Per-worker timing and first-entry facts of a worker trace.

    Streaming records to :meth:`note` in server order yields the same
    ledger as :meth:`of` over the finished trace.  Fields:
    ``generation_time`` (seq -> seconds), ``first_action`` and
    ``last_action`` (worker -> timestamp), ``first_entry`` ((column,
    frozen value) -> earliest replace) and ``entry_rank`` (column ->
    frozen value -> 1-based rank among the column's distinct values).
    """

    generation_time: dict[int, float] = field(default_factory=dict)
    first_action: dict[str, float] = field(default_factory=dict)
    last_action: dict[str, float] = field(default_factory=dict)
    first_entry: dict[tuple[str, Any], TraceRecord] = field(default_factory=dict)
    entry_rank: dict[str, dict[Any, int]] = field(default_factory=dict)

    @classmethod
    def of(cls, trace: Iterable[TraceRecord]) -> WorkerLedger:
        """The ledger of a finished worker trace."""
        ledger = cls()
        for record in trace:
            ledger.note(record)
        return ledger

    def note(self, record: TraceRecord) -> float | None:
        """Fold one record; returns its generation time, where defined."""
        message = record.message
        if isinstance(message, ReplaceMessage):
            value = freeze(message.filled_value)
            key = (message.column, value)
            if key not in self.first_entry:
                self.first_entry[key] = record
                ranks = self.entry_rank.setdefault(message.column, {})
                ranks[value] = len(ranks) + 1
        elif isinstance(message, UpvoteMessage) and message.auto:
            return None  # piggybacks on its fill; zero-latency artefact
        worker_id = record.worker_id
        previous = self.last_action.get(worker_id)
        self.last_action[worker_id] = record.timestamp
        if previous is None:
            self.first_action[worker_id] = record.timestamp
            return None
        time = record.timestamp - previous
        self.generation_time[record.seq] = time
        return time


def median(values: list[float]) -> float | None:
    """Median of *values*, or None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2
