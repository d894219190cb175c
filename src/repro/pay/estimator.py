"""Live compensation estimates (paper section 5.3).

During collection CrowdFill shows workers an estimated payout for each
action, computed under two simplifying assumptions: (1) the action will
eventually contribute to the final table, and (2) a fill earns both its
direct and indirect shares.  The estimator tracks, per the paper:

- |C| estimated as the number of empty cells in the template (fixed);
- |U| starting at (u_min - 1) × |T| — u_min being the smallest upvote
  count with f(u_min, 0) > 0 — and growing as probable rows accumulate
  extra upvotes;
- |D| as the count of downvotes so far consistent with all currently
  probable rows (streamed: per distinct downvoted value, the number of
  probable rows subsuming it is kept current from the table's
  probable-set delta, so a record costs what changed, not a rescan);
- column and vote weights starting uniform and converging to the
  median generation times of messages contributing to the current
  probable rows (column-weighted scheme);
- z_i refitted whenever a key column is filled, with y_i adjusted
  upward for the not-yet-observed (slower) completions (dual-weighted
  scheme).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.constraints.probable import probable_rows
from repro.constraints.template import Template
from repro.core.messages import (
    DownvoteMessage,
    ReplaceMessage,
    TraceRecord,
    UpvoteMessage,
)
from repro.core.row import RowValue
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.core.table import CandidateTable
from repro.pay.allocation import (
    KEY_SPLIT,
    NONKEY_SPLIT,
    AllocationScheme,
    fit_z,
)
from repro.pay.timing import WorkerLedger, freeze, median


@dataclass(frozen=True)
class EstimateRecord:
    """The estimate shown for one worker action."""

    seq: int
    worker_id: str
    timestamp: float
    kind: str  # "fill:<column>" | "upvote" | "downvote" | other
    amount: float


class CompensationEstimator:
    """Streams per-action estimates as the trace unfolds.

    Call :meth:`on_record` with every worker trace record (in server
    order) together with the master candidate table; read back raw and
    corrected per-worker estimate totals at the end.

    Args:
        schema / scoring: the collection's configuration.
        template: the constraint template (cardinality absorbed).
        budget: the user's budget B.
        scheme: which allocation scheme the estimates should anticipate.
        default_weight: initial weight before timing data accumulates.
        obs: optional :class:`repro.obs.Observability`; every streamed
            estimate is counted and its amount recorded in a histogram
            (``pay.estimates`` / ``pay.estimate_amount``).
    """

    def __init__(
        self,
        schema: Schema,
        template: Template,
        scoring: ScoringFunction,
        budget: float,
        scheme: AllocationScheme = AllocationScheme.DUAL_WEIGHTED,
        default_weight: float = 8.0,
        *,
        obs: object | None = None,
    ) -> None:
        from repro.obs import resolve

        self.obs = resolve(obs)  # type: ignore[arg-type]
        self.schema = schema
        self.scoring = scoring
        self.budget = budget
        self.scheme = scheme
        self.default_weight = default_weight
        self.records: list[EstimateRecord] = []

        self.template_size = len(template)
        # |C_j| estimate: template cells left empty in column j.
        self.expected_cells: dict[str, int] = {}
        for column in schema.column_names:
            pinned = sum(
                1
                for row in template
                if (pred := row.predicate_for(column)) is not None
                and pred.is_equality
            )
            self.expected_cells[column] = self.template_size - pinned

        self.u_min = self._find_u_min()
        # Per-worker timing and first-entry facts (section 5.2).
        self.ledger = WorkerLedger()
        self._fill_samples: dict[str, list[float]] = {
            c: [] for c in schema.column_names
        }
        self._upvote_samples: list[float] = []
        self._downvote_samples: list[float] = []
        # |D| bookkeeping: how often each distinct value was downvoted,
        # how many probable rows of the tracked table subsume it, and the
        # number of downvotes no probable row subsumes (|D| itself).
        self._downvote_counts: dict[RowValue, int] = {}
        self._cover: dict[RowValue, int] = {}
        self._uncovered_downvotes = 0
        # The table on_record streams from, this estimator's own cursor
        # over its probable-set changes, and the probable values it saw.
        self._table: CandidateTable | None = None
        self._probable_token = 0
        self._probable_values: dict[str, RowValue] = {}
        # Running per-worker estimate totals, added in record order.
        self._totals: dict[str, float] = {}
        # Generation times of each key column's first entries (z fits).
        self._key_completion_times: dict[str, list[float]] = {
            c: [] for c in schema.key_columns
        }

    # -- streaming -----------------------------------------------------------

    def on_record(self, record: TraceRecord, table: CandidateTable) -> float:
        """Ingest one worker message; returns the estimate shown for it."""
        generation_time = self.ledger.note(record)
        self._sync_cover(table)
        probable = probable_rows(table)
        self._learn(record, generation_time, probable)
        amount, kind = self._estimate_for(record, probable)
        worker_id = record.worker_id
        self._totals[worker_id] = self._totals.get(worker_id, 0.0) + amount
        self.records.append(
            EstimateRecord(
                seq=record.seq,
                worker_id=record.worker_id,
                timestamp=record.timestamp,
                kind=kind,
                amount=amount,
            )
        )
        if self.obs.enabled:
            self.obs.inc("pay.estimates")
            self.obs.observe("pay.estimate_amount", amount)
        return amount

    def estimated_totals(self) -> dict[str, float]:
        """Per-worker raw estimate totals (for snapshot sampling)."""
        return dict(self._totals)

    # -- reading back -----------------------------------------------------------

    def raw_total(self, worker_id: str) -> float:
        """Sum of estimates shown to *worker_id* (Figure 5, middle bars)."""
        return self._totals.get(worker_id, 0)

    def corrected_total(self, worker_id: str, contributing_seqs: set[int]) -> float:
        """Estimates only for actions that contributed (right bars)."""
        return sum(
            r.amount
            for r in self.records
            if r.worker_id == worker_id and r.seq in contributing_seqs
        )

    def timeline_for(self, worker_id: str) -> list[tuple[float, float]]:
        """(timestamp, cumulative estimate) — the live earning display."""
        points: list[tuple[float, float]] = []
        running = 0.0
        for record in self.records:
            if record.worker_id != worker_id:
                continue
            running += record.amount
            points.append((record.timestamp, running))
        return points

    def current_cell_estimates(self, table: CandidateTable) -> dict[str, float]:
        """The per-column fill estimates the UI shows in column headers.

        Figure 1's data-entry interface displays an estimated payout per
        column ("displays estimated compensation for individual actions
        during table-filling ... seen in the column headers").  This is
        that number: the current full-cell estimate for a first entry
        into each column.
        """
        probable = probable_rows(table)
        by_column, _, _, unit = self._weights_and_unit(
            probable, self._downvotes_for(table, probable)
        )
        if unit is None:
            return {c: 0.0 for c in self.schema.column_names}
        return {c: by_column[c] * unit for c in self.schema.column_names}

    def current_vote_estimates(self, table: CandidateTable) -> tuple[float, float]:
        """(upvote, downvote) estimates shown next to the vote icons."""
        probable = probable_rows(table)
        _, upvote_w, downvote_w, unit = self._weights_and_unit(
            probable, self._downvotes_for(table, probable)
        )
        if unit is None:
            return 0.0, 0.0
        return upvote_w * unit, downvote_w * unit

    # -- internals ------------------------------------------------------------------

    def _find_u_min(self) -> int:
        for u in range(1, 64):
            if self.scoring.score(u, 0) > 0:
                return u
        return 1

    def _learn(
        self,
        record: TraceRecord,
        generation_time: float | None,
        probable: list,
    ) -> None:
        message = record.message
        if isinstance(message, ReplaceMessage):
            column = message.column
            value = message.filled_value
            if generation_time is not None and self._appears_in_probable(
                column, value, probable
            ):
                self._fill_samples[column].append(generation_time)
            if (
                column in self._key_completion_times
                and generation_time is not None
                and self.ledger.first_entry[(column, freeze(value))] is record
            ):
                self._key_completion_times[column].append(generation_time)
        elif isinstance(message, UpvoteMessage):
            if message.auto:
                return
            if generation_time is not None and any(
                row.value == message.value for row in probable
            ):
                self._upvote_samples.append(generation_time)
        elif isinstance(message, DownvoteMessage):
            value = message.value
            seen = self._downvote_counts.get(value, 0)
            self._downvote_counts[value] = seen + 1
            if not seen:
                self._cover[value] = sum(
                    1 for row in probable if row.value.subsumes(value)
                )
            if not self._cover[value]:
                self._uncovered_downvotes += 1
                if generation_time is not None:
                    self._downvote_samples.append(generation_time)

    def _appears_in_probable(self, column: str, value: Any, probable: list) -> bool:
        return any(
            column in row.value.filled_columns() and row.value[column] == value
            for row in probable
        )

    def _current_weights(self) -> tuple[dict[str, float], float, float]:
        if self.scheme is AllocationScheme.UNIFORM:
            return (
                {c: 1.0 for c in self.schema.column_names},
                1.0,
                1.0,
            )
        by_column: dict[str, float] = {}
        for column in self.schema.column_names:
            by_column[column] = (
                median(self._fill_samples[column]) or self.default_weight
            )
        upvote = median(self._upvote_samples) or self.default_weight
        downvote = median(self._downvote_samples) or self.default_weight
        if self.scheme is AllocationScheme.DUAL_WEIGHTED:
            for column in self.schema.key_columns:
                by_column[column] = self._dual_adjusted_weight(
                    column, by_column[column]
                )
        return by_column, upvote, downvote

    def _dual_adjusted_weight(self, column: str, base: float) -> float:
        """Raise y_i for the still-unobserved, slower completions.

        With m of an expected N key values observed and a fitted slope,
        the mean over all N completions exceeds the observed mean by
        beta * (N - m) / 2; z encodes beta relative to the observed
        mean, so the adjustment is multiplicative.
        """
        times = self._key_completion_times[column]
        m = len(times)
        if m < 2:
            return base
        z = fit_z(times)
        if z == 0:
            return base
        n_expected = max(self.expected_cells.get(column, m), m)
        observed_mean = sum(times) / m
        beta = 2 * z * observed_mean / (m - 1)
        projected_mean = observed_mean + beta * (n_expected - m) / 2
        if observed_mean <= 0:
            return base
        return base * (projected_mean / observed_mean)

    def _estimated_z(self, column: str) -> float:
        times = self._key_completion_times.get(column, [])
        if self.scheme is not AllocationScheme.DUAL_WEIGHTED:
            return 0.0
        return fit_z(times)

    def _weights_and_unit(
        self, probable: list, downvotes: int
    ) -> tuple[dict[str, float], float, float, float | None]:
        """Current weights and the budget per unit of weight (None when
        the expected total weight is not positive), given the probable
        rows and the |D| estimate for them."""
        by_column, upvote_w, downvote_w = self._current_weights()
        total_weight = (
            sum(
                by_column[c] * self.expected_cells[c]
                for c in self.schema.column_names
            )
            + upvote_w * self._estimate_u(probable)
            + downvote_w * downvotes
        )
        if total_weight <= 0:
            return by_column, upvote_w, downvote_w, None
        return by_column, upvote_w, downvote_w, self.budget / total_weight

    def _estimate_for(
        self, record: TraceRecord, probable: list
    ) -> tuple[float, str]:
        message = record.message
        by_column, upvote_w, downvote_w, unit = self._weights_and_unit(
            probable, self._uncovered_downvotes
        )
        if unit is None:
            return 0.0, self._kind(message)

        if isinstance(message, ReplaceMessage):
            column = message.column
            weight = by_column[column]
            if (
                self.scheme is AllocationScheme.DUAL_WEIGHTED
                and column in self.schema.key_columns
            ):
                weight = self._dual_position_weight(column, weight, message)
            amount = weight * unit
            key = (column, freeze(message.filled_value))
            if self.ledger.first_entry[key] is not record:
                # Someone already entered this value in this column: the
                # indirect share is spoken for, so at most h_c * b_c.
                split = (
                    KEY_SPLIT
                    if column in self.schema.key_columns
                    else NONKEY_SPLIT
                )
                amount *= split
            return amount, f"fill:{column}"
        if isinstance(message, UpvoteMessage):
            if message.auto:
                return 0.0, "auto-upvote"
            return upvote_w * unit, "upvote"
        if isinstance(message, DownvoteMessage):
            return downvote_w * unit, "downvote"
        return 0.0, self._kind(message)

    def _dual_position_weight(
        self, column: str, base: float, message: ReplaceMessage
    ) -> float:
        """Position-aware weight for the k-th distinct key value."""
        z = self._estimated_z(column)
        if z == 0:
            return base
        k = self.ledger.entry_rank[column][freeze(message.filled_value)]
        n = max(self.expected_cells.get(column, k), k, 2)
        spread = 1 + (2 * z / (n - 1)) * (k - (n + 1) / 2)
        return base * max(0.0, spread)

    def _estimate_u(self, probable: list) -> float:
        base = (self.u_min - 1) * self.template_size
        extra = sum(max(0, row.upvotes - self.u_min) for row in probable)
        return base + extra

    def _estimate_d(self, probable: list) -> int:
        """|D| for *probable* by rescan: the downvotes no probable row
        subsumes.  For a table other than the streamed one."""
        return sum(
            times
            for value, times in self._downvote_counts.items()
            if not any(row.value.subsumes(value) for row in probable)
        )

    def _downvotes_for(self, table: CandidateTable, probable: list) -> int:
        """|D| for *table*: streamed when it is the tracked table."""
        if table is self._table:
            self._sync_cover(table)
            return self._uncovered_downvotes
        return self._estimate_d(probable)

    def _sync_cover(self, table: CandidateTable) -> None:
        """Bring the per-downvote cover counts up to *table*'s current
        probable set, from this estimator's own probable-delta cursor.

        A first drain (or a journal overflow) reports ``full``: the
        counts are then rebuilt from the probable set.  A new table
        (e.g. the master rebuilt on recovery) gets a new cursor.
        """
        if table is not self._table:
            self._table = table
            self._probable_token = table.register_probable_consumer()
        added, removed_ids, full = table.drain_probable_delta(
            self._probable_token
        )
        values = self._probable_values
        if full:
            values.clear()
            for row in table.probable_rows():
                values[row.row_id] = row.value
            self._cover = {
                value: sum(1 for row in values.values() if row.subsumes(value))
                for value in self._downvote_counts
            }
            self._uncovered_downvotes = sum(
                times
                for value, times in self._downvote_counts.items()
                if not self._cover[value]
            )
            return
        for row_id in removed_ids:
            self._shift_cover(values.pop(row_id), -1)
        for row in added:
            values[row.row_id] = row.value
            self._shift_cover(row.value, 1)

    def _shift_cover(self, probable_value: RowValue, step: int) -> None:
        """A probable row with *probable_value* joined (+1) or left (-1)."""
        cover = self._cover
        for value, times in self._downvote_counts.items():
            if probable_value.subsumes(value):
                before = cover[value]
                cover[value] = before + step
                if not before:
                    self._uncovered_downvotes -= times
                elif not cover[value]:
                    self._uncovered_downvotes += times

    def _kind(self, message: Any) -> str:
        return message.to_dict()["type"]
