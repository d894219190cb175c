"""Budget allocation schemes (paper sections 5.2.2-5.2.3).

Three schemes distribute the user's total budget B across the cell set
C and the contributing vote sets U and D:

- *uniform*: every cell and vote earns B / (|C| + |U| + |D|);
- *column-weighted*: cells earn proportionally to per-column weights
  y_i (median generation times of contributing fills), votes to y_up /
  y_down;
- *dual-weighted*: like column-weighted, but primary-key cells get
  linearly increasing weights from (1 - z_i) y_i to (1 + z_i) y_i in
  the order their values first appeared — entering new keys gets
  harder as the table fills up.  z_i is fitted by least squares on the
  per-value completion times, clamped to [0, 1].

Each cell's amount b_c is then split between its direct contributor
(h_c · b_c) and its indirect contributor ((1 - h_c) · b_c, when one
exists): h_c defaults to 0.25 for primary-key columns and 0.5
otherwise, overridable per column (section 5.2.3).  Cells without an
indirect contributor leave (1 - h_c) b_c unspent — the scheme need not
exhaust B.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.messages import TraceRecord
from repro.core.schema import Schema
from repro.pay.contribution import CellContribution, ContributionAnalysis
from repro.pay.timing import WorkerLedger, freeze, median

DEFAULT_WEIGHT = 8.0
"""Fallback weight (seconds) when a column has no timing samples."""

KEY_SPLIT = 0.25
NONKEY_SPLIT = 0.5


class AllocationScheme(enum.Enum):
    """The three schemes of section 5.2.2."""

    UNIFORM = "uniform"
    COLUMN_WEIGHTED = "column"
    DUAL_WEIGHTED = "dual"


@dataclass
class Weights:
    """Resolved weights for one allocation."""

    by_column: dict[str, float]
    upvote: float
    downvote: float
    z_by_column: dict[str, float] = field(default_factory=dict)


@dataclass
class AllocationResult:
    """The outcome of one budget allocation."""

    scheme: AllocationScheme
    budget: float
    weights: Weights
    amounts_by_seq: dict[int, float]
    by_worker: dict[str, float]
    cell_amounts: list[tuple[CellContribution, float]]
    total_allocated: float
    unspent: float

    def worker_total(self, worker_id: str) -> float:
        """Total compensation for *worker_id* (0.0 when absent)."""
        return self.by_worker.get(worker_id, 0.0)

    def timeline_for(
        self, worker_id: str, trace: Iterable[TraceRecord]
    ) -> list[tuple[float, float]]:
        """(timestamp, cumulative earnings) points for one worker.

        The series behind Figure 6: each contributing message's amount
        is credited at the moment the worker performed the action.
        """
        points: list[tuple[float, float]] = []
        running = 0.0
        for record in sorted(trace, key=lambda r: r.seq):
            if record.worker_id != worker_id:
                continue
            amount = self.amounts_by_seq.get(record.seq, 0.0)
            if amount:
                running += amount
                points.append((record.timestamp, running))
        return points


def column_weights_from_trace(
    schema: Schema,
    trace: Sequence[TraceRecord],
    analysis: ContributionAnalysis,
    default_weight: float = DEFAULT_WEIGHT,
) -> Weights:
    """Median generation times of *contributing* messages, per column.

    Columns (or vote kinds) without samples fall back to
    *default_weight*, mirroring the uniform scheme's indifference.
    """
    times = WorkerLedger.of(trace).generation_time
    contributing_fill_seqs: dict[str, list[int]] = {}
    for cell in analysis.cells:
        contributing_fill_seqs.setdefault(cell.column, []).append(cell.direct.seq)
        if cell.indirect is not None and cell.indirect.seq != cell.direct.seq:
            contributing_fill_seqs.setdefault(cell.column, []).append(
                cell.indirect.seq
            )
    by_column: dict[str, float] = {}
    for column in schema.column_names:
        samples = [
            times[seq]
            for seq in contributing_fill_seqs.get(column, [])
            if seq in times
        ]
        by_column[column] = median(samples) or default_weight
    upvote_samples = [
        times[r.seq] for r in analysis.upvotes if r.seq in times
    ]
    downvote_samples = [
        times[r.seq] for r in analysis.downvotes if r.seq in times
    ]
    return Weights(
        by_column=by_column,
        upvote=median(upvote_samples) or default_weight,
        downvote=median(downvote_samples) or default_weight,
    )


def fit_z(completion_times: Sequence[float]) -> float:
    """Least-squares z for the dual-weighted spread (section 5.2.2).

    Fits t_k ~ alpha + beta*k over k = 1..n, then chooses z so that the
    linear weight profile (1 - z)y .. (1 + z)y matches the fitted
    line's relative slope: z = beta (n - 1) / (2 * mean).  Negative
    fits clamp to 0 and runaway fits clamp to 1, as the paper requires.
    """
    n = len(completion_times)
    if n < 2:
        return 0.0
    mean_t = sum(completion_times) / n
    if mean_t <= 0:
        return 0.0
    mean_k = (n + 1) / 2
    numerator = sum(
        (k - mean_k) * (t - mean_t)
        for k, t in enumerate(completion_times, start=1)
    )
    denominator = sum((k - mean_k) ** 2 for k in range(1, n + 1))
    beta = numerator / denominator
    z = beta * (n - 1) / (2 * mean_t)
    return min(1.0, max(0.0, z))


def allocate(
    schema: Schema,
    trace: Sequence[TraceRecord],
    analysis: ContributionAnalysis,
    budget: float,
    scheme: AllocationScheme = AllocationScheme.DUAL_WEIGHTED,
    split_overrides: Mapping[str, float] | None = None,
    default_weight: float = DEFAULT_WEIGHT,
) -> AllocationResult:
    """Distribute *budget* per the chosen scheme (steps 4-6 of 5.2).

    Args:
        schema: table schema (drives key/non-key splitting defaults).
        trace: worker trace M in server order (for timing and ordering).
        analysis: output of :func:`analyze_contributions`.
        budget: the user's total budget B.
        scheme: allocation scheme.
        split_overrides: optional per-column h_c overrides in [0, 1].
        default_weight: weight for columns without timing samples.

    Raises:
        ValueError: negative budget or out-of-range split override.
    """
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    splits = dict(split_overrides or {})
    for column, value in splits.items():
        if not 0 <= value <= 1:
            raise ValueError(f"split for {column!r} must be in [0, 1], got {value}")

    if scheme is AllocationScheme.UNIFORM:
        weights = Weights(
            by_column={c: 1.0 for c in schema.column_names},
            upvote=1.0,
            downvote=1.0,
        )
    else:
        weights = column_weights_from_trace(
            schema, trace, analysis, default_weight
        )

    cells_by_column: dict[str, list[CellContribution]] = {}
    for cell in analysis.cells:
        cells_by_column.setdefault(cell.column, []).append(cell)

    total_weight = (
        sum(
            weights.by_column[column] * len(cells)
            for column, cells in cells_by_column.items()
        )
        + weights.upvote * len(analysis.upvotes)
        + weights.downvote * len(analysis.downvotes)
    )

    amounts_by_seq: dict[int, float] = {}
    cell_amounts: list[tuple[CellContribution, float]] = []
    total_allocated = 0.0

    if total_weight > 0:
        unit = budget / total_weight
        key_columns = set(schema.key_columns)

        dual = scheme is AllocationScheme.DUAL_WEIGHTED
        ledger = WorkerLedger.of(trace) if dual else None
        cell_weight: dict[int, float] = {}  # id(cell) -> weight
        for column, cells in cells_by_column.items():
            y = weights.by_column[column]
            if ledger is not None and column in key_columns:
                ordered, z = _dual_order_and_z(column, cells, ledger)
                weights.z_by_column[column] = z
                n = len(ordered)
                for k, cell in enumerate(ordered, start=1):
                    if n > 1:
                        spread = 1 + (2 * z / (n - 1)) * (k - (n + 1) / 2)
                    else:
                        spread = 1.0
                    cell_weight[id(cell)] = y * spread
            else:
                for cell in cells:
                    cell_weight[id(cell)] = y

        for cell in analysis.cells:
            amount = cell_weight[id(cell)] * unit
            cell_amounts.append((cell, amount))
            h = splits.get(
                cell.column,
                KEY_SPLIT if cell.column in key_columns else NONKEY_SPLIT,
            )
            direct_amount = h * amount
            amounts_by_seq[cell.direct.seq] = (
                amounts_by_seq.get(cell.direct.seq, 0.0) + direct_amount
            )
            total_allocated += direct_amount
            if cell.indirect is not None:
                indirect_amount = (1 - h) * amount
                amounts_by_seq[cell.indirect.seq] = (
                    amounts_by_seq.get(cell.indirect.seq, 0.0) + indirect_amount
                )
                total_allocated += indirect_amount

        for record in analysis.upvotes:
            amount = weights.upvote * unit
            amounts_by_seq[record.seq] = (
                amounts_by_seq.get(record.seq, 0.0) + amount
            )
            total_allocated += amount
        for record in analysis.downvotes:
            amount = weights.downvote * unit
            amounts_by_seq[record.seq] = (
                amounts_by_seq.get(record.seq, 0.0) + amount
            )
            total_allocated += amount

    by_worker: dict[str, float] = {}
    worker_by_seq = {record.seq: record.worker_id for record in trace}
    for seq, amount in amounts_by_seq.items():
        worker = worker_by_seq[seq]
        by_worker[worker] = by_worker.get(worker, 0.0) + amount

    return AllocationResult(
        scheme=scheme,
        budget=budget,
        weights=weights,
        amounts_by_seq=amounts_by_seq,
        by_worker=by_worker,
        cell_amounts=cell_amounts,
        total_allocated=total_allocated,
        unspent=budget - total_allocated,
    )


def _dual_order_and_z(
    column: str,
    cells: list[CellContribution],
    ledger: WorkerLedger,
) -> tuple[list[CellContribution], float]:
    """Order key-column cells by first appearance of their value; fit z.

    The k-th value's completion time is the generation time of the
    message that first entered it, which is what the regression runs on.
    """
    entries = [
        (cell, ledger.first_entry.get((column, freeze(cell.value))))
        for cell in cells
    ]
    entries.sort(key=lambda pair: (pair[1] or pair[0].direct).seq)
    completion_times = [
        ledger.generation_time[entry.seq]
        for _, entry in entries
        if entry is not None and entry.seq in ledger.generation_time
    ]
    return [cell for cell, _ in entries], fit_z(completion_times)
