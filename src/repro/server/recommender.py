"""Cell recommendation (paper section 8, future work).

    "We might have the system recommend certain cells to individual
    workers, guiding workers to fill in different parts of the table.
    Our current approach randomizes the presentation of rows to each
    worker, but a more sophisticated strategy would take into account
    workers' skills and the current state of the table."

This module implements that strategy server-side.  The recommender

1. targets the rows that actually gate completion — the probable rows
   currently matched to template rows in the Central Client's
   correspondence — preferring rows closest to completion;
2. estimates per-worker column skill from the action trace (a worker's
   median generation time per column, versus the crew's) and routes
   each column to the worker who is relatively fastest at it;
3. hands out *disjoint* assignments: no two workers are pointed at the
   same cell at the same time, eliminating the same-cell conflicts of
   section 2.4.1 by construction (conflicts can still arise if workers
   ignore the advice — it is advice, not a lock).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.messages import ReplaceMessage, TraceRecord
from repro.pay.timing import WorkerLedger, median
from repro.server.backend import BackendServer


@dataclass(frozen=True)
class CellRecommendation:
    """One suggestion: worker, please fill this cell next."""

    row_id: str
    column: str
    reason: str


class CellRecommender:
    """Assigns open cells of completion-gating rows to workers.

    Args:
        backend: the live back-end server (master table + Central
            Client correspondence + trace).
    """

    def __init__(self, backend: BackendServer, assignment_ttl: float = 90.0) -> None:
        self.backend = backend
        self.assignment_ttl = assignment_ttl
        # Outstanding advice per worker, so sequential recommend_for
        # calls from different workers stay disjoint:
        # worker -> (row, column, advised_at).
        self._outstanding: dict[str, tuple[str, str, float]] = {}
        # (worker, row) pairs the worker said it cannot help with.
        self._declined: set[tuple[str, str]] = set()
        # worker -> column -> fill generation times, folded once per record.
        self._ledger = WorkerLedger()
        self._fill_times: dict[str, dict[str, list[float]]] = {}
        for record in backend.worker_trace():
            self._note(record)
        backend.add_trace_listener(self._note)

    # -- skill estimation ------------------------------------------------------

    def _note(self, record: TraceRecord) -> None:
        time = self._ledger.note(record)
        message = record.message
        if time is not None and isinstance(message, ReplaceMessage):
            self._fill_times.setdefault(record.worker_id, {}).setdefault(
                message.column, []
            ).append(time)

    def skill_times(self) -> dict[str, dict[str, float]]:
        """worker -> column -> median fill generation time (observed)."""
        return {
            worker: {
                column: median(times) or 0.0
                for column, times in by_column.items()
            }
            for worker, by_column in self._fill_times.items()
        }

    def relative_speed(self, worker_id: str, column: str) -> float:
        """How fast *worker_id* is at *column* vs the crew median.

        Values < 1 mean faster than typical; unknown pairs score 1.0.
        """
        skills = self.skill_times()
        mine = skills.get(worker_id, {}).get(column)
        if mine is None or mine <= 0:
            return 1.0
        crew = [
            by_column[column]
            for by_column in skills.values()
            if column in by_column and by_column[column] > 0
        ]
        crew_median = median(crew)
        if not crew_median:
            return 1.0
        return mine / crew_median

    # -- recommendation ---------------------------------------------------------

    def open_cells(self) -> list[tuple[str, str]]:
        """(row_id, column) pairs gating completion, most-filled first.

        Rows in the Central Client's template correspondence come
        first; other probable rows follow.
        """
        table = self.backend.replica.table
        schema = self.backend.schema
        matched_ids = set(self.backend.central.correspondence().values())

        gating: list[tuple[int, int, str, str]] = []
        for row in table.rows():
            missing = row.value.missing_columns(schema.column_names)
            if not missing:
                continue
            priority = 0 if row.row_id in matched_ids else 1
            for column in missing:
                gating.append((priority, -len(row.value), row.row_id, column))
        gating.sort()
        return [(row_id, column) for _, _, row_id, column in gating]

    def recommend(self, worker_ids: list[str]) -> dict[str, CellRecommendation]:
        """One disjoint recommendation per worker.

        Cells are assigned greedily: each open cell goes to the
        still-unassigned worker with the best relative speed for its
        column.  Workers left over (fewer cells than workers) get no
        recommendation — they should vote instead.
        """
        assignments: dict[str, CellRecommendation] = {}
        unassigned = list(worker_ids)
        used_rows: set[str] = set()
        for row_id, column in self.open_cells():
            if not unassigned:
                break
            if row_id in used_rows:
                continue  # one worker per row: no intra-row races either
            best = min(
                unassigned,
                key=lambda worker: self.relative_speed(worker, column),
            )
            speed = self.relative_speed(best, column)
            reason = (
                f"gates completion; your relative speed on "
                f"{column!r} is {speed:.2f}x the crew median"
            )
            assignments[best] = CellRecommendation(row_id, column, reason)
            unassigned.remove(best)
            used_rows.add(row_id)
        return assignments

    def recommend_for(self, worker_id: str) -> CellRecommendation | None:
        """A single worker's next recommended cell (or None).

        Recommendations are sticky until the target cell is filled (or
        its row replaced), and cells advised to one worker are withheld
        from the others — the disjointness that kills same-cell races.
        """
        self._expire_stale()
        outstanding = self._outstanding.get(worker_id)
        if outstanding is not None:
            row_id, column, _ = outstanding
            return CellRecommendation(row_id, column, "still open; keep going")
        taken_rows = {row for row, _, _ in self._outstanding.values()}
        for row_id, column in self.open_cells():
            if row_id in taken_rows:
                continue
            if (worker_id, row_id) in self._declined:
                continue
            self._outstanding[worker_id] = (
                row_id, column, self.backend.sim.now,
            )
            speed = self.relative_speed(worker_id, column)
            return CellRecommendation(
                row_id,
                column,
                f"gates completion; your relative speed on {column!r} is "
                f"{speed:.2f}x the crew median",
            )
        return None

    def decline(self, worker_id: str) -> None:
        """The worker cannot act on its current advice (e.g. it does
        not know the entity the row describes): release the row so
        others may be pointed at it, and stop re-advising this pair."""
        outstanding = self._outstanding.pop(worker_id, None)
        if outstanding is not None:
            self._declined.add((worker_id, outstanding[0]))

    def _expire_stale(self) -> None:
        table = self.backend.replica.table
        now = self.backend.sim.now
        stale = []
        for worker_id, (row_id, column, advised_at) in self._outstanding.items():
            row = table.get(row_id)
            if (
                row is None
                or column in row.value.filled_columns()
                or now - advised_at > self.assignment_ttl
            ):
                stale.append(worker_id)
        for worker_id in stale:
            del self._outstanding[worker_id]
