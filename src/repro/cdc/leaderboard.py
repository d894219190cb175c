"""A live analytics consumer: the contribution leaderboard.

The leaderboard is the first-class derived view the report generator
reads its final-state sections from.  It maintains, incrementally from
the change stream (no end-of-run trace scan):

- per-worker operation tallies (fills, inserts, up/down votes, undos),
- the candidate-row state (via an embedded :class:`~repro.cdc.view.CdcView`),
- stream totals (events seen, automation share).

Attach it before the run starts (``CollectionSession.leaderboard()``)
and it stays current as operations commit; attaching mid-run falls
back to the snapshot path for row state, with tallies covering the
tail from the attach cut (worker attribution is not reconstructible
from state alone — exactly why the stream, not the snapshot, is the
analytics substrate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cdc.subscription import Subscription
from repro.cdc.view import CdcView
from repro.constraints.central import CENTRAL_CLIENT_ID
from repro.core.messages import (
    DownvoteMessage,
    InsertMessage,
    ReplaceMessage,
    UndoDownvoteMessage,
    UndoUpvoteMessage,
    UpvoteMessage,
)

#: Per-worker tally keys, in display order.
TALLY_KINDS = ("fills", "inserts", "upvotes", "downvotes", "undos")


@dataclass
class WorkerTally:
    """One worker's operation counts as seen on the change stream."""

    worker_id: str
    fills: int = 0
    inserts: int = 0
    upvotes: int = 0
    downvotes: int = 0
    undos: int = 0

    @property
    def total(self) -> int:
        return (
            self.fills + self.inserts + self.upvotes + self.downvotes
            + self.undos
        )


@dataclass
class LeaderboardSnapshot:
    """The leaderboard's current standings (a plain-data export)."""

    position: int
    events: int
    central_events: int
    candidate_rows: int
    superseded_rows: int
    heavily_downvoted: int
    workers: list[WorkerTally] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "position": self.position,
            "events": self.events,
            "central_events": self.central_events,
            "candidate_rows": self.candidate_rows,
            "superseded_rows": self.superseded_rows,
            "heavily_downvoted": self.heavily_downvoted,
            "workers": [
                {
                    "worker_id": tally.worker_id,
                    **{kind: getattr(tally, kind) for kind in TALLY_KINDS},
                    "total": tally.total,
                }
                for tally in self.workers
            ],
        }


class LeaderboardView:
    """Per-worker contribution standings, maintained from the stream.

    Args:
        subscription: an (ideally unbounded) change-stream subscription.
            Subscribed-at-birth covers the whole run; a mid-run attach
            snapshot-loads row state and tallies the tail only.
        downvote_threshold: a row counts as *heavily downvoted* when its
            reconstructed downvote count reaches this many.
    """

    def __init__(
        self, subscription: Subscription, downvote_threshold: int = 2
    ) -> None:
        self.view = CdcView(subscription, label="leaderboard")
        self.downvote_threshold = downvote_threshold
        self.tallies: dict[str, WorkerTally] = {}
        self.events = 0
        self.central_events = 0
        if not self.view.live:
            # Mid-run attach: row state comes from the snapshot
            # fallback; tallies start at the attach cut.
            self.view._snapshot_fallback()
            self.view.sub.skip_bootstrap()

    @property
    def sub(self) -> Subscription:
        return self.view.sub

    def refresh(self) -> int:
        """Fold pending events into standings; returns how many."""
        sub = self.view.sub
        pending = sub.poll()
        if pending is None:
            # Overflow: row state reloads from a snapshot; the events
            # the subscription lost are gone from the tallies too (an
            # unbounded subscription never takes this path).
            self.view._snapshot_fallback()
            return 0
        applied = self.view.refresh(pending)
        for event in pending:
            self._tally(event)
        return applied

    def _tally(self, event: Any) -> None:
        self.events += 1
        worker_id = event.worker_id
        if worker_id == CENTRAL_CLIENT_ID:
            self.central_events += 1
            return
        tally = self.tallies.get(worker_id)
        if tally is None:
            tally = self.tallies[worker_id] = WorkerTally(worker_id)
        message = event.message
        if isinstance(message, ReplaceMessage):
            tally.fills += 1
        elif isinstance(message, InsertMessage):
            tally.inserts += 1
        elif isinstance(message, UpvoteMessage):
            tally.upvotes += 1
        elif isinstance(message, DownvoteMessage):
            tally.downvotes += 1
        elif isinstance(message, (UndoUpvoteMessage, UndoDownvoteMessage)):
            tally.undos += 1

    def snapshot(self) -> LeaderboardSnapshot:
        """Current standings (refreshes first)."""
        self.refresh()
        view = self.view
        downvoted = 0
        for value in view.rows.values():
            total = sum(
                count
                for w, count in view.downvotes.items()
                if w.issubset(value)
            )
            if total >= self.downvote_threshold:
                downvoted += 1
        workers = sorted(
            self.tallies.values(),
            key=lambda tally: (-tally.total, tally.worker_id),
        )
        return LeaderboardSnapshot(
            position=view.cut.position,
            events=self.events,
            central_events=self.central_events,
            candidate_rows=len(view.rows),
            superseded_rows=len(view.superseded),
            heavily_downvoted=downvoted,
            workers=workers,
        )

    def sample(self) -> dict[str, Any]:
        """A compact, JSON-able gauge for the periodic snapshot sampler
        (the live view visible on the observability timeline).  While
        the stream's owner is crashed the sample reports the standings
        as of the crash; the first sample after recovery resyncs."""
        if self.view.sub.stream.available:
            self.refresh()
        top = sorted(
            self.tallies.values(),
            key=lambda tally: (-tally.total, tally.worker_id),
        )[:3]
        return {
            "events": self.events,
            "rows": len(self.view.rows),
            "top": [[tally.worker_id, tally.total] for tally in top],
        }
