"""A simulated worker: a policy driving a worker client on the simulator.

Each worker runs a think-act loop: choose an action from the current
view, spend a sampled "human" latency, execute it, repeat.  The loop
stops when the back-end signals completion (the marketplace task is
done) or the worker is explicitly stopped.

Stale-view conflicts are handled the way a browser would: if an action
targets a row that a concurrent broadcast replaced, the execution
raises, the worker simply re-reads the table and picks again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.client import WorkerClient
from repro.core.replica import OperationError
from repro.sim import Simulator
from repro.workers.actions import (
    Action,
    DownvoteAction,
    FillAction,
    UpvoteAction,
)
from repro.workers.policy import WorkerPolicy
from repro.workers.profile import ActionLatencies, WorkerProfile


@dataclass
class WorkerActivityLog:
    """What a worker did, with simulated timestamps (per-action)."""

    fills: int = 0
    upvotes: int = 0
    downvotes: int = 0
    conflicts: int = 0
    idles: int = 0
    offline_actions: int = 0
    action_times: list[tuple[float, str]] = field(default_factory=list)

    @property
    def actions(self) -> int:
        """Manual actions (fills + votes), the paper's action count."""
        return self.fills + self.upvotes + self.downvotes


class SimulatedWorker:
    """Binds a policy, a profile, and a client to the simulator.

    Args:
        client: the worker's CrowdFill client (already attached and
            bootstrapped).
        policy: decision logic.
        profile: latency/engagement knobs.
        sim: the shared simulator.
        latencies: action-latency medians (shared across the crew so
            column weights are estimable).
        is_done: callable polled before each action; True stops the
            worker (wired to the back-end's completion flag).
        streams: named entropy source; the worker's behaviour draws
            from the ``"behavior-<worker_id>"`` stream.  Keyword-only.
    """

    def __init__(
        self,
        client: WorkerClient,
        policy: WorkerPolicy,
        profile: WorkerProfile,
        sim: Simulator,
        latencies: ActionLatencies | None = None,
        is_done: Callable[[], bool] | None = None,
        *,
        streams: Any | None = None,
    ) -> None:
        self.client = client
        self.policy = policy
        self.profile = profile
        self.sim = sim
        if streams is None:
            raise TypeError(
                "SimulatedWorker requires an entropy source: pass"
                " streams=RngStreams(seed)"
            )
        self.rng = streams.stream(f"behavior-{client.worker_id}")
        self.latencies = latencies or ActionLatencies()
        self.is_done = is_done or (lambda: False)
        self.log = WorkerActivityLog()
        self._stopped = False
        self._started = False
        self._session_started_at = 0.0

    @property
    def worker_id(self) -> str:
        return self.client.worker_id

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first think-act cycle (after the arrival delay)."""
        if self._started:
            raise RuntimeError(f"worker {self.worker_id} already started")
        self._started = True
        self._session_started_at = self.profile.start_delay
        self.sim.schedule(self.profile.start_delay, self._cycle)

    @property
    def departed(self) -> bool:
        """True once the worker's session expired or stop() was called."""
        return self._stopped

    def stop(self) -> None:
        """Stop after the in-flight action (if any)."""
        self._stopped = True

    # -- the think-act loop --------------------------------------------------------

    def _cycle(self) -> None:
        if self._stopped or self.is_done():
            return
        if (
            self.profile.session_seconds is not None
            and self.sim.now - self._session_started_at
            >= self.profile.session_seconds
        ):
            self.stop()  # the worker's session is over; they leave
            return
        action = self.policy.choose(self.client, self.rng)
        delay = self._latency_for(action)
        if self.rng.random() < self.profile.pause_prob:
            delay += self.rng.uniform(0.5, 2.0) * self.profile.pause_seconds
        self.sim.schedule(delay, lambda: self._execute(action))

    def _execute(self, action: Action) -> None:
        if self._stopped or self.is_done():
            return
        try:
            self._apply(action)
            self.sim.schedule(0.0, self._cycle)
        except OperationError:
            # The row changed under us (concurrent fill of the same
            # cell); a human sees the refreshed table and quickly picks
            # again — they already did the thinking, so the next attempt
            # skips the usual full action latency.
            self.log.conflicts += 1
            self.sim.schedule(0.0, lambda: self._retry_after_conflict())

    def _retry_after_conflict(self) -> None:
        if self._stopped or self.is_done():
            return
        action = self.policy.choose(self.client, self.rng)
        delay = min(self._latency_for(action), 3.0) / self.profile.speed
        self.sim.schedule(delay, lambda: self._execute(action))

    def _apply(self, action: Action) -> None:
        now = self.sim.now
        if not getattr(self.client, "connected", True):
            self.log.offline_actions += 1
        if isinstance(action, FillAction):
            # The UI updates rows in place: an entry begun on a row that
            # was concurrently replaced lands on its heir.  Only a race
            # on the same cell still conflicts (section 2.4.1).
            row_id = self.client.resolve_row(action.row_id)
            new_id = self.client.fill(row_id, action.column, action.value)
            self.log.fills += 1
            self.log.action_times.append((now, f"fill:{action.column}"))
            note_fill = getattr(self.policy, "note_fill", None)
            if note_fill is not None:
                note_fill(self.client, new_id)
        elif isinstance(action, UpvoteAction):
            self.client.upvote(self.client.resolve_row(action.row_id))
            self.log.upvotes += 1
            self.log.action_times.append((now, "upvote"))
        elif isinstance(action, DownvoteAction):
            self.client.downvote(self.client.resolve_row(action.row_id))
            self.log.downvotes += 1
            self.log.action_times.append((now, "downvote"))
        else:
            self.log.idles += 1

    def _latency_for(self, action: Action) -> float:
        if isinstance(action, FillAction):
            base = self.latencies.sample_fill(self.rng, action.column)
        elif isinstance(action, UpvoteAction):
            base = self.latencies.sample_upvote(self.rng)
        elif isinstance(action, DownvoteAction):
            base = self.latencies.sample_downvote(self.rng)
        else:
            base = action.retry_after
        return base / self.profile.speed
