"""Periodic snapshot sampling on the simulator clock.

A :class:`SnapshotSampler` polls a set of named source callables every
*interval* simulated seconds and appends one deep-copied sample row to
the owning :class:`~repro.obs.Observability`.  A snapshot must never
alias live replica state, so deep-copying ensures that mutating the
system after sampling cannot retroactively edit history.

The sampler only re-arms itself while the simulator still has *other*
pending events.  Without that guard a draining ``sim.run()`` — which
the churn experiment relies on to reach quiescence — would never
terminate, because the sampler's own tick would perpetually reschedule.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.obs import Observability
    from repro.sim import Simulator


class SnapshotSampler:
    """Samples registered sources every *interval* sim-seconds."""

    def __init__(
        self,
        obs: "Observability",
        sim: "Simulator",
        interval: float = 5.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"snapshot interval must be positive: {interval}")
        self.obs = obs
        self.sim = sim
        self.interval = interval
        self._sources: list[tuple[str, Callable[[], Any]]] = []
        self._armed = False

    def add_source(self, name: str, fn: Callable[[], Any]) -> None:
        """Register *fn*; its return value appears under *name* per sample."""
        self._sources.append((name, fn))

    def start(self) -> None:
        """Take an immediate sample and begin periodic ticking."""
        self._tick()

    def sample_now(self) -> dict[str, Any]:
        """Take one sample immediately (also used by the periodic tick)."""
        row: dict[str, Any] = {"time": self.sim.now}
        for name, fn in self._sources:
            row[name] = copy.deepcopy(fn())
        self.obs.add_snapshot(row)
        return row

    def _tick(self) -> None:
        self._armed = False
        self.sample_now()
        # Re-arm only while the rest of the system is still active:
        # `pending_events` excludes this (already-fired) tick, so once
        # the workload drains the sampler stops and `sim.run()` returns.
        if self.sim.pending_events > 0 and not self._armed:
            self._armed = True
            self.sim.schedule(self.interval, self._tick)
