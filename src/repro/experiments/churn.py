"""The churn scenario: a collection that survives worker disconnects.

Production crowdsourcing crews are churn-heavy: workers drop mid-session
and (sometimes) come back.  This rig runs a standard CrowdFill
collection while a seeded :class:`~repro.net.faults.FaultPlan`
disconnects a chosen fraction of the crew mid-collection and rejoins
them, exercising the whole robustness stack end to end:

- the fault injector purges the wire and drops link traffic;
- the back-end retains per-client sessions and resyncs rejoiners from
  the retained suffix of its trace (or a snapshot when the gap reaches
  past it);
- clients keep working offline, buffering operations that merge via the
  normal operation model on reconnect.

The run's success criteria mirror the convergence theorem under faults:
the collection still terminates with a final table satisfying the
constraint template, and — once every survivor is back online and the
network quiesces — every client copy equals the master.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.scoring import ScoringFunction, ThresholdScoring
from repro.experiments.harness import (
    ExperimentConfig,
    make_policy,
    resolve_domain,
)
from repro.net import DisconnectWindow, FaultInjector, FaultPlan
from repro.net import UniformLatency
from repro.session import CollectionSession, WorkerSpec
from repro.sim import RngStreams


@dataclass(frozen=True)
class ChurnConfig:
    """Fault-schedule knobs layered over a base experiment config."""

    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    disconnect_fraction: float = 0.4
    """Fraction of the crew that disconnects mid-collection (>= 0.3 for
    the paper-plus demo scenario)."""
    first_outage: float = 90.0
    """Earliest outage start, seconds of simulated time."""
    outage_spread: float = 600.0
    """Outage starts are drawn from [first_outage, first_outage+spread)."""
    min_outage: float = 30.0
    max_outage: float = 300.0
    waves: int = 2
    """How many disconnect/rejoin rounds each victim goes through."""
    oplog_capacity: int = 256
    """Retained trace suffix for resync; small values force snapshot
    resyncs."""


@dataclass
class WorkerChurnOutcome:
    """One worker's fault-and-recovery story."""

    worker_id: str
    disconnects: int
    reconnects: int
    offline_actions: int
    resync_kinds: list[str]


@dataclass
class ChurnReport:
    """Everything the churn scenario asserts on (and reports)."""

    completed: bool
    duration: float | None
    accuracy: float
    final_rows: int
    template_satisfied: bool
    all_converged: bool
    victims: list[str]
    outcomes: list[WorkerChurnOutcome]
    incremental_resyncs: int
    snapshot_resyncs: int
    messages_dropped: int
    fault_events: int

    @property
    def rejoined_workers(self) -> int:
        return sum(1 for o in self.outcomes if o.reconnects > 0)


def build_churn_plan(config: ChurnConfig, worker_ids: list[str]) -> FaultPlan:
    """Derive the deterministic fault schedule for one run.

    The victim set is the first ``ceil(fraction * n)`` workers (victim
    *identity* is part of the scenario, not of the random draw, so the
    fraction is exact); outage windows are drawn from the seeded
    ``faults`` stream.
    """
    streams = RngStreams(config.base.seed)
    rng = streams.stream("faults")
    count = math.ceil(config.disconnect_fraction * len(worker_ids))
    victims = worker_ids[:count]
    windows: list[DisconnectWindow] = []
    for victim in victims:
        for _ in range(config.waves):
            start = config.first_outage + rng.random() * config.outage_spread
            length = config.min_outage + rng.random() * (
                config.max_outage - config.min_outage
            )
            windows.append(DisconnectWindow(victim, start, start + length))
    return FaultPlan(disconnects=tuple(windows))


def run_churn_experiment(
    config: ChurnConfig | None = None, obs: Any = None
) -> ChurnReport:
    """Run one collection under the churn fault schedule.

    Args:
        config: fault-schedule knobs over a base experiment config.
        obs: forwarded to :class:`repro.session.CollectionSession`.
    """
    config = config or ChurnConfig()
    base = config.base
    schema, full_truth, truth_band = resolve_domain(base)
    scoring: ScoringFunction = ThresholdScoring(base.min_votes)
    session = CollectionSession(
        seed=base.seed,
        schema=schema,
        scoring=scoring,
        target_rows=base.target_rows,
        latency=UniformLatency(base.latency_low, base.latency_high),
        oplog_capacity=config.oplog_capacity,
        obs=obs,
        shards=base.shards,
    )
    backend = session.backend
    assert backend is not None

    profiles = base.resolved_profiles()
    kinds = base.resolved_policy_kinds()
    worker_ids = [f"worker-{i}" for i in range(base.num_workers)]
    for index, worker_id in enumerate(worker_ids):
        session.add_worker(
            WorkerSpec(
                worker_id=worker_id,
                policy=lambda wid, i=index: make_policy(
                    kinds[i], truth_band, profiles[i], session.streams, wid
                ),
                profile=profiles[index],
                vote_cap=base.vote_cap,
            )
        )

    plan = build_churn_plan(config, worker_ids)
    injector = FaultInjector(session.sim, session.network, plan)
    backend.bind_faults(injector, clients=session.clients)
    injector.install()

    session.run(until=base.max_sim_time)

    # End-of-run: bring every still-disconnected victim back online so
    # convergence is checkable, then drain the network.
    injector.force_reconnect_all()
    session.drain()
    assert session.network.quiescent()

    reference = backend.replica.snapshot()
    all_converged = all(
        client.snapshot() == reference for client in session.clients.values()
    )
    final_values = [row.value for row in backend.final_rows()]
    outcomes = [
        WorkerChurnOutcome(
            worker_id=worker_id,
            disconnects=session.clients[worker_id].disconnects,
            reconnects=len(session.clients[worker_id].resync_kinds),
            offline_actions=session.workers[worker_id].log.offline_actions,
            resync_kinds=list(session.clients[worker_id].resync_kinds),
        )
        for worker_id in worker_ids
    ]
    return ChurnReport(
        completed=backend.completed,
        duration=backend.completion_time,
        accuracy=full_truth.accuracy_of(final_values),
        final_rows=len(final_values),
        template_satisfied=backend.completed,
        all_converged=all_converged,
        victims=plan.faulted_endpoints(),
        outcomes=outcomes,
        incremental_resyncs=sum(
            o.resync_kinds.count("incremental") for o in outcomes
        ),
        snapshot_resyncs=sum(
            o.resync_kinds.count("snapshot") for o in outcomes
        ),
        messages_dropped=session.network.stats.messages_dropped,
        fault_events=len(injector.events),
    )
