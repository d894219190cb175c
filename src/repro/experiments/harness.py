"""One full CrowdFill collection run, end to end.

This is the reproduction of the paper's experimental setup (section 6):
a SoccerPlayer table with the ``dob`` column, majority-of-three scoring,
a cardinality constraint of 20 rows starting from an empty table, and a
crew of five heterogeneous workers whose knowledge covers players with
80-99 caps.  Everything is seeded: the same configuration replays the
same run, message for message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Literal, Mapping

from repro.constraints.template import Template
from repro.core.row import RowValue
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction, ThresholdScoring
from repro.datasets import (
    CityUniverse,
    GroundTruth,
    MovieUniverse,
    SoccerPlayerUniverse,
)
from repro.net import FaultPlanError, UniformLatency
from repro.pay import (
    AllocationResult,
    AllocationScheme,
    CompensationEstimator,
    ContributionAnalysis,
    allocate,
    analyze_contributions,
)
from repro.server.recommender import CellRecommender
from repro.session import CollectionSession, WorkerSpec
from repro.sim import RngStreams
from repro.workers import (
    CopierPolicy,
    DiligentPolicy,
    SpammerPolicy,
    WorkerProfile,
)
from repro.workers.policy import GuidedPolicy
from repro.workers.profile import representative_crew

PolicyKind = Literal["diligent", "spammer", "copier"]


def make_policy(
    kind: PolicyKind,
    truth: GroundTruth,
    profile: WorkerProfile,
    streams: RngStreams,
    worker_id: str,
):
    """Build one worker's decision policy (shared by all scenario rigs)."""
    if kind == "spammer":
        return SpammerPolicy()
    if kind == "copier":
        return CopierPolicy()
    knowledge = truth.sample_known_subset(
        streams.stream(f"knowledge-{worker_id}"), profile.knowledge_fraction
    )
    return DiligentPolicy(knowledge, profile, reference=truth)


def resolve_domain(
    config: "ExperimentConfig",
) -> tuple[Schema, GroundTruth, GroundTruth]:
    """The (schema, full ground truth, eligible population) for a config.

    The section 6 soccer domain restricts eligibility to the 80-99 caps
    band; the cities and movies domains (the paper's "different schemas
    and workloads") use their whole universes.
    """
    if config.domain == "soccer":
        universe = SoccerPlayerUniverse(
            seed=config.seed,
            size=config.universe_size,
            include_dob=config.include_dob,
        )
        full = universe.ground_truth()
        band = universe.caps_band(config.caps_low, config.caps_high)
        return universe.schema, full, band
    if config.domain == "cities":
        cities = CityUniverse(seed=config.seed, size=config.universe_size)
        truth = cities.ground_truth()
        return cities.schema, truth, truth
    if config.domain == "movies":
        movies = MovieUniverse(seed=config.seed, size=config.universe_size)
        truth = movies.ground_truth()
        return movies.schema, truth, truth
    raise ValueError(f"unknown domain: {config.domain!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one collection run.

    The defaults reproduce the paper's section 6 setup.
    """

    seed: int = 0
    num_workers: int = 5
    target_rows: int = 20
    budget: float = 10.0
    min_votes: int = 2
    domain: Literal["soccer", "cities", "movies"] = "soccer"
    universe_size: int = 600
    caps_low: int = 80
    caps_high: int = 99
    include_dob: bool = True
    vote_cap: int | None = 3
    mean_interarrival: float = 15.0
    max_sim_time: float = 3 * 3600.0
    estimator_scheme: AllocationScheme = AllocationScheme.DUAL_WEIGHTED
    profiles: tuple[WorkerProfile, ...] | None = None
    policy_kinds: tuple[PolicyKind, ...] | None = None
    template_values: tuple[Mapping[str, Any], ...] | None = None
    predicates_template: tuple[Mapping[str, str], ...] | None = None
    """Optional predicates-constraint rows (textual predicate syntax,
    e.g. ``{"caps": "between{80,99}"}``) — the section 2.3 extension.
    Takes precedence over ``template_values``."""
    latency_low: float = 0.02
    latency_high: float = 0.25
    use_recommender: bool = False
    """Wrap diligent workers in the section 8 cell-recommendation
    strategy (see :mod:`repro.server.recommender`)."""
    shards: int | None = None
    """``None`` runs the classic single back-end; ``N >= 1`` runs the
    sharded multi-backend (:mod:`repro.server.shard`) with N shards."""
    capture_cdc: bool = False
    """Record the run's canonical change stream (one
    :class:`~repro.cdc.events.ChangeEvent` per committed operation) on
    the result's ``cdc_events`` — the ``--cdc-out`` export."""
    fault_plan: Any = None
    """A :class:`~repro.net.FaultPlan` injected into the run (worker
    outages, shard partitions, shard crash windows) — the
    ``--fault-plan plan.json`` input.  Crash windows require a sharded
    backend (``shards=N``); durability is enabled automatically."""

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")

    def resolved_profiles(self) -> list[WorkerProfile]:
        """The crew's profiles, defaulting to the representative five."""
        if self.profiles is not None:
            profiles = list(self.profiles)
        else:
            profiles = representative_crew(self.seed)
        if len(profiles) < self.num_workers:
            rng = random.Random(self.seed ^ 0x5EED)
            while len(profiles) < self.num_workers:
                profiles.append(
                    WorkerProfile(
                        knowledge_fraction=rng.uniform(0.35, 0.7),
                        speed=rng.uniform(0.6, 1.4),
                        vote_affinity=rng.uniform(0.2, 0.7),
                        start_delay=rng.uniform(0, 60),
                    )
                )
        return profiles[: self.num_workers]

    def resolved_policy_kinds(self) -> list[PolicyKind]:
        kinds = list(self.policy_kinds or ())
        while len(kinds) < self.num_workers:
            kinds.append("diligent")
        return kinds[: self.num_workers]


@dataclass
class WorkerOutcome:
    """Per-worker facts gathered from one run."""

    worker_id: str
    profile: WorkerProfile
    actions: int
    fills: int
    upvotes: int
    downvotes: int
    conflicts: int


@dataclass
class ExperimentResult:
    """Everything the section 6 reports are computed from."""

    config: ExperimentConfig
    schema: Schema
    duration: float | None
    completed: bool
    candidate_records: list[dict[str, Any]]
    final_values: list[RowValue]
    final_row_ids: list[str]
    accuracy: float
    workers: list[WorkerOutcome]
    trace: list  # worker TraceRecords, server order
    analysis: ContributionAnalysis
    estimator: CompensationEstimator
    ground_truth: GroundTruth
    pri_inserts: int
    dropped_template_rows: int
    messages_sent: int
    obs: Any = None
    """The run's :class:`repro.obs.Observability` handle (the shared
    no-op when observability was not requested)."""
    leaderboard: Any = None
    """The final :class:`~repro.cdc.leaderboard.LeaderboardSnapshot` of
    the run's live leaderboard consumer (the CDC-derived standings the
    report's final-state sections render)."""
    cdc_events: list | None = field(default_factory=list)
    """The run's change stream (``capture_cdc=True`` only); ``None``
    when the export was lost because its stream's owner crashed (the
    events it buffered died with the process)."""
    fault_events: int = 0
    """Injector actions taken (``fault_plan`` runs only)."""
    _allocations: dict[AllocationScheme, AllocationResult] = field(
        default_factory=dict
    )

    def allocation(self, scheme: AllocationScheme) -> AllocationResult:
        """The budget allocation under *scheme* (cached)."""
        if scheme not in self._allocations:
            self._allocations[scheme] = allocate(
                self.schema,
                self.trace,
                self.analysis,
                self.config.budget,
                scheme,
            )
        return self._allocations[scheme]

    def worker_ids(self) -> list[str]:
        return [w.worker_id for w in self.workers]

    def final_table_records(self) -> list[dict[str, Any]]:
        """The collected final table as plain dicts."""
        return [dict(value) for value in self.final_values]

    @property
    def candidate_count(self) -> int:
        return len(self.candidate_records)

    def heavily_downvoted_rows(self, threshold: int = 2) -> int:
        """Candidate rows downvoted *threshold* times or more (section
        6's "two rows were downvoted twice or more")."""
        return sum(
            1
            for record in self.candidate_records
            if record["downvotes"] >= threshold
        )


class CrowdFillExperiment:
    """Assembles and runs one collection (the representative-run rig).

    Args:
        config: the run's configuration (paper defaults when omitted).
        obs: forwarded to :class:`repro.session.CollectionSession` —
            pass ``True`` (or an :class:`repro.obs.Observability`) to
            collect metrics, traces, and periodic snapshots; the handle
            is returned on the result's ``obs`` field.
    """

    def __init__(
        self, config: ExperimentConfig | None = None, obs: Any = None
    ) -> None:
        self.config = config or ExperimentConfig()
        self.obs = obs
        self.session: CollectionSession | None = None

    def run(self) -> ExperimentResult:
        """Execute the run to completion (or the simulated-time cap)."""
        config = self.config
        schema, full_truth, truth_band = resolve_domain(config)
        scoring: ScoringFunction = ThresholdScoring(config.min_votes)

        if config.predicates_template is not None:
            template = Template.from_predicates(
                list(config.predicates_template),
                cardinality=config.target_rows,
            )
        elif config.template_values is not None:
            template = Template.from_values(
                list(config.template_values), cardinality=config.target_rows
            )
        else:
            template = Template.cardinality(config.target_rows)

        plan = config.fault_plan
        durability = None
        if plan is not None and plan.crashes:
            from repro.durability import DurabilityConfig

            durability = DurabilityConfig()
        if plan is not None and plan.crashes and config.shards is None:
            raise FaultPlanError("crash windows need a sharded backend: set shards=N")

        session = CollectionSession(
            seed=config.seed,
            schema=schema,
            scoring=scoring,
            template=template,
            latency=UniformLatency(config.latency_low, config.latency_high),
            obs=self.obs,
            shards=config.shards,
            durability=durability,
        )
        self.session = session
        estimator = session.attach_estimator(
            config.budget, scheme=config.estimator_scheme
        )

        profiles = config.resolved_profiles()
        kinds = config.resolved_policy_kinds()
        recommender = (
            CellRecommender(session.backend) if config.use_recommender else None
        )

        def policy_factory(index: int) -> Any:
            def build(worker_id: str) -> Any:
                policy = self._make_policy(
                    kinds[index],
                    truth_band,
                    profiles[index],
                    session.streams,
                    worker_id,
                )
                if recommender is not None and isinstance(
                    policy, DiligentPolicy
                ):
                    policy = GuidedPolicy(policy, recommender, worker_id)
                return policy

            return build

        specs = [
            WorkerSpec(
                worker_id=f"worker-{index}",
                policy=policy_factory(index),
                profile=profiles[index],
                vote_cap=config.vote_cap,
            )
            for index in range(config.num_workers)
        ]
        # CDC consumers attach before the run starts, so their streams
        # cover the whole collection.  Neither perturbs the simulation:
        # subscriptions are in-process (no network channels, no entropy).
        board = session.leaderboard()
        export = (
            session.subscribe("cdc-export") if config.capture_cdc else None
        )
        session.recruit(
            specs,
            mean_interarrival=config.mean_interarrival,
            description="collect soccer players with 80-99 caps",
        )
        injector = None
        if plan is not None and not plan.is_empty:
            from repro.net import FaultInjector

            injector = FaultInjector(session.sim, session.network, plan)
            # Harness workers are built at marketplace-arrival time; the
            # backend's handlers look each client up when its window
            # fires.
            assert session.backend is not None
            session.backend.bind_faults(injector, clients=session.clients)
            injector.install()
        session.run(until=config.max_sim_time)
        if injector is not None:
            # Close any still-open window, then give the recovery
            # traffic a bounded settle window (an unbounded drain would
            # never return on a run that misses its completion target:
            # idle workers keep polling until the backend completes).
            injector.force_reconnect_all()
            session.run(until=session.sim.now + 60.0)

        backend = session.backend
        assert backend is not None
        final_rows = backend.final_rows()
        final_values = [row.value for row in final_rows]
        trace = backend.worker_trace()
        analysis = analyze_contributions(schema, final_rows, trace)
        outcomes = [
            WorkerOutcome(
                worker_id=w.worker_id,
                profile=w.profile,
                actions=w.log.actions,
                fills=w.log.fills,
                upvotes=w.log.upvotes,
                downvotes=w.log.downvotes,
                conflicts=w.log.conflicts,
            )
            for w in sorted(
                session.workers.values(), key=lambda w: w.worker_id
            )
        ]

        return ExperimentResult(
            config=config,
            schema=schema,
            duration=backend.completion_time,
            completed=backend.completed,
            candidate_records=backend.replica.table.to_records(),
            final_values=final_values,
            final_row_ids=[row.row_id for row in final_rows],
            accuracy=full_truth.accuracy_of(final_values),
            workers=outcomes,
            trace=trace,
            analysis=analysis,
            estimator=estimator,
            ground_truth=truth_band,
            pri_inserts=backend.central.stats.inserts,
            dropped_template_rows=len(backend.central.dropped_rows),
            messages_sent=session.network.stats.messages_sent,
            obs=session.obs,
            leaderboard=board.snapshot(),
            cdc_events=export.take() if export is not None else [],
            fault_events=len(injector.events) if injector is not None else 0,
        )

    def _make_policy(
        self,
        kind: PolicyKind,
        truth: GroundTruth,
        profile: WorkerProfile,
        streams: RngStreams,
        worker_id: str,
    ):
        return make_policy(kind, truth, profile, streams, worker_id)
