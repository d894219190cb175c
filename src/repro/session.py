"""The unified collection-session facade.

Every rig in this repository — the section 6 experiment harness, the
churn demo, the REST-lifecycle example, the quickstart — used to wire
the same seven components by hand: a :class:`~repro.sim.Simulator`,
named :class:`~repro.sim.RngStreams`, a :class:`~repro.net.Network`, a
:class:`~repro.marketplace.Marketplace`, the document store, the
front-end server, and a crew of simulated workers.
:class:`CollectionSession` owns that wiring once::

    session = CollectionSession(
        seed=7, schema=schema, scoring=ThresholdScoring(2), target_rows=20
    )
    session.add_workers(specs)     # attach now (t = 0), or
    session.recruit(specs)         # trickle in via the marketplace
    session.run(until=3600.0)

An ``obs`` handle (:mod:`repro.obs`) threads one observability object
through every component; pass ``obs=True`` to collect metrics, traces,
and periodic snapshots for the whole run.

Determinism contract: the session draws entropy exclusively from named
``RngStreams`` (``"network"``, ``"marketplace"``, ``"order-<id>"``,
``"behavior-<id>"``, ``"knowledge-<id>"``), and worker clients are
constructed *at arrival time* inside the marketplace accept callback —
a client's bootstrap consumes its row-order stream once per existing
row, so eager construction would silently change the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.client import WorkerClient
from repro.constraints.template import Template
from repro.core.schema import Schema
from repro.core.scoring import ScoringFunction
from repro.marketplace import Marketplace, Task
from repro.net import LatencyModel, Network
from repro.obs import NullObservability, Observability, SnapshotSampler, resolve
from repro.sim import RngStreams, Simulator
from repro.workers import ActionLatencies, SimulatedWorker, WorkerProfile
from repro.workers.policy import WorkerPolicy

if TYPE_CHECKING:
    from repro.cdc.events import Cut
    from repro.cdc.leaderboard import LeaderboardView
    from repro.cdc.subscription import Subscription
    from repro.docstore import Database
    from repro.durability import DurabilityConfig
    from repro.pay import AllocationScheme, CompensationEstimator
    from repro.server.backend import BackendServer, BootstrapState
    from repro.server.frontend import FrontendServer

PolicyFactory = Callable[[str], WorkerPolicy]


@dataclass
class WorkerSpec:
    """Everything needed to build one simulated worker.

    Args:
        worker_id: unique id — endpoint name, row prefix, payee.
        policy: a :class:`WorkerPolicy` instance, or a factory called
            with the worker id at construction time.  Use a factory when
            building the policy draws entropy (e.g. knowledge sampling),
            so the draw happens identically whether the worker attaches
            immediately or trickles in through the marketplace.
        profile: latency/engagement knobs.
        vote_cap: optional per-row vote cap for this worker's client.
        allow_modify: enable the section 8 "modify" action.
    """

    worker_id: str
    policy: WorkerPolicy | PolicyFactory
    profile: WorkerProfile
    vote_cap: int | None = None
    allow_modify: bool = False

    def build_policy(self) -> WorkerPolicy:
        if isinstance(self.policy, WorkerPolicy):
            return self.policy
        return self.policy(self.worker_id)


class CollectionSession:
    """Builder/facade owning one collection run's component graph.

    Eagerly constructed: simulator, entropy streams, network,
    marketplace, and — when *schema* is given — the back-end server.
    Lazily constructed on first access: the document store
    (:attr:`database`) and the front-end REST server (:attr:`frontend`),
    for rigs that drive collection through the application API instead
    of a pre-built backend.

    Args:
        seed: master seed for all named entropy streams.
        schema / scoring: the collection's configuration; both required
            to build the backend (omit both to wire only the substrate,
            e.g. for :attr:`frontend`-driven runs).
        template: constraint template; defaults to a cardinality
            template of *target_rows* when only that is given.
        target_rows: shorthand for ``Template.cardinality(target_rows)``.
        latency: network latency model (default: the network's).
        obs: ``True`` to create an enabled :class:`repro.obs.Observability`,
            an instance to share one, or ``None``/``False`` for the
            near-zero-cost no-op.
        oplog_capacity / on_complete: forwarded to the back-end server.
        shards: ``None`` (default) builds the classic single
            :class:`~repro.server.backend.BackendServer`; an integer
            ``N >= 1`` builds a
            :class:`~repro.server.shard.ShardedBackend` partitioning
            the key space across N shards with decentralised commit
            (``shards=1`` is the degenerate sharded config, wire-
            identical to the plain server — the equivalence gate).
        snapshot_interval: sim-seconds between periodic observability
            snapshots (only taken when *obs* is enabled).
        durability: a :class:`~repro.durability.DurabilityConfig` to
            give every backend (shard) a write-ahead log + checkpoint
            store, the prerequisite for surviving
            :class:`~repro.net.ShardCrashWindow` faults (``None`` —
            the default — keeps state volatile, as before).
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        schema: Schema | None = None,
        scoring: ScoringFunction | None = None,
        template: Template | None = None,
        target_rows: int | None = None,
        latency: LatencyModel | None = None,
        obs: Observability | NullObservability | bool | None = None,
        oplog_capacity: int = 512,
        on_complete: Callable[[], None] | None = None,
        snapshot_interval: float = 60.0,
        db_name: str = "crowdfill",
        shards: int | None = None,
        durability: "DurabilityConfig | None" = None,
    ) -> None:
        self.seed = seed
        self.streams = RngStreams(seed)
        self.obs = resolve(obs)
        self.sim = Simulator(obs=self.obs)
        self.obs.bind_clock(lambda: self.sim.now)
        self.network = Network(
            self.sim,
            default_latency=latency,
            streams=self.streams,
            obs=self.obs,
        )
        self.marketplace = Marketplace(
            self.sim, streams=self.streams, obs=self.obs
        )
        self.schema = schema
        self.scoring = scoring
        self.latencies = ActionLatencies()
        self.clients: dict[str, WorkerClient] = {}
        self.workers: dict[str, SimulatedWorker] = {}
        self.estimator: "CompensationEstimator | None" = None
        self.backend: "BackendServer | None" = None
        self._leaderboard: "LeaderboardView | None" = None
        self._db_name = db_name
        self._database: "Database | None" = None
        self._frontend: "FrontendServer | None" = None
        self._backend_started = False
        self._sampler: SnapshotSampler | None = None
        self._snapshot_interval = snapshot_interval

        if template is None and target_rows is not None:
            template = Template.cardinality(target_rows)
        self.template = template
        if schema is not None:
            if scoring is None:
                raise ValueError("schema without scoring: pass scoring=...")
            if template is None:
                raise ValueError(
                    "schema without constraints: pass template= or"
                    " target_rows=..."
                )
            if shards is None:
                from repro.server.backend import BackendServer

                self.backend = BackendServer(
                    self.sim,
                    self.network,
                    schema,
                    scoring,
                    template,
                    on_complete=on_complete,
                    oplog_capacity=oplog_capacity,
                    durability=durability,
                )
            else:
                from repro.server.shard import ShardedBackend

                self.backend = ShardedBackend(
                    self.sim,
                    self.network,
                    schema,
                    scoring,
                    template,
                    shards=shards,
                    on_complete=on_complete,
                    oplog_capacity=oplog_capacity,
                    durability=durability,
                )
        self.shards = shards
        self.durability = durability

    # -- lazy application-level components ----------------------------

    @property
    def database(self) -> "Database":
        """The document store (MongoDB substitute), created on first use."""
        if self._database is None:
            from repro.docstore import Database

            self._database = Database(self._db_name)
        return self._database

    @property
    def frontend(self) -> "FrontendServer":
        """The application-facing REST front-end, created on first use."""
        if self._frontend is None:
            from repro.server.frontend import FrontendServer

            self._frontend = FrontendServer(self.database)
        return self._frontend

    # -- compensation -------------------------------------------------

    def attach_estimator(
        self,
        budget: float,
        scheme: "AllocationScheme | None" = None,
        default_weight: float = 8.0,
    ) -> "CompensationEstimator":
        """Stream live compensation estimates off the server trace."""
        backend = self._require_backend("attach_estimator")
        from repro.pay import AllocationScheme, CompensationEstimator

        assert self.schema is not None and self.scoring is not None
        assert self.template is not None
        self.estimator = CompensationEstimator(
            self.schema,
            self.template,
            self.scoring,
            budget,
            scheme=scheme or AllocationScheme.DUAL_WEIGHTED,
            default_weight=default_weight,
            obs=self.obs,
        )
        estimator = self.estimator
        backend.add_trace_listener(
            lambda record: estimator.on_record(record, backend.replica.table)
        )
        return estimator

    # -- change-data-capture ------------------------------------------

    def subscribe(
        self,
        name: str = "consumer",
        *,
        from_cut: "Cut | None" = None,
        capacity: int | None = None,
    ) -> "Subscription":
        """Attach a CDC consumer to the server's change stream — the
        public way to observe collection as it happens (see
        :mod:`repro.cdc`).  On a sharded session this is the primary's
        stream, which carries every committed operation."""
        backend = self._require_backend("subscribe")
        return backend.subscribe(name, from_cut=from_cut, capacity=capacity)

    def snapshot_cut(self) -> "tuple[BootstrapState, Cut]":
        """An atomic ``(state, cut)`` capture of the master replica and
        the change-stream position it corresponds to."""
        backend = self._require_backend("snapshot_cut")
        return backend.snapshot_cut()

    def leaderboard(self, downvote_threshold: int = 2) -> "LeaderboardView":
        """The live contribution leaderboard (one per session, created
        on first call).  Attach before :meth:`run` to cover the whole
        run; a mid-run attach snapshot-loads row state and tallies the
        tail only."""
        if self._leaderboard is None:
            from repro.cdc.leaderboard import LeaderboardView

            self._require_backend("leaderboard")
            self._leaderboard = LeaderboardView(
                self.subscribe("leaderboard"),
                downvote_threshold=downvote_threshold,
            )
            if self._sampler is not None:
                board = self._leaderboard
                self._sampler.add_source("leaderboard", board.sample)
        return self._leaderboard

    # -- workers ------------------------------------------------------

    def add_worker(self, spec: WorkerSpec) -> SimulatedWorker:
        """Build, attach, and start one worker right now (at ``sim.now``)."""
        worker = self._build_worker(spec)
        worker.start()
        return worker

    def add_workers(self, specs: list[WorkerSpec]) -> "CollectionSession":
        """Attach a whole crew immediately; chainable."""
        for spec in specs:
            self.add_worker(spec)
        return self

    def recruit(
        self,
        specs: list[WorkerSpec],
        mean_interarrival: float = 15.0,
        first_at: float = 0.0,
        title: str | None = None,
        description: str = "",
        base_reward: float = 0.0,
    ) -> Task:
        """Post a marketplace task; workers trickle in and self-attach.

        Clients are constructed inside the accept callback, at each
        worker's arrival time — required for determinism (see module
        docstring) and for bootstrap snapshots to reflect the table at
        arrival.
        """
        backend = self._require_backend("recruit")
        assert self.schema is not None
        by_id = {spec.worker_id: spec for spec in specs}
        if len(by_id) != len(specs):
            raise ValueError("duplicate worker ids in recruit specs")

        def accept(worker_id: str) -> None:
            worker = self._build_worker(by_id[worker_id])
            worker.start()

        task = self.marketplace.post_task(
            title=title or f"Fill in the {self.schema.name} table",
            description=description,
            base_reward=base_reward,
            max_assignments=len(specs),
            on_accept=accept,
        )
        self.marketplace.schedule_arrivals(
            task.task_id,
            [spec.worker_id for spec in specs],
            mean_interarrival=mean_interarrival,
            first_at=first_at,
        )
        return task

    def _build_worker(self, spec: WorkerSpec) -> SimulatedWorker:
        backend = self._require_backend("building workers")
        assert self.schema is not None and self.scoring is not None
        client = WorkerClient(
            spec.worker_id,
            self.schema,
            self.scoring,
            self.network,
            streams=self.streams,
            vote_cap=spec.vote_cap,
            allow_modify=spec.allow_modify,
        )
        client.bootstrap(backend.attach_client(spec.worker_id))
        worker = SimulatedWorker(
            client,
            spec.build_policy(),
            spec.profile,
            self.sim,
            streams=self.streams,
            latencies=self.latencies,
            is_done=lambda: backend.completed,
        )
        self.clients[spec.worker_id] = client
        self.workers[spec.worker_id] = worker
        return worker

    # -- running ------------------------------------------------------

    def run(self, until: float | None = None) -> "CollectionSession":
        """Start the backend (once), arm snapshots, run the simulator."""
        if self.backend is not None and not self._backend_started:
            self._backend_started = True
            self.backend.start()
        if self.obs.enabled and self._sampler is None:
            self._sampler = self._build_sampler()
            self._sampler.start()
        self.sim.run(until=until)
        return self

    def drain(self) -> "CollectionSession":
        """Run the simulator until the event queue empties."""
        self.sim.run()
        return self

    def _build_sampler(self) -> SnapshotSampler:
        sampler = SnapshotSampler(
            self.obs, self.sim, interval=self._snapshot_interval
        )
        sampler.add_source("pending_events", lambda: self.sim.pending_events)
        sampler.add_source("in_flight", lambda: self.network.stats.in_flight)
        sampler.add_source(
            "messages_sent", lambda: self.network.stats.messages_sent
        )
        sampler.add_source(
            "total_paid", lambda: self.marketplace.ledger.total()
        )
        backend = self.backend
        if backend is not None:
            table = backend.replica.table
            sampler.add_source("candidate_rows", lambda: len(table))
            sampler.add_source(
                "probable_rows", lambda: len(table.probable_rows())
            )
            sampler.add_source(
                "final_rows", lambda: len(backend.final_rows())
            )
            sampler.add_source("completed", lambda: backend.completed)
        sampler.add_source(
            "estimated_payout",
            lambda: (
                self.estimator.estimated_totals() if self.estimator else {}
            ),
        )
        if self._leaderboard is not None:
            sampler.add_source("leaderboard", self._leaderboard.sample)
        return sampler

    def _require_backend(self, what: str) -> "BackendServer":
        if self.backend is None:
            raise RuntimeError(
                f"{what} needs a back-end server: construct the session"
                " with schema=, scoring=, and template=/target_rows="
            )
        return self.backend
