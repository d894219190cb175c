"""The benchmark's workloads: one job each, set up, run, then checked.

A job builds everything from its seed (set-up), runs the measured
phase, and checks the outputs.  :class:`Probe` marks the measured
phase: it times it and each server drain the simulator dispatches, and
in a traced job it installs the :class:`~layers.LayerTrace` for exactly
that phase.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.cdc.leaderboard import LeaderboardView
from repro.cdc.view import CdcView, canonical_state
from repro.constraints.central import CENTRAL_CLIENT_ID
from repro.constraints.template import Template
from repro.core.schema import soccer_player_schema
from repro.core.scoring import ThresholdScoring
from repro.durability import DurabilityConfig
from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig
from repro.net import ConstantLatency, FaultInjector, FaultPlan, Network, ShardCrashWindow
from repro.obs import NULL_OBS, Observability, dump_json
from repro.server.backend import SERVER_NAME, BackendServer, BootstrapState
from repro.server.shard import ShardedBackend, ShardServer
from repro.session import CollectionSession
from repro.sim import RngStreams, Simulator

import hostspeed
import stream as op_stream
from layers import LayerTrace
from spans import Patcher

CROWD_WORKERS = 20
CROWD_ROWS = 60
#: Crowd-session jobs cycle over this many collection seeds derived from
#: the run's seed, so that one run's figures are not one collection's
#: quirks; a run averages over each whole panel of them.
CROWD_PANEL = 5
LIVE_OPS = 20000
SHARDED_OPS = 6000
SHARDS = 4
#: Simulated seconds between CDC consumer refreshes.
CONSUME_EVERY = 2.0


@dataclass
class Job:
    """What one job measured and found."""

    setup_s: float = 0.0
    run_s: float = 0.0
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    drains_s: list[float] = field(default_factory=list)
    fingerprint: str = ""
    errors: list[str] = field(default_factory=list)
    layers: dict[str, float] | None = None
    host_samples: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)


class Probe:
    """Times the measured phase of one job and the drains inside it.

    An untraced job also samples the host-speed probe every
    :data:`~hostspeed.GAP_S` of wall time from a simulator event that
    fires every simulated second, so the samples cover the measured
    phase evenly; the probe's own time is taken out of ``run_s``.
    """

    def __init__(self, server_class: type, traced: bool) -> None:
        self.server_class = server_class
        self.trace = LayerTrace(server_class) if traced else None
        self.patcher = Patcher()
        self.drains: list[float] = []
        self.samples: list[float] = []
        self.probe_s = 0.0
        self.start = self.stop = 0.0
        self.ctx: dict[str, Any] = {}

    def begin(self, ctx: dict[str, Any]) -> None:
        self.ctx = ctx
        if self.trace is not None:
            self.trace.install(ctx)
        else:
            self.patcher.patch(self.server_class, "_drain", self._timed)
            self._sample_host(ctx["sim"])
        self.start = time.perf_counter()

    def _sample_host(self, sim: Simulator) -> None:
        clock = time.perf_counter
        last = [clock() - hostspeed.GAP_S]  # sample at the first tick

        def tick() -> None:
            t0 = clock()
            if t0 - last[0] >= hostspeed.GAP_S:
                hostspeed.sample(self.samples)
                last[0] = clock()
                self.probe_s += last[0] - t0
            if sim.pending_events:
                sim.schedule(1.0, tick)

        sim.schedule(1.0, tick)

    def end(self) -> None:
        self.stop = time.perf_counter()
        self.patcher.restore()
        if self.trace is not None:
            self.trace.remove()
            self.drains = self.trace.rec.durations("server.drain")

    def _timed(self, fn: Any) -> Any:
        clock, drains = time.perf_counter, self.drains

        def drain(server: Any) -> None:
            t0 = clock()
            try:
                fn(server)
            finally:
                drains.append(clock() - t0)

        return drain

    def finish(self, job: Job) -> Job:
        job.run_s = self.stop - self.start - self.probe_s
        job.drains_s = self.drains
        job.host_samples = self.samples
        if self.trace is not None:
            job.layers = self.trace.metrics(self.ctx, job.run_s)
            job.errors.extend(self.trace.mismatches)
        return job


def fingerprint(*parts: Any) -> str:
    return hashlib.sha256(dump_json(list(parts)).encode()).hexdigest()[:16]


def canonical(replica: Any) -> dict[str, Any]:
    return canonical_state(BootstrapState.capture(replica))


# -- crowd-session ---------------------------------------------------------


def panel(workload: str, seed: int) -> list[int]:
    """The job seeds of one pass over *workload* for the run seed *seed*.

    ``crowd-session`` cycles over :data:`CROWD_PANEL` collection seeds;
    the ingest workloads run the same stream every job.
    """
    if workload == "crowd-session":
        return [seed * CROWD_PANEL + index for index in range(CROWD_PANEL)]
    return [seed]


def crowd_session(seed: int, traced: bool) -> Job:
    """One full section 6 style collection: soccer domain, classic
    server, 20 diligent workers recruited through the marketplace, a
    60-row cardinality target, estimator and leaderboard attached."""
    job = Job()
    probe = Probe(BackendServer, traced)
    config = ExperimentConfig(
        seed=seed, num_workers=CROWD_WORKERS, target_rows=CROWD_ROWS
    )
    experiment = CrowdFillExperiment(config)
    boundary = Patcher()
    began = []
    final_at_completion = []

    def make_run(fn: Any) -> Any:
        def run(session: CollectionSession, *args: Any, **kwargs: Any) -> Any:
            if not began:
                began.append(time.perf_counter())
                backend = session.backend
                backend.on_complete = lambda: final_at_completion.append(
                    len(backend.final_rows())
                )
                probe.begin({
                    "sim": session.sim,
                    "network": session.network,
                    "backend": session.backend,
                    "obs": session.obs,
                    "clients": session.clients,
                    "workers": session.workers,
                    "estimator": session.estimator,
                    "views": (session.leaderboard().view,),
                })
            return fn(session, *args, **kwargs)

        return run

    boundary.patch(CollectionSession, "run", make_run)
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = experiment.run()
    finally:
        boundary.restore()
        if began:
            probe.end()
    job.setup_s = began[0] - t0
    probe.finish(job)

    session = experiment.session
    backend = session.backend
    network = session.network
    # Operations in flight at completion still commit afterwards, so the
    # final table can end up larger than it was at the completion instant.
    job.check(
        result.completed and final_at_completion == [CROWD_ROWS],
        f"final rows at completion {final_at_completion}, expected {CROWD_ROWS}",
    )
    job.check(
        len(result.final_values) >= CROWD_ROWS,
        f"{len(result.final_values)} final rows, fewer than {CROWD_ROWS}",
    )
    _check_network(job, network)
    master = canonical(backend.replica)
    for name, client in sorted(session.clients.items()):
        job.check(
            canonical(client.replica) == master,
            f"client {name} replica differs from the server replica",
        )
    committed = Counter(record.worker_id for record in backend.trace)
    for name in session.clients:
        sent = network.stats.per_link_sent.get((name, SERVER_NAME), 0)
        job.attempted += sent
        job.failed += abs(sent - committed[name])
    job.ops = len(backend.trace)
    job.fingerprint = fingerprint(
        master, [record.to_dict() for record in backend.trace]
    )
    return job


# -- ingest workloads ------------------------------------------------------


class Sink:
    """A wire-faithful client endpoint without a replica: it counts what
    the server broadcasts to it."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def on_message(self, source: str, payload: Any) -> None:
        self.received += 1


def _ingest_rig(
    seed: int, ops: int, obs: Any, shards: int | None
) -> tuple[op_stream.OpStream, Simulator, Network, Any, dict[str, Sink]]:
    """Stream, simulator, network, started backend and attached sinks."""
    ops_stream = op_stream.generate(seed, ops)
    sim = Simulator(obs=obs)
    obs.bind_clock(lambda: sim.now)
    network = Network(
        sim,
        default_latency=ConstantLatency(0.05),
        streams=RngStreams(seed),
        obs=obs,
    )
    schema = soccer_player_schema()
    template = Template.from_values(list(op_stream.PINNED_TARGETS))
    if shards is None:
        backend: Any = BackendServer(
            sim, network, schema, ThresholdScoring(2), template
        )
    else:
        backend = ShardedBackend(
            sim,
            network,
            schema,
            ThresholdScoring(2),
            template,
            shards=shards,
            obs=obs,
            durability=DurabilityConfig(),
        )
    sinks = {}
    for name in ops_stream.endpoints:
        sinks[name] = Sink()
        network.register(name, sinks[name])
        backend.attach_client(name)
    return ops_stream, sim, network, backend, sinks


def _schedule_stream(sim: Simulator, network: Network, ops: op_stream.OpStream) -> float:
    """Schedule every tick's sends; returns the simulated start time."""
    start = sim.now + 1.0
    for at, sends in ops.ticks:
        sim.schedule_at(
            start + at,
            lambda sends=sends: [
                network.send(source, SERVER_NAME, message)
                for source, message in sends
            ],
        )
    return start


def live_ingest(seed: int, traced: bool) -> Job:
    """A seeded op stream from 16 replica-free endpoints into a classic
    server that broadcasts every operation to all of them."""
    job = Job()
    probe = Probe(BackendServer, traced)
    gc.collect()
    t0 = time.perf_counter()
    ops, sim, network, backend, sinks = _ingest_rig(seed, LIVE_OPS, NULL_OBS, None)
    backend.start()
    sim.run()
    _schedule_stream(sim, network, ops)
    before = len(backend.trace)
    job.setup_s = time.perf_counter() - t0
    gc.collect()
    probe.begin({
        "sim": sim, "network": network, "backend": backend, "obs": NULL_OBS
    })
    try:
        sim.run()
    finally:
        probe.end()
    probe.finish(job)

    job.ops = len(backend.trace) - before
    job.attempted = ops.ops
    expected = ops.by_endpoint()
    committed: dict[str, list] = {name: [] for name in expected}
    for record in backend.trace[before:]:
        if record.worker_id != CENTRAL_CLIENT_ID:
            committed[record.worker_id].append(record.message)
    for name, messages in expected.items():
        if committed[name] != messages:
            job.failed += _mismatch(committed[name], messages)
    job.check(job.failed == 0, f"{job.failed} ops not committed exactly once")
    own = Counter(record.worker_id for record in backend.trace)
    for name, sink in sinks.items():
        fan_out = len(backend.trace) - own[name]
        job.check(
            sink.received == fan_out,
            f"sink {name} received {sink.received}, fan-out is {fan_out}",
        )
    _check_network(job, network)
    job.fingerprint = fingerprint(
        canonical(backend.replica),
        [record.to_dict() for record in backend.trace],
    )
    return job


def sharded_durable(seed: int, traced: bool) -> Job:
    """The same kind of stream into four durable shards with
    observability on, a CDC view and a leaderboard consuming the change
    stream, and one seeded crash of the primary shard mid-stream."""
    job = Job()
    probe = Probe(ShardServer, traced)
    gc.collect()
    t0 = time.perf_counter()
    obs = Observability()
    ops, sim, network, backend, sinks = _ingest_rig(seed, SHARDED_OPS, obs, SHARDS)
    view = CdcView(backend.subscribe("bench-view"))
    board = LeaderboardView(backend.subscribe("bench-leaderboard"))
    backend.start()
    sim.run()
    start = _schedule_stream(sim, network, ops)
    rng = random.Random(seed ^ 0xC0FFEE)
    crash_at = start + ops.horizon * rng.uniform(0.3, 0.5)
    restart_at = crash_at + ops.horizon * rng.uniform(0.1, 0.2)
    victim = backend.primary
    injector = FaultInjector(
        sim,
        network,
        FaultPlan(crashes=(ShardCrashWindow(victim.endpoint, crash_at, restart_at),)),
    )
    backend.bind_faults(injector)
    injector.install()

    def consume() -> None:
        # A consumer cannot reach a crashed server; resyncing against it
        # would load its wiped replica.
        if not victim.crashed:
            view.refresh()
            board.refresh()

    at = start
    while at < start + ops.horizon + CONSUME_EVERY:
        at += CONSUME_EVERY
        sim.schedule_at(at, consume)
    before = sum(len(shard.commit_log) for shard in backend.shards)
    job.setup_s = time.perf_counter() - t0
    gc.collect()
    probe.begin({
        "sim": sim,
        "network": network,
        "backend": backend,
        "obs": obs,
        "views": (view, board.view),
    })
    try:
        sim.run()
        consume()
    finally:
        probe.end()
    probe.finish(job)

    committed = backend.committed_trace()
    job.ops = len(committed) - before
    job.attempted = ops.ops
    expected = Counter(
        (source, message)
        for _, sends in ops.ticks
        for source, message in sends
    )
    got = Counter(
        (commit.worker_id, message)
        for commit, message in committed
        if commit.worker_id != CENTRAL_CLIENT_ID
    )
    job.failed = sum(((expected - got) + (got - expected)).values())
    job.check(job.failed == 0, f"{job.failed} ops not committed exactly once")
    job.check(backend.fully_exchanged(), "shards not fully exchanged")
    primary = canonical(backend.primary.replica)
    for shard in backend.shards[1:]:
        job.check(
            canonical(shard.replica) == primary,
            f"{shard.endpoint} state differs from the primary's",
        )
    job.check(
        victim.durable.recoveries == 1,
        f"crashed shard recovered {victim.durable.recoveries} times",
    )
    for consumer in (view, board.view):
        job.check(
            canonical_state(consumer.state()) == primary,
            f"CDC consumer {consumer.label} differs from the final state",
        )
    _check_network(job, network)
    job.fingerprint = fingerprint(
        primary,
        [
            [commit.shard_id, commit.lseq, commit.worker_id, commit.timestamp,
             message.to_dict()]
            for commit, message in committed
        ],
    )
    return job


def _mismatch(got: list, want: list) -> int:
    """Ops of one endpoint not committed exactly once, in order."""
    extra = Counter(got) - Counter(want)
    missing = Counter(want) - Counter(got)
    return max(1, sum(extra.values()) + sum(missing.values()))


def _check_network(job: Job, network: Network) -> None:
    job.check(network.quiescent(), "messages still in flight after the run")
    try:
        network.check_accounting()
    except AssertionError as exc:
        job.errors.append(str(exc))


WORKLOADS = {
    "crowd-session": crowd_session,
    "live-ingest": live_ingest,
    "sharded-durable": sharded_durable,
}
