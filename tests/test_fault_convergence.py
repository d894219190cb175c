"""Convergence-under-faults property suite.

The convergence theorem (paper section 2.4.2) assumes reliable in-order
delivery.  These tests drive the *full* production assembly — back-end
server with sessions and bounded op-log, worker clients with offline
buffering — through random operation schedules overlaid with random
seeded :class:`FaultPlan`s (disconnect/rejoin windows, partitions,
latency spikes), and assert that once every fault heals and the network
quiesces:

- every client's copy is identical to the master (rows, vote counts,
  and vote histories);
- the trace replayed from scratch reproduces the master exactly;
- the incrementally-maintained probable and final views still match
  their from-scratch oracles;
- the Central Client's probable-row invariant (PRI) holds.

Run the heavy cases with ``-m slow`` deselected locally if needed:
``pytest -m 'not slow'``.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import Template
from repro.constraints.probable import (
    probable_rows,
    probable_rows_from_scratch,
)
from repro.client import WorkerClient
from repro.core import Column, DataType, OperationError, Schema, SchemaError
from repro.core.scoring import ThresholdScoring
from repro.net import FaultInjector, FaultPlan, Network, PartitionWindow
from repro.net import UniformLatency
from repro.server.backend import BackendServer
from repro.server.shard import ShardedBackend, shard_endpoint
from repro.server.tracelog import replay_trace, trace_to_dicts
from repro.sim import RngStreams, Simulator
from repro.sim.rng import RngStreams

SCHEMA = Schema(
    name="Mini",
    columns=(
        Column("k", DataType.STRING),
        Column("a", DataType.INT),
        Column("b", DataType.STRING),
    ),
    primary_key=("k",),
)

VALUE_POOLS = {"k": ["x", "y", "z"], "a": [1, 2, 3], "b": ["p", "q"]}
SCORING = ThresholdScoring(2)
HORIZON = 10.0


def _perform(client: WorkerClient, op_kind, row_pick, column_pick, value_pick):
    """Attempt one random worker action; skipped when preconditions or
    interface vote policies reject it (as the UI would)."""
    try:
        row_ids = client.replica.table.row_ids()
        if not row_ids:
            return
        row_id = row_ids[row_pick % len(row_ids)]
        if op_kind == "fill":
            column = SCHEMA.column_names[column_pick % len(SCHEMA.column_names)]
            pool = VALUE_POOLS[column]
            client.fill(row_id, column, pool[value_pick % len(pool)])
        elif op_kind == "upvote":
            client.upvote(row_id)
        else:
            client.downvote(row_id)
    except (OperationError, SchemaError):
        return


def _run_faulty_schedule(
    num_clients: int,
    schedule,
    fault_seed: int,
    latency_seed: int,
    oplog_capacity: int = 512,
    plan: FaultPlan | None = None,
    shards: int | None = None,
):
    """One full run: build the rig, overlay faults, drive ops, heal, drain.

    With ``shards=N`` the rig runs the sharded multi-backend instead of
    the plain server — the same properties must hold (the facade's
    primary shard plays the master's role in the assertions).
    """
    sim = Simulator()
    network = Network(
        sim,
        default_latency=UniformLatency(0.01, 1.5),
        streams=RngStreams(latency_seed),
    )
    if shards is None:
        backend = BackendServer(
            sim,
            network,
            SCHEMA,
            SCORING,
            Template.cardinality(2),
            oplog_capacity=oplog_capacity,
        )
    else:
        backend = ShardedBackend(
            sim,
            network,
            SCHEMA,
            SCORING,
            Template.cardinality(2),
            shards=shards,
            oplog_capacity=oplog_capacity,
        )
    names = [f"c{i}" for i in range(num_clients)]
    clients: dict[str, WorkerClient] = {}
    rng_streams = RngStreams(latency_seed)
    for name in names:
        # Stable per-name stream: builtin hash() of strings varies per
        # process (PYTHONHASHSEED), which crowdlint DET001 flags.
        client = WorkerClient(
            name, SCHEMA, SCORING, network, streams=rng_streams
        )
        client.bootstrap(backend.attach_client(name))
        clients[name] = client

    if plan is None:
        plan = FaultPlan.generate(
            random.Random(fault_seed),
            names,
            horizon=HORIZON,
            outage_prob=0.6,
            min_outage=0.5,
            max_outage=6.0,
            shard_groups=(
                tuple((shard_endpoint(k),) for k in range(shards))
                if shards is not None and shards > 1
                else None
            ),
        )
    injector = FaultInjector(sim, network, plan)
    backend.bind_faults(injector, clients=clients)
    injector.install()
    backend.start()

    for at, client_pick, op_kind, row_pick, column_pick, value_pick in schedule:
        client = clients[names[client_pick % num_clients]]
        sim.schedule_at(
            at,
            lambda c=client, k=op_kind, r=row_pick, col=column_pick,
            v=value_pick: _perform(c, k, r, col, v),
        )
    sim.run()
    injector.force_reconnect_all()
    sim.run()
    assert network.quiescent()
    network.check_accounting()
    # Each attached client's session derives its sent count from the
    # trace; it must equal what the client itself counted in.
    for name, client in clients.items():
        session = backend.session(name)
        if session is not None and session.attached:
            assert session.sent_count == client.messages_received
    return backend, clients, injector


def _assert_converged_and_views_consistent(backend, clients):
    reference = backend.replica.snapshot()
    reference_history = backend.replica.table.history_snapshot()
    for client in clients.values():
        assert client.replica.snapshot() == reference
        assert client.replica.table.history_snapshot() == reference_history
        client.replica.table.check_vote_invariants()
    backend.replica.table.check_vote_invariants()
    # PRI survived the churn (the CC is colocated and lost nothing).
    assert backend.central.pri_holds()
    # Incremental views equal their from-scratch oracles, everywhere.
    for table in [backend.replica.table] + [
        c.replica.table for c in clients.values()
    ]:
        incremental = sorted(row.row_id for row in probable_rows(table))
        oracle = sorted(
            row.row_id for row in probable_rows_from_scratch(table)
        )
        assert incremental == oracle
    # The full trace replayed onto a fresh table reproduces the master:
    # rows, votes, histories, final table.
    replayed = replay_trace(SCHEMA, SCORING, backend.trace)
    assert replayed.snapshot() == reference
    assert replayed.history_snapshot() == reference_history
    assert sorted(r.row_id for r in replayed.final_rows()) == sorted(
        r.row_id for r in backend.replica.table.final_rows()
    )
    assert sorted(r.row_id for r in probable_rows_from_scratch(replayed)) == \
        sorted(r.row_id for r in probable_rows(backend.replica.table))


operation = st.tuples(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.integers(min_value=0, max_value=9),  # client pick
    st.sampled_from(["fill", "fill", "fill", "upvote", "downvote"]),
    st.integers(min_value=0, max_value=9),  # row pick
    st.integers(min_value=0, max_value=9),  # column pick
    st.integers(min_value=0, max_value=9),  # value pick
)


@pytest.mark.slow
@settings(max_examples=120, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=35),
    num_clients=st.integers(min_value=2, max_value=5),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=1_000),
)
def test_convergence_under_random_fault_plans(
    schedule, num_clients, fault_seed, latency_seed
):
    backend, clients, injector = _run_faulty_schedule(
        num_clients, sorted(schedule), fault_seed, latency_seed
    )
    _assert_converged_and_views_consistent(backend, clients)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(operation, min_size=5, max_size=30),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=200),
)
def test_convergence_with_tiny_oplog_forces_snapshot_resyncs(
    schedule, fault_seed, latency_seed
):
    """With a 4-entry op-log most rejoins must take the snapshot path —
    convergence may not depend on which path resync takes."""
    backend, clients, injector = _run_faulty_schedule(
        3, sorted(schedule), fault_seed, latency_seed, oplog_capacity=4
    )
    _assert_converged_and_views_consistent(backend, clients)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=25),
    start=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    length=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    latency_seed=st.integers(min_value=0, max_value=200),
)
def test_convergence_under_server_side_partition(
    schedule, start, length, latency_seed
):
    """A partition window cuts off several clients at once; after it
    heals everyone converges."""
    plan = FaultPlan(
        partitions=(
            PartitionWindow(("c0", "c2"), start=start, end=start + length),
        )
    )
    backend, clients, injector = _run_faulty_schedule(
        4, sorted(schedule), fault_seed=0, latency_seed=latency_seed, plan=plan
    )
    assert [e.kind for e in injector.events[:2]] == ["disconnect", "disconnect"]
    _assert_converged_and_views_consistent(backend, clients)


@pytest.mark.slow
@settings(max_examples=30, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=30),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=500),
)
def test_convergence_core_properties_hold_sharded(
    schedule, fault_seed, latency_seed
):
    """The suite's core convergence properties are not single-server
    artifacts: the same rig run against the sharded multi-backend
    (client churn plus randomly drawn shard-partition windows) upholds
    every one of them, with the primary shard as the master."""
    backend, clients, injector = _run_faulty_schedule(
        4, sorted(schedule), fault_seed, latency_seed, shards=2
    )
    assert backend.fully_exchanged()
    _assert_converged_and_views_consistent(backend, clients)
    for shard in backend.shards:
        assert shard.replica.snapshot() == backend.replica.snapshot()


# -- deterministic replay -----------------------------------------------------


def _trace_fingerprint(num_clients, schedule, fault_seed, latency_seed):
    backend, clients, injector = _run_faulty_schedule(
        num_clients, schedule, fault_seed, latency_seed, oplog_capacity=16
    )
    trace_json = json.dumps(trace_to_dicts(backend.trace), sort_keys=True)
    events = [(e.time, e.kind, e.endpoint, e.purged) for e in injector.events]
    return trace_json, events


def test_deterministic_replay_same_seed_same_fault_plan():
    """The DES's seedable-interleaving promise survives fault injection:
    two runs of one seed + one FaultPlan yield byte-identical traces and
    identical fault-event logs."""
    schedule = sorted(
        (round(0.37 * i % 7.9, 3), i, ["fill", "fill", "upvote", "downvote"][i % 4],
         i * 3, i, i * 7)
        for i in range(25)
    )
    first = _trace_fingerprint(4, schedule, fault_seed=11, latency_seed=5)
    second = _trace_fingerprint(4, schedule, fault_seed=11, latency_seed=5)
    assert first[0] == second[0]  # byte-identical serialized trace
    assert first[1] == second[1]  # identical fault schedule execution
    # A different fault seed genuinely changes the run (the plan is a
    # real variable, not dead configuration).
    third = _trace_fingerprint(4, schedule, fault_seed=12, latency_seed=5)
    assert first[1] != third[1]
