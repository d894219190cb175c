"""Cross-shard convergence property suite for the sharded backend.

The sharded multi-backend (:mod:`repro.server.shard`) has no global
sequencer: each shard commits the operations it owns unilaterally and
propagates them to its peers via batched, delta-compressed asymmetric
broadcasts.  These tests drive the *full* sharded assembly — N shard
servers behind the shard-oblivious router, worker clients with offline
buffering, seeded fault plans including shard-partition windows — and
assert that once every fault heals and the network quiesces:

- every shard replica and every client copy is identical to the
  primary's (rows, vote counts, vote histories);
- the globally-merged committed trace, replayed from scratch on a
  fresh single table (the single-backend oracle), reproduces the
  primary exactly — and so does an *alternate* linear extension of the
  per-shard commit logs, witnessing the order-independence the
  decentralised commit relies on;
- the Central Client's probable-row invariant holds at the primary;
- the network's per-link conservation law balances (sent = delivered +
  dropped + in flight on every link, including shard-to-shard links).

The ``shards=1`` equivalence gate pins the degenerate sharded
configuration to the plain :class:`BackendServer`: byte-identical
broadcast streams and identical end states on the same schedule, and an
identical seed-7 harness run — so the sharded code path cannot drift
from the single-server semantics the rest of the suite proves.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import WorkerClient
from repro.constraints import Template
from repro.constraints.probable import (
    probable_rows,
    probable_rows_from_scratch,
)
from repro.core import (
    Column,
    DataType,
    OperationError,
    RowValue,
    Schema,
    SchemaError,
)
from repro.core.messages import InsertMessage, ReplaceMessage, TraceRecord
from repro.core.scoring import ThresholdScoring
from repro.net import (
    ConstantLatency,
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    Network,
    ShardPartitionWindow,
    UniformLatency,
)
from repro.obs import Observability
from repro.server import BackendServer, ShardedBackend, ShardExchangeError
from repro.server.shard import (
    decode_exchange,
    encode_exchange,
    shard_endpoint,
)
from repro.server.tracelog import replay_trace, trace_to_dicts
from repro.sim import RngStreams, Simulator

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


def _shard_groups(n_shards: int) -> tuple[tuple[str, ...], ...]:
    """Each shard in its own group: partitions cut every exchange link."""
    return tuple((shard_endpoint(k),) for k in range(n_shards))


def _run_sharded_schedule(
    n_shards: int,
    num_clients: int,
    schedule,
    fault_seed: int,
    latency_seed: int,
    oplog_capacity: int = 512,
    plan: FaultPlan | None = None,
    latency=None,
    names: list[str] | None = None,
):
    """One full run: sharded rig, faults overlaid, ops driven, healed,
    drained to quiescence."""
    sim = Simulator()
    network = Network(
        sim,
        default_latency=latency or UniformLatency(0.01, 1.5),
        streams=RngStreams(latency_seed),
        obs=Observability(),
    )
    backend = ShardedBackend(
        sim,
        network,
        SCHEMA,
        SCORING,
        Template.cardinality(2),
        shards=n_shards,
        oplog_capacity=oplog_capacity,
    )
    if names is None:
        names = [f"c{i}" for i in range(num_clients)]
    clients: dict[str, WorkerClient] = {}
    rng_streams = RngStreams(latency_seed)
    for name in names:
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
            outage_prob=0.5,
            min_outage=0.5,
            max_outage=6.0,
            shard_groups=_shard_groups(n_shards) if n_shards > 1 else None,
            shard_partition_prob=0.6,
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
    return backend, clients, injector, network


def _committed_records(committed, order_key=None):
    entries = committed if order_key is None else sorted(committed, key=order_key)
    return [
        TraceRecord(
            seq=index,
            timestamp=commit.timestamp,
            worker_id=commit.worker_id,
            message=message,
        )
        for index, (commit, message) in enumerate(entries)
    ]


def _assert_sharded_convergence(backend, clients, network):
    # Exchange drained completely: every shard offered its whole log to
    # every peer, and every peer applied it.
    assert backend.exchange_backlog() == 0
    assert backend.fully_exchanged()

    reference = backend.primary.replica.snapshot()
    reference_history = backend.primary.replica.table.history_snapshot()
    replicas = [shard.replica for shard in backend.shards] + [
        client.replica for client in clients.values()
    ]
    for replica in replicas:
        assert replica.snapshot() == reference
        assert replica.table.history_snapshot() == reference_history
        replica.table.check_vote_invariants()
    # PRI survived at the primary (the CC's host).
    assert backend.central.pri_holds()
    # Incremental probable views equal their from-scratch oracles.
    for replica in replicas:
        incremental = sorted(row.row_id for row in probable_rows(replica.table))
        oracle = sorted(
            row.row_id for row in probable_rows_from_scratch(replica.table)
        )
        assert incremental == oracle
    # Index lookups do not depend on apply order: each shard applied its
    # own linear extension, yet every replica answers every value and
    # key lookup the shards hold with the same row ids in the same order.
    values = list(dict.fromkeys(
        row.value
        for shard in backend.shards
        for row in shard.replica.table.rows()
    ))
    keys = list(dict.fromkeys(
        key for key in (value.key(SCHEMA.key_columns) for value in values)
        if key is not None
    ))

    def lookups(table):
        by_value = [
            (
                [row.row_id for row in table.rows_with_value(value)],
                [row.row_id for row in table.rows_subsuming(value)],
            )
            for value in values
        ]
        by_key = [
            [row.row_id for row in table.rows_in_group(key)] for key in keys
        ]
        return by_value, by_key

    expected = lookups(backend.primary.replica.table)
    for replica in replicas:
        assert lookups(replica.table) == expected

    # Single-backend oracle: the merged committed trace replayed onto a
    # fresh table reproduces the primary exactly.
    committed = backend.committed_trace()
    replayed = replay_trace(SCHEMA, SCORING, _committed_records(committed))
    assert replayed.snapshot() == reference
    assert replayed.history_snapshot() == reference_history
    assert sorted(r.row_id for r in replayed.final_rows()) == sorted(
        r.row_id for r in backend.primary.replica.table.final_rows()
    )
    # Order-independence witness: a *different* linear extension of the
    # per-shard commit logs (all of shard 0's ops, then shard 1's, ...)
    # converges to the same state — the property decentralised commit
    # rests on.  Per-shard order is preserved; cross-shard order is not.
    alternate = replay_trace(
        SCHEMA,
        SCORING,
        _committed_records(
            committed, order_key=lambda e: (e[0].shard_id, e[0].lseq)
        ),
    )
    assert alternate.snapshot() == reference
    assert alternate.history_snapshot() == reference_history

    # Per-link conservation (includes the shard-to-shard links).
    network.check_accounting()
    # Each attached client's session derives its sent count from the
    # trace; it must equal what the client itself counted in.
    for name, client in clients.items():
        session = backend.session(name)
        if session is not None and session.attached:
            assert session.sent_count == client.messages_received
    # The obs exchange counters read each shard's own counters.
    metrics = network.obs.metrics
    for shard in backend.shards:
        for name in (
            "exchange_batches_sent",
            "exchange_ops_sent",
            "exchange_batches_received",
            "exchange_resyncs",
        ):
            assert metrics.counter_value(f"{shard.endpoint}.{name}") == (
                getattr(shard, name)
            )


operation = st.tuples(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.integers(min_value=0, max_value=9),  # client pick
    st.sampled_from(["fill", "fill", "fill", "upvote", "downvote"]),
    st.integers(min_value=0, max_value=9),  # row pick
    st.integers(min_value=0, max_value=9),  # column pick
    st.integers(min_value=0, max_value=9),  # value pick
)


@pytest.mark.slow
@settings(max_examples=100, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=30),
    n_shards=st.sampled_from([1, 2, 4]),
    num_clients=st.integers(min_value=2, max_value=5),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=1_000),
)
def test_sharded_convergence_under_random_fault_plans(
    schedule, n_shards, num_clients, fault_seed, latency_seed
):
    backend, clients, injector, network = _run_sharded_schedule(
        n_shards, num_clients, sorted(schedule), fault_seed, latency_seed
    )
    _assert_sharded_convergence(backend, clients, network)


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(operation, min_size=3, max_size=25),
    n_shards=st.sampled_from([2, 4]),
    start=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    length=st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
    latency_seed=st.integers(min_value=0, max_value=500),
)
def test_sharded_convergence_under_explicit_partition_window(
    schedule, n_shards, start, length, latency_seed
):
    """A shard-partition window isolates every shard from its peers
    while both sides keep committing for their own clients; after the
    heal-time resync all replicas converge."""
    plan = FaultPlan(
        shard_partitions=(
            ShardPartitionWindow(
                _shard_groups(n_shards), start=start, end=start + length
            ),
        )
    )
    backend, clients, injector, network = _run_sharded_schedule(
        n_shards, 4, sorted(schedule), 0, latency_seed, plan=plan
    )
    assert any(e.kind == "shard-partition" for e in injector.events)
    assert any(e.kind == "shard-heal" for e in injector.events)
    _assert_sharded_convergence(backend, clients, network)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(operation, min_size=5, max_size=25),
    n_shards=st.sampled_from([2, 4]),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=500),
)
def test_sharded_convergence_with_tiny_oplog_and_client_churn(
    schedule, n_shards, fault_seed, latency_seed
):
    """Client rejoins forced onto the snapshot path (4-entry op-log)
    compose with shard partitions: bootstrap-from-snapshot must carry
    the superseded-id tombstones or resynced clients diverge."""
    backend, clients, injector, network = _run_sharded_schedule(
        n_shards, 3, sorted(schedule), fault_seed, latency_seed,
        oplog_capacity=4,
    )
    _assert_sharded_convergence(backend, clients, network)


def test_sharded_full_stack_converges_through_partition_and_heal():
    """A pinned run of the sharded assembly: client ops, server
    broadcasts and shard-to-shard exchange batches cross a mid-run
    partition of all three shards and its heal-time resync, and every
    replica still converges."""
    plan = FaultPlan(
        shard_partitions=(
            ShardPartitionWindow(_shard_groups(3), start=0.3, end=0.8),
        )
    )
    # (at, client, kind, row pick, column pick, value pick)
    schedule = [
        (0.1, 0, "fill", 0, 0, 0), (0.2, 1, "fill", 1, 0, 1),
        (0.4, 0, "upvote", 0, 0, 0), (0.5, 1, "fill", 0, 0, 2),
        (0.6, 2, "fill", 1, 2, 0), (0.7, 1, "downvote", 0, 0, 0),
        (0.9, 0, "fill", 1, 0, 0), (1.1, 1, "upvote", 1, 0, 0),
        (1.3, 2, "downvote", 1, 0, 0), (1.5, 2, "upvote", 0, 0, 0),
    ]
    backend, clients, injector, network = _run_sharded_schedule(
        3, 3, schedule, 0, 7, oplog_capacity=64, plan=plan
    )
    assert any(e.kind == "shard-partition" for e in injector.events)
    assert any(e.kind == "shard-heal" for e in injector.events)
    _assert_sharded_convergence(backend, clients, network)


def test_worker_gets_its_own_commit_back_after_a_rebase_while_detached():
    """Regression (lost echo): a worker's own commit that reaches its
    home shard after the worker's copy was rebased on a snapshot is
    not in that snapshot, so the home shard must stream it back — also
    when it arrives while the worker is detached, through the next
    incremental resync.

    ``c0`` (homed on shard 1) fills ``k`` on a row owned by shard 0 just
    before a shard partition; an outage with a 1-entry op-log forces a
    snapshot resync; the commit reaches shard 1 at the heal, during a
    second outage; the resync after it is incremental.
    """
    groups = _shard_groups(2)
    plan = FaultPlan(
        disconnects=(
            DisconnectWindow("c0", start=1.5, end=2.5),
            DisconnectWindow("c0", start=3.0, end=6.0),
        ),
        shard_partitions=(ShardPartitionWindow(groups, start=1.05, end=5.0),),
    )
    # (at, client, kind, row pick, column pick, value pick)
    schedule = [
        (1.0, 0, "fill", 0, 0, 0),  # c0: k = "x"
        (2.0, 1, "fill", 0, 1, 0),  # v9: a = 1 on the first row
        (2.0, 1, "fill", 0, 1, 1),  # v9: a = 2 on the other (now first)
    ]
    backend, clients, injector, network = _run_sharded_schedule(
        2, 2, schedule, 0, 0, oplog_capacity=1, plan=plan,
        latency=ConstantLatency(0.1), names=["c0", "v9"],
    )
    assert backend.home_shard("c0").endpoint == shard_endpoint(1)
    assert clients["c0"].resync_kinds == ["snapshot", "incremental"]
    session = backend.session("c0")
    assert (session.resyncs_snapshot, session.resyncs_incremental) == (1, 1)
    primary = backend.primary.replica
    assert clients["c0"].replica.snapshot() == primary.snapshot()
    assert (
        clients["c0"].replica.table.history_snapshot()
        == primary.table.history_snapshot()
    )
    _assert_sharded_convergence(backend, clients, network)


# -- deterministic replay -----------------------------------------------------


_PINNED_SCHEDULE = sorted(
    (round(0.41 * i % 7.7, 3), i,
     ["fill", "fill", "upvote", "downvote"][i % 4], i * 3, i, i * 7)
    for i in range(25)
)


def _sharded_fingerprint(fault_seed: int):
    backend, clients, injector, network = _run_sharded_schedule(
        3, 4, _PINNED_SCHEDULE, fault_seed, latency_seed=5, oplog_capacity=16
    )
    committed_json = json.dumps(
        [
            (c.shard_id, c.lseq, c.worker_id, c.timestamp, m.to_dict())
            for c, m in backend.committed_trace()
        ],
        sort_keys=True,
    )
    trace_json = json.dumps(trace_to_dicts(backend.trace), sort_keys=True)
    events = [(e.time, e.kind, e.endpoint, e.purged) for e in injector.events]
    return committed_json, trace_json, events


def test_deterministic_replay_same_seed_same_commits():
    """Decentralised commit stays inside the DES's seedable-interleaving
    promise: two runs of one seed yield byte-identical committed traces,
    primary traces, and fault-event logs."""
    first = _sharded_fingerprint(fault_seed=11)
    second = _sharded_fingerprint(fault_seed=11)
    assert first[0] == second[0]  # byte-identical committed trace
    assert first[1] == second[1]  # byte-identical primary trace
    assert first[2] == second[2]  # identical fault schedule execution
    # A different fault seed genuinely changes the run.
    third = _sharded_fingerprint(fault_seed=12)
    assert first[2] != third[2]


# -- shards=1 equivalence gate ------------------------------------------------


def _drive_equivalence_schedule(make_backend):
    """Fixed multi-client schedule against *make_backend*'s rig, with an
    attached observer client recording the serialized broadcast stream
    (the pattern of ``tests/test_batch_equivalence.py``)."""
    sim = Simulator()
    network = Network(
        sim,
        default_latency=UniformLatency(0.02, 0.4),
        streams=RngStreams(0),
    )
    backend = make_backend(sim, network)
    wire: list[tuple[str, str]] = []

    class Observer:
        def on_message(self, source, payload):
            wire.append((source, json.dumps(payload.to_dict(), sort_keys=True)))

    network.register("observer", Observer())
    backend.attach_client("observer")
    clients = []
    for i in range(3):
        client = WorkerClient(
            f"w{i}", SCHEMA, SCORING, network, streams=RngStreams(i)
        )
        client.bootstrap(backend.attach_client(client.worker_id))
        clients.append(client)
    backend.start()
    sim.run()

    def empty_row(client):
        for row in client.replica.table.rows():
            if not dict(row.value.items()):
                return row.row_id
        return None

    rid = empty_row(clients[0])
    for column, value in {"k": "x", "a": 1, "b": "p"}.items():
        rid = clients[0].fill(rid, column, value)
    sim.run()
    clients[1].upvote(rid)
    clients[2].upvote(rid)
    sim.run()
    rid2 = empty_row(clients[1])
    for column, value in {"k": "y", "a": 2, "b": "q"}.items():
        rid2 = clients[1].fill(rid2, column, value)
    sim.run()
    clients[0].upvote(rid2)
    clients[2].downvote(rid2)
    sim.run()
    assert network.quiescent()
    trace_json = json.dumps(trace_to_dicts(backend.trace), sort_keys=True)
    return (
        wire,
        backend.replica.snapshot(),
        backend.replica.table.history_snapshot(),
        trace_json,
        backend.completed,
    )


def test_single_shard_wire_equivalent_to_plain_backend():
    """``ShardedBackend(shards=1)`` is *byte-identical* to the plain
    server: same broadcast stream (order and serialized payloads), same
    trace, same end state, same completion."""
    plain = _drive_equivalence_schedule(
        lambda sim, network: BackendServer(
            sim, network, SCHEMA, SCORING, Template.cardinality(2)
        )
    )
    sharded = _drive_equivalence_schedule(
        lambda sim, network: ShardedBackend(
            sim, network, SCHEMA, SCORING, Template.cardinality(2), shards=1
        )
    )
    assert sharded[0] == plain[0]
    assert sharded[1] == plain[1]
    assert sharded[2] == plain[2]
    assert sharded[3] == plain[3]
    assert sharded[4] == plain[4]
    assert len(plain[0]) > 0  # the observer really saw traffic


@pytest.mark.slow
def test_single_shard_harness_run_identical_to_plain():
    """The seed-7 section 6 harness run is identical under
    ``shards=1``: completion, duration, accuracy, and the final rows."""
    from repro.experiments.harness import CrowdFillExperiment, ExperimentConfig

    plain = CrowdFillExperiment(ExperimentConfig(seed=7)).run()
    sharded = CrowdFillExperiment(ExperimentConfig(seed=7, shards=1)).run()
    assert sharded.completed == plain.completed
    assert sharded.duration == plain.duration
    assert sharded.accuracy == plain.accuracy
    assert sharded.final_row_ids == plain.final_row_ids


# -- exchange protocol units --------------------------------------------------


def _scripted_messages():
    from repro.core.messages import (
        DownvoteMessage,
        InsertMessage,
        ReplaceMessage,
        UndoDownvoteMessage,
        UndoUpvoteMessage,
        UpvoteMessage,
    )
    from repro.core.row import RowValue

    value = RowValue({"k": "x", "a": 1, "b": "p"})
    partial = RowValue({"k": "y"})
    return [
        InsertMessage(row_id="w0#1"),
        ReplaceMessage(
            old_id="w0#1", new_id="w0#2", value=partial, column="k",
            filled_value="y",
        ),
        ReplaceMessage(
            old_id="w0#2", new_id="w0#3", value=value, column="a",
            filled_value=1,
        ),
        UpvoteMessage(value=value),
        UpvoteMessage(value=value, auto=True),
        DownvoteMessage(value=value),
        UndoUpvoteMessage(value=value),
        UndoDownvoteMessage(value=value),
    ]


def test_exchange_codec_round_trips_and_compresses():
    from repro.server.shard import ShardCommit

    messages = _scripted_messages()
    records = [
        TraceRecord(seq=i, timestamp=1.5 + i, worker_id=f"w{i % 2}",
                    message=m, shard_id=2, lseq=7 + i)
        for i, m in enumerate(messages)
    ]
    batch = encode_exchange(2, 7, records)
    assert batch.shard_id == 2
    assert batch.first_lseq == 7
    assert len(batch) == len(messages)
    # Dictionary compression: 6 value-bearing ops share 2 distinct
    # value-vectors; 8 ops share 2 distinct worker ids.
    assert len(batch.values) == 2
    assert len(batch.workers) == 2
    decoded = decode_exchange(batch)
    assert [m for _, m in decoded] == messages
    assert [c for c, _ in decoded] == [
        ShardCommit(2, r.lseq, r.worker_id, r.timestamp) for r in records
    ]
    # Decoding builds fresh value objects — no aliasing with the batch.
    original_value = records[3].message.value
    decoded_value = decoded[3][1].value
    assert decoded_value == original_value
    assert decoded_value is not original_value


def test_exchange_gap_raises_and_duplicates_skip():
    """A receiver tolerates duplicate prefixes (conservative resync)
    but treats a gap in a peer's stream as a protocol violation."""
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, SCHEMA, SCORING, Template.cardinality(1), shards=2
    )
    backend.start()
    sim.run()
    receiver = backend.shards[0]
    messages = _scripted_messages()[:2]
    records = [
        TraceRecord(seq=i, timestamp=1.0 + i, worker_id="w0", message=m,
                    shard_id=1, lseq=i)
        for i, m in enumerate(messages)
    ]
    batch = encode_exchange(1, 0, records)
    receiver._receive_exchange(batch)
    sim.run()
    assert receiver.received_from(1) == 2
    # The same batch again: pure duplicate, skipped by count.
    receiver._receive_exchange(batch)
    sim.run()
    assert receiver.received_from(1) == 2
    assert receiver.exchange_dup_ops == 2
    # A batch starting past the applied prefix is a gap.
    gap = encode_exchange(1, 5, [
        TraceRecord(seq=0, timestamp=9.0, worker_id="w0",
                    message=messages[0], shard_id=1, lseq=5)
    ])
    with pytest.raises(ShardExchangeError):
        receiver._receive_exchange(gap)


def test_resync_peer_rolls_the_sent_mark_back_and_resends():
    """A peer's sent mark is one count over the dense commit log:
    flushes advance it to the log length, a heal-time resync sets it
    back to the acknowledged count and re-sends the suffix, which the
    peer skips as duplicates."""
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, SCHEMA, SCORING, Template.cardinality(2), shards=2
    )
    backend.start()
    sim.run()
    sender, receiver = backend.shards
    committed = len(sender.commit_log)
    assert committed > 1
    assert sender.sent_watermark(receiver.endpoint) == committed
    assert receiver.received_from(sender.shard_id) == committed
    dups_before = receiver.exchange_dup_ops

    assert sender.resync_peer(receiver.endpoint, 1) == committed - 1
    assert sender.sent_watermark(receiver.endpoint) == committed
    assert sender.exchange_resyncs == 1
    sim.run()
    assert receiver.received_from(sender.shard_id) == committed
    assert receiver.exchange_dup_ops == dups_before + committed - 1

    # Nothing past the acknowledged prefix: no batch is sent.
    batches = sender.exchange_batches_sent
    assert sender.resync_peer(receiver.endpoint, committed) == 0
    assert sender.exchange_batches_sent == batches
    with pytest.raises(ValueError, match="acknowledged"):
        sender.resync_peer(receiver.endpoint, committed + 1)
    with pytest.raises(ValueError, match="not a peer"):
        sender.resync_peer("shard-9", 0)


def test_router_routes_deterministically_and_covers_shards():
    """Routing is a pure function of the message (same message → same
    shard, across router instances), and the bucketing actually spreads
    key-groups across shards."""
    from repro.core.messages import ReplaceMessage, UpvoteMessage
    from repro.core.row import RowValue

    def build(n_shards):
        sim = Simulator()
        network = Network(sim, streams=RngStreams(0))
        return ShardedBackend(
            sim, network, SCHEMA, SCORING, Template.cardinality(1),
            shards=n_shards,
        )

    first, second = build(4), build(4)
    spread = set()
    for i in range(16):
        value = RowValue({"k": f"key{i}", "a": 1, "b": "p"})
        replace = ReplaceMessage(
            old_id=f"r{i}", new_id=f"r{i}x", value=value, column="b",
            filled_value="p",
        )
        vote = UpvoteMessage(value=value)
        a = first.router.shard_for(replace).shard_id
        assert second.router.shard_for(replace).shard_id == a
        # Votes on a key-complete value co-route with the key-group.
        assert first.router.shard_for(vote).shard_id == a
        spread.add(a)
    assert len(spread) > 1


def test_home_shard_assignment_is_stable_and_spread():
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, SCHEMA, SCORING, Template.cardinality(1), shards=4
    )
    homes = {f"c{i}": backend.home_shard(f"c{i}").shard_id for i in range(12)}
    assert homes == {
        name: backend.home_shard(name).shard_id for name in homes
    }
    assert len(set(homes.values())) > 1


class _Sink:
    """A replica-free client endpoint that only counts what it receives."""

    __slots__ = ("received",)

    def __init__(self) -> None:
        self.received = 0

    def on_message(self, source, payload) -> None:
        self.received += 1


def test_two_thousand_sinks_converge_on_four_shards():
    """Thousands of attached workers on the 4-shard backend: 20 authors
    each insert a row and fill its key through ``ingest``, and every
    committed op reaches each of the 2000 endpoints that did not author
    it before quiescence."""
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, SCHEMA, SCORING, Template.cardinality(4), shards=4
    )
    sinks = []
    for i in range(2000):
        sink = _Sink()
        network.register(f"w{i}", sink)
        backend.attach_client(f"w{i}")
        sinks.append(sink)
    backend.start()
    sim.run()
    for i in range(20):
        row_id = f"w{i}#1"
        backend.ingest(f"w{i}", [
            InsertMessage(row_id=row_id),
            ReplaceMessage(
                old_id=row_id, new_id=f"w{i}#2",
                value=RowValue({"k": f"key{i}"}),
                column="k", filled_value=f"key{i}",
            ),
        ])
    sim.run()
    assert network.quiescent()
    assert backend.fully_exchanged()
    authored = Counter(
        commit.worker_id for commit, _ in backend.committed_trace()
    )
    assert sum(authored[f"w{i}"] for i in range(20)) == 40
    committed = sum(authored.values())
    for i, sink in enumerate(sinks):
        assert sink.received >= committed - authored[f"w{i}"]
