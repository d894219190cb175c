"""Crash-recovery property suite: WAL + checkpoint durability under
random crash schedules.

A :class:`~repro.net.faults.ShardCrashWindow` destroys a shard's entire
volatile state — table, sessions, commit log, exchange bookkeeping,
in-flight wire traffic — leaving only its durable store (the WAL and
the latest cut-addressed checkpoint).  These tests drive the full
sharded assembly with crash windows overlaid (optionally composed with
worker outages and shard partitions) and assert that once every window
closes and the network quiesces:

- every shard replica and every client replica is **byte-identical**
  (``dump_json(canonical_state(BootstrapState.capture(...)))`` — the
  PR 9 oracle encoding) to the quiesced primary, which hosts the
  Central Client;
- the merged committed trace, replayed from scratch on a fresh table
  that never crashed — the no-crash oracle — reproduces the primary
  byte-for-byte, with the same final rows;
- the CC's probable-row invariant holds, and every replica's
  incremental probable view equals its from-scratch oracle;
- per-link network conservation balances, crash purges included.

The torn-tail legs tear the last WAL record mid-write (an fsync that
never completed) *after* the exchange propagated it, and recovery must
re-adopt a lost own commit from a surviving peer's trace at its original
slot (peers log only its position).  The ingest-never-paused witness
checks the survivors kept committing while a peer was down, as in the
follower-bootstrap suite.  Recovered replicas never alias logged
payloads: the WAL codec rebuilds every object from bytes, positions
resolved against their origins' logs, and no op a recovered shard
replays is noted twice on its change stream.
"""

from __future__ import annotations

import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdc.subscription import ChangeStream
from repro.cdc.view import canonical_state
from repro.client import WorkerClient
from repro.constraints import Template
from repro.core.messages import TraceRecord
from repro.durability import (
    DurabilityConfig,
    DurableLog,
    WalCorruptionError,
    WalPosition,
    WalRecord,
    decode_checkpoint,
)
from repro.net import (
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    Network,
    ShardCrashWindow,
    UniformLatency,
)
from repro.obs import dump_json
from repro.server import ShardedBackend
from repro.server.backend import BackendServer, BootstrapState
from repro.server.shard import shard_endpoint
from repro.server.tracelog import replay_trace
from repro.sim import RngStreams, Simulator

from tests.test_shard_convergence import (
    HORIZON,
    SCHEMA,
    SCORING,
    _perform,
    _shard_groups,
    operation,
)


def canonical_doc(replica) -> str:
    return dump_json(canonical_state(BootstrapState.capture(replica)))


def _crash_plan(
    crash_seed: int,
    n_shards: int,
    names: list[str],
    *,
    outages: bool = False,
    partitions: bool = False,
) -> FaultPlan:
    """A seeded plan that always contains at least one crash window."""
    return FaultPlan.generate(
        random.Random(crash_seed),
        names if outages else [],
        horizon=HORIZON,
        outage_prob=0.5,
        min_outage=0.5,
        max_outage=6.0,
        shard_groups=(
            _shard_groups(n_shards) if partitions and n_shards > 1 else None
        ),
        shard_partition_prob=0.6,
        crash_endpoints=[shard_endpoint(k) for k in range(n_shards)],
        crash_prob=1.0,
        min_crash_gap=0.5,
    )


def _build_crash_rig(
    n_shards,
    num_clients,
    latency_seed,
    plan,
    checkpoint_interval=8,
):
    """The sharded assembly with durability on and crash choreography
    bound; ops not scheduled yet."""
    sim = Simulator()
    network = Network(
        sim,
        default_latency=UniformLatency(0.01, 1.5),
        streams=RngStreams(latency_seed),
    )
    backend = ShardedBackend(
        sim,
        network,
        SCHEMA,
        SCORING,
        Template.cardinality(2),
        shards=n_shards,
        durability=DurabilityConfig(checkpoint_interval=checkpoint_interval),
    )
    names = [f"c{i}" for i in range(num_clients)]
    clients: dict[str, WorkerClient] = {}
    rng_streams = RngStreams(latency_seed)
    for name in names:
        client = WorkerClient(
            name, SCHEMA, SCORING, network, streams=rng_streams
        )
        client.bootstrap(backend.attach_client(name))
        clients[name] = client
    injector = FaultInjector(sim, network, plan)
    backend.bind_faults(injector, clients=clients)
    injector.install()
    backend.start()
    return sim, network, backend, clients, injector, names


def _schedule_ops(sim, clients, names, schedule):
    for at, client_pick, op_kind, row_pick, column_pick, value_pick in schedule:
        client = clients[names[client_pick % len(names)]]
        sim.schedule_at(
            at,
            lambda c=client, k=op_kind, r=row_pick, col=column_pick,
            v=value_pick: _perform(c, k, r, col, v),
        )


def _finish(sim, network, injector):
    sim.run()
    injector.force_reconnect_all()
    sim.run()
    assert network.quiescent()


def _assert_crash_convergence(backend, clients, network):
    assert backend.exchange_backlog() == 0
    assert backend.fully_exchanged()
    for shard in backend.shards:
        assert not shard.crashed

    # Byte-identical per-shard and per-client snapshots vs the quiesced
    # primary (the CC's host): the same canonical-state byte-compare
    # the CDC acceptance suite uses.
    reference = backend.primary.replica
    reference_doc = canonical_doc(reference)
    replicas = [shard.replica for shard in backend.shards] + [
        client.replica for client in clients.values()
    ]
    for replica in replicas:
        assert canonical_doc(replica) == reference_doc
        replica.table.check_vote_invariants()

    # The no-crash oracle: every committed operation replayed from
    # scratch on a fresh table that never crashed.  Byte-identical
    # state means recovery was snapshot-equivalent — no committed
    # operation was lost, duplicated, or reordered incompatibly.
    committed = backend.committed_trace()
    records = [
        TraceRecord(
            seq=index,
            timestamp=commit.timestamp,
            worker_id=commit.worker_id,
            message=message,
        )
        for index, (commit, message) in enumerate(committed)
    ]
    oracle = replay_trace(SCHEMA, SCORING, records)
    oracle_doc = dump_json(
        canonical_state(BootstrapState.capture(SimpleNamespace(table=oracle)))
    )
    assert oracle_doc == reference_doc
    assert sorted(r.row_id for r in oracle.final_rows()) == sorted(
        r.row_id for r in reference.table.final_rows()
    )

    # CC invariants at the primary.
    assert backend.central.pri_holds()
    from repro.constraints.probable import (
        probable_rows,
        probable_rows_from_scratch,
    )

    for replica in replicas:
        incremental = sorted(row.row_id for row in probable_rows(replica.table))
        scratch = sorted(
            row.row_id for row in probable_rows_from_scratch(replica.table)
        )
        assert incremental == scratch

    network.check_accounting()
    # Each attached client's session derives its sent count from the
    # trace; it must equal what the client itself counted in.
    for name, client in clients.items():
        session = backend.session(name)
        if session is not None and session.attached:
            assert session.sent_count == client.messages_received
    _assert_single_log(backend)


def _log_key(record):
    return (
        record.shard_id,
        record.lseq,
        record.worker_id,
        record.timestamp,
        record.message.to_dict(),
    )


def _resolved_wal(backend, shard):
    """*shard*'s WAL replay, and the same records with each position
    resolved against its origin shard's full records."""
    records, torn = shard.durable.log.replay()
    assert torn == 0
    commits = {
        origin.shard_id: {r.lseq: r for r in origin.durable.log.commits()}
        for origin in backend.shards
    }
    resolved = []
    for record in records:
        if isinstance(record, WalPosition):
            full = commits[record.shard_id][record.lseq]
            record = WalRecord(
                record.shard_id, record.lseq, full.worker_id,
                record.timestamp, full.message,
            )
        resolved.append(record)
    return records, resolved


def _assert_single_log(backend):
    """Each shard's trace is its one in-memory log: it matches the WAL
    replay, positions resolved, record for record; the WAL holds a
    full record for exactly the shard's own commits and a position for
    each peer op it applied; and the commit log is exactly its
    local-origin entries (the same objects), in lseq order."""
    for shard in backend.shards:
        records, resolved = _resolved_wal(backend, shard)
        assert [_log_key(r) for r in shard.trace] == [
            _log_key(r) for r in resolved
        ]
        full = [r for r in records if isinstance(r, WalRecord)]
        assert all(r.shard_id == shard.shard_id for r in full)
        assert len(full) == len(shard.commit_log)
        assert len(records) - len(full) == len(shard.trace) - len(
            shard.commit_log
        )
        assert [r.seq for r in shard.trace] == list(range(len(shard.trace)))
        local = [r for r in shard.trace if r.shard_id == shard.shard_id]
        assert len(shard.commit_log) == len(local)
        assert all(a is b for a, b in zip(shard.commit_log, local))
        assert [r.lseq for r in shard.commit_log] == list(range(len(local)))


# -- random crash schedules ---------------------------------------------------


@pytest.mark.slow
@settings(max_examples=90, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=25),
    n_shards=st.sampled_from([1, 2, 4]),
    crash_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=1_000),
    checkpoint_interval=st.sampled_from([2, 8, 256]),
)
def test_crash_recovery_converges_under_random_crash_schedules(
    schedule, n_shards, crash_seed, latency_seed, checkpoint_interval
):
    """Random crash schedules over N ∈ {1, 2, 4} shards: every crashed
    shard recovers from checkpoint + WAL suffix and the whole assembly
    converges byte-identically to the no-crash oracle — at every
    checkpoint cadence, including one (256) that never checkpoints
    within these runs (pure WAL replay) and one (2) that checkpoints
    nearly every drain."""
    plan = _crash_plan(crash_seed, n_shards, [])
    sim, network, backend, clients, injector, names = _build_crash_rig(
        n_shards, 4, latency_seed, plan,
        checkpoint_interval=checkpoint_interval,
    )
    _schedule_ops(sim, clients, names, sorted(schedule))
    _finish(sim, network, injector)
    if plan.crashes:
        assert any(e.kind == "crash" for e in injector.events)
        assert any(e.kind == "restart" for e in injector.events)
        for endpoint in plan.crashed_endpoints():
            shard = backend.shards[int(endpoint.split("-")[1])]
            assert shard.durable is not None and shard.durable.recoveries >= 1
    _assert_crash_convergence(backend, clients, network)


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    schedule=st.lists(operation, min_size=3, max_size=25),
    n_shards=st.sampled_from([2, 4]),
    crash_seed=st.integers(min_value=0, max_value=10_000),
    latency_seed=st.integers(min_value=0, max_value=1_000),
)
def test_crashes_compose_with_outages_and_partitions(
    schedule, n_shards, crash_seed, latency_seed
):
    """Crash windows overlaid with worker outage windows and shard
    partitions — all three fault kinds in one run — still converge to
    the no-crash oracle."""
    plan = _crash_plan(
        crash_seed, n_shards, [f"c{i}" for i in range(4)],
        outages=True, partitions=True,
    )
    sim, network, backend, clients, injector, names = _build_crash_rig(
        n_shards, 4, latency_seed, plan
    )
    _schedule_ops(sim, clients, names, sorted(schedule))
    _finish(sim, network, injector)
    _assert_crash_convergence(backend, clients, network)


# -- torn-tail WAL legs -------------------------------------------------------


_TORN_SCHEDULE = sorted(
    (round(0.31 * i % 3.4, 3), i,
     ["fill", "fill", "upvote", "downvote"][i % 4], i * 3, i, i * 7)
    for i in range(20)
)


def _run_torn_tail(tear_fraction: float, latency_seed: int):
    """Quiesce (everything exchanged), crash shard 1, tear part of its
    last WAL record mid-window, restart.  A torn own commit survives
    only in the peer's trace — `recommit_lost` must re-adopt it."""
    plan = FaultPlan(crashes=(ShardCrashWindow(shard_endpoint(1), 6.0, 8.0),))
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 3, latency_seed, plan, checkpoint_interval=256
    )
    _schedule_ops(sim, clients, names, _TORN_SCHEDULE)

    torn = {"readopted": 0}
    shard = backend.shards[1]
    recommit_lost = shard.recommit_lost

    def observed_recommit_lost(records):
        adopted = recommit_lost(records)
        torn["readopted"] += adopted
        return adopted

    shard.recommit_lost = observed_recommit_lost

    def tear():
        assert shard.crashed
        log = shard.durable.log
        records, _ = log.replay()
        if not records:
            return
        data = bytes(log._buf)
        last_line_bytes = len(data) - data.rfind(b"\n", 0, len(data) - 1) - 1
        nbytes = max(1, int(last_line_bytes * tear_fraction))
        log.truncate_tail(min(nbytes, log.size_bytes))
        torn["bytes"] = nbytes
        torn["own_tail"] = records[-1].shard_id == 1
        # The WAL holds a record (full or position) per applied op;
        # only shard 1's own commits repopulate commit_log.
        torn["own_before"] = sum(1 for r in records if r.shard_id == 1)

    # All ops land by ~4.5 and the exchange drains before the crash at
    # 6.0, so every commit in the torn tail is in the peer's trace.
    sim.schedule_at(7.0, tear)
    _finish(sim, network, injector)
    return backend, clients, network, torn


def test_torn_tail_recovery_readopts_lost_commits_from_peer_trace():
    # At latency seed 14 shard 1's last WAL record is its own commit.
    backend, clients, network, torn = _run_torn_tail(0.5, latency_seed=14)
    assert torn["bytes"] > 0  # the tear really happened
    assert torn["own_tail"]
    assert torn["readopted"] >= 1
    shard = backend.shards[1]
    assert shard.durable.recoveries == 1
    # The re-adopted commits are back at their original slots: the
    # recovered commit log is as long as the pre-tear one.
    assert len(shard.commit_log) >= torn["own_before"]
    _assert_crash_convergence(backend, clients, network)


@pytest.mark.slow
@settings(max_examples=25, deadline=None)
@given(
    tear_fraction=st.floats(
        min_value=0.01, max_value=0.99, allow_nan=False
    ),
    latency_seed=st.integers(min_value=0, max_value=200),
)
def test_torn_tail_recovery_at_any_tear_point(tear_fraction, latency_seed):
    """Tearing any proper fraction of the last WAL record — from one
    byte to all-but-one — recovers to the same converged state, and a
    torn own commit is always re-adopted."""
    backend, clients, network, torn = _run_torn_tail(
        tear_fraction, latency_seed
    )
    if torn.get("own_tail"):
        assert torn["readopted"] >= 1
    _assert_crash_convergence(backend, clients, network)


# -- ingest-never-paused witness ---------------------------------------------


_PINNED_SCHEDULE = sorted(
    (round(0.29 * i % 7.7, 3), i,
     ["fill", "fill", "upvote", "downvote"][i % 4], i * 5, i, i * 3)
    for i in range(40)
)


def _fill_toward_survivor(client) -> bool:
    """One fill guaranteed to land at shard 0: fill ``k="x"`` (probed:
    the "x" key group hashes to shard 0 under two shards), or extend a
    row whose key already is "x"."""
    from repro.core.replica import OperationError
    from repro.core.schema import SchemaError

    table = client.replica.table
    for row_id in table.row_ids():
        row = table.get(row_id)
        if row is None:
            continue
        filled = row.value.filled_columns()
        try:
            if "k" not in filled:
                client.fill(row_id, "k", "x")
                return True
            if row.value.get("k") == "x" and "a" not in filled:
                client.fill(row_id, "a", 1)
                return True
        except (OperationError, SchemaError):
            continue
    return False


def test_survivors_never_pause_during_peer_recovery():
    """The witness for "ingest never pauses": while shard 1 is down,
    shard 0 keeps committing operations and its change-stream position
    strictly advances — the crash is invisible to the survivors' own
    clients until heal-time resync.

    The pinned schedule alone cannot witness this: clients c0–c3 all
    home on shard 1 and are force-disconnected at its crash, so the rig
    uses 8 clients (c4–c7 home on shard 0, probed) and drives fills
    routed to shard 0 from a surviving client inside the window.
    """
    plan = FaultPlan(crashes=(ShardCrashWindow(shard_endpoint(1), 3.0, 7.0),))
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 8, 5, plan
    )
    survivor_client = next(
        clients[name] for name in names
        if backend.home_shard(name) is backend.shards[0]
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    probes: list[tuple[float, int, int]] = []
    hits: list[bool] = []

    def probe():
        survivor = backend.shards[0]
        assert not survivor.crashed
        probes.append(
            (sim.now, survivor.changes.position, len(survivor.commit_log))
        )

    sim.schedule_at(3.1, probe)
    for when in (3.5, 4.5, 5.5):
        sim.schedule_at(
            when, lambda: hits.append(_fill_toward_survivor(survivor_client))
        )
    sim.schedule_at(6.9, probe)
    _finish(sim, network, injector)
    assert [e.kind for e in injector.events] == ["crash", "restart"]
    assert any(hits)  # at least one survivor-routed fill was performed
    (t0, pos0, commits0), (t1, pos1, commits1) = probes
    assert t1 > t0
    assert pos1 > pos0          # the survivor's stream kept moving
    assert commits1 > commits0  # ...because it kept *committing*
    _assert_crash_convergence(backend, clients, network)


# -- deterministic replay and checkpoints ------------------------------------


def _fingerprint(crash_seed: int):
    plan = _crash_plan(crash_seed, 2, [])
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 4, 5, plan, checkpoint_interval=4
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    _assert_crash_convergence(backend, clients, network)
    committed_json = json.dumps(
        [
            (c.shard_id, c.lseq, c.worker_id, c.timestamp, m.to_dict())
            for c, m in backend.committed_trace()
        ],
        sort_keys=True,
    )
    events = [(e.time, e.kind, e.endpoint, e.purged) for e in injector.events]
    return committed_json, canonical_doc(backend.primary.replica), events


def test_pinned_seed_crash_run_is_deterministically_replayable():
    """Fault plan × crash choreography × recovery replays byte-
    identically for one seed; a different crash seed changes the run."""
    first = _fingerprint(crash_seed=11)
    second = _fingerprint(crash_seed=11)
    assert first == second
    third = _fingerprint(crash_seed=13)
    assert first[2] != third[2]


def test_checkpoint_plus_wal_suffix_recovery():
    """With a tiny checkpoint interval the crashed shard provably
    recovered through the checkpoint path (not pure WAL replay), and
    the WAL itself was never truncated by checkpointing."""
    plan = FaultPlan(crashes=(ShardCrashWindow(shard_endpoint(1), 5.0, 7.0),))
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 4, 5, plan, checkpoint_interval=2
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    shard = backend.shards[1]
    assert shard.durable.checkpoints_taken > 0
    assert shard.durable.recoveries == 1
    assert shard.durable.log.records_appended >= len(shard.commit_log)
    _assert_crash_convergence(backend, clients, network)


def test_recovery_replays_at_most_the_checkpoint_cadence_bound():
    """Checkpoints come due on a geometric cadence, so the WAL suffix a
    recovering shard re-applies is bounded by max(interval, records the
    last checkpoint covered) — here a late crash, after the covered
    prefix has outgrown the interval."""
    interval = 2
    plan = FaultPlan(crashes=(ShardCrashWindow(shard_endpoint(1), 7.0, 8.0),))
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 4, 5, plan, checkpoint_interval=interval
    )
    shard = backend.shards[1]
    seen = []
    recover = shard.recover

    def observed_recover(origins):
        covered = shard.durable.records_covered
        replayed = recover(origins)
        seen.append((replayed, covered))
        return replayed

    shard.recover = observed_recover
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    [(replayed, covered)] = seen
    assert covered > interval
    assert 0 < replayed <= max(interval, covered)
    # Geometric, not every `interval` records: the k-th checkpoint
    # needs at least interval * 2**(k-1) appended records.
    taken = shard.durable.checkpoints_taken
    assert interval * 2 ** (taken - 1) <= shard.durable.log.records_appended
    _assert_crash_convergence(backend, clients, network)


def test_four_shard_trace_matches_wal_after_seeded_crash():
    """The single-log property on a 4-shard durable run with a seeded
    crash: every shard's trace equals its WAL replay and its commit log
    indexes its own commits (checked by ``_assert_single_log`` inside
    the convergence assertions)."""
    plan = _crash_plan(11, 4, [])
    assert plan.crashes
    sim, network, backend, clients, injector, names = _build_crash_rig(
        4, 4, 5, plan, checkpoint_interval=4
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    assert sum(shard.durable.recoveries for shard in backend.shards) >= 1
    assert sum(1 for shard in backend.shards if shard.commit_log) >= 2
    _assert_crash_convergence(backend, clients, network)


def test_crash_recovery_rebuilds_from_logged_bytes():
    """Recovered replicas are rebuilt from logged bytes: every WAL
    replay, and every origin log a position resolves against, decodes
    fresh message objects, so no recovered object can alias a payload
    another replica holds, and the run converges."""
    plan = _crash_plan(7, 2, [])
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 3, 5, plan
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    _assert_crash_convergence(backend, clients, network)
    assert sum(shard.durable.recoveries for shard in backend.shards) >= 1
    for shard in backend.shards:
        _, first = _resolved_wal(backend, shard)
        _, second = _resolved_wal(backend, shard)
        assert first and first == second
        assert all(a.message is not b.message for a, b in zip(first, second))


def test_recovery_notes_no_applied_op_twice(monkeypatch):
    """The witness for "recovery replays silently": on a 4-shard run
    whose primary crashes after a checkpoint and recovers, every
    change-stream note is one advance of some shard's stream position
    (perfbench's traced ``cdc.notes`` reconciliation).  Peer ops the
    victim applied past its checkpoint come back from their positions
    in its WAL; were they left to the exchange resync instead, the
    victim would note them a second time."""
    notes = []
    note = ChangeStream.note

    def counted_note(stream, record):
        notes.append(record)
        note(stream, record)

    monkeypatch.setattr(ChangeStream, "note", counted_note)
    plan = FaultPlan(crashes=(ShardCrashWindow(shard_endpoint(0), 6.0, 7.5),))
    sim, network, backend, clients, injector, names = _build_crash_rig(
        4, 4, 5, plan, checkpoint_interval=4
    )
    victim = backend.primary
    recover = victim.recover
    past_checkpoint = []

    def observed_recover(origins):
        checkpoint = victim.durable.load_checkpoint()
        assert checkpoint is not None
        covered = decode_checkpoint(checkpoint)[1]
        past_checkpoint.extend(
            record
            for record in victim.durable.log.replay()[0]
            if isinstance(record, WalPosition)
            and not covered.covers(record.shard_id, record.lseq)
        )
        return recover(origins)

    victim.recover = observed_recover
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    assert victim.durable.recoveries == 1
    assert past_checkpoint  # peer ops the checkpoint did not cover
    assert len(notes) == sum(shard.changes.position for shard in backend.shards)
    _assert_crash_convergence(backend, clients, network)


def test_a_position_whose_origin_record_is_lost_is_corruption():
    """A position resolves against its origin's full record; if that
    record is gone (a torn origin tail with no live peer copy left to
    re-adopt it from) recovery refuses to guess, naming the coordinate."""
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 4, 5, FaultPlan()
    )
    _schedule_ops(sim, clients, names, _PINNED_SCHEDULE)
    _finish(sim, network, injector)
    shard = backend.shards[1]
    position = next(
        record for record in shard.durable.log.replay()[0]
        if isinstance(record, WalPosition)
    )
    origin = DurableLog()
    for record in backend.shards[0].durable.log.replay()[0]:
        if not (isinstance(record, WalRecord) and record.lseq == position.lseq):
            origin.append(record)
    shard.crash()
    with pytest.raises(
        WalCorruptionError,
        match=rf"shard-1: WAL position \(0, {position.lseq}\) has no record",
    ):
        shard.recover({0: origin})


@pytest.mark.parametrize("path", ["on_message", "ingest"])
def test_a_crashed_shard_refuses_deliveries(path):
    """A delivery that reaches a crashed shard is a wiring fault (the
    injector severs its links and the router backlogs its operations
    first), so both entry points raise, naming the endpoint and the
    source, instead of dropping the operation silently."""
    sim, network, backend, clients, injector, names = _build_crash_rig(
        2, 2, 5, FaultPlan()
    )
    sim.run()
    client = clients["c0"]
    message = client.replica.fill(
        client.replica.table.row_ids()[0], "k", "x"
    )
    shard = backend.shards[1]
    shard.crash()
    with pytest.raises(
        RuntimeError, match="'shard-1' is crashed: refusing a delivery from 'c0'"
    ):
        if path == "on_message":
            shard.on_message("c0", message)
        else:
            shard.ingest("c0", [message])
    assert shard.trace == [] and not shard._pending


@pytest.mark.parametrize("endpoint", ["c0", "shard-7"])
def test_a_crash_window_off_the_shards_is_refused(endpoint):
    """Only a shard has the WAL a restart recovers from: a crash window
    on a client would silently diverge its replica, and one on an
    endpoint the backend does not have would do nothing.  Both are
    refused when the plan is bound, naming the endpoint."""
    plan = FaultPlan(crashes=(ShardCrashWindow(endpoint, 1.0, 2.0),))
    with pytest.raises(FaultPlanError, match=f"crash window on '{endpoint}'"):
        _build_crash_rig(2, 2, 5, plan)


def test_the_unsharded_backend_refuses_every_crash_window():
    sim = Simulator()
    network = Network(sim)
    backend = BackendServer(
        sim, network, SCHEMA, SCORING, Template.cardinality(2)
    )
    plan = FaultPlan(
        crashes=(ShardCrashWindow(shard_endpoint(0), 1.0, 2.0),)
    )
    with pytest.raises(FaultPlanError, match="crash window on 'shard-0'"):
        backend.bind_faults(FaultInjector(sim, network, plan), clients={})
