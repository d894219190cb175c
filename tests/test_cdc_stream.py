"""Unit tests for the CDC subsystem (repro.cdc).

Covers the pieces in isolation — the wire codecs, :class:`ChangeStream`
emission and ``from_cut`` replay, :class:`Subscription` positions,
overflow → snapshot fallback, the chunked :class:`CdcView` bootstrap against a live
backend, the leaderboard consumer, the session facade, and a
quiet-stream follower bootstrap.  The mid-run, fault-overlaid
convergence properties live in ``tests/test_cdc_properties.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdc import (
    ChangeEvent,
    CdcView,
    Cut,
    LeaderboardView,
    SnapshotChunk,
    StreamUnavailableError,
    change_event_from_dict,
    chunk_from_dict,
    cut_from_dict,
)
from repro.cdc.view import canonical_state
from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import ThresholdScoring
from repro.core.messages import (
    InsertMessage,
    ReplaceMessage,
    UpvoteMessage,
)
from repro.core.row import RowValue
from repro.core.schema import soccer_player_schema
from repro.durability import DurabilityConfig
from repro.net import ConstantLatency, Network
from repro.obs import dump_json
from repro.server import BackendServer, ShardedBackend
from repro.server.backend import BootstrapState
from repro.sim import RngStreams, Simulator

SCORING = ThresholdScoring(2)


def make_backend(num_clients=3, template_rows=2, **kwargs):
    """A plain backend rig, *not yet started* — so tests can subscribe
    before the Central Client's template inserts become history."""
    sim = Simulator()
    network = Network(
        sim, default_latency=ConstantLatency(0.05), streams=RngStreams(0)
    )
    schema = soccer_player_schema()
    template = Template.cardinality(template_rows)
    backend = BackendServer(sim, network, schema, SCORING, template, **kwargs)
    clients = []
    for i in range(num_clients):
        client = WorkerClient(
            f"w{i}", schema, SCORING, network, streams=RngStreams(i)
        )
        client.bootstrap(backend.attach_client(client.worker_id))
        clients.append(client)
    return sim, backend, clients


def fill_row(client, row_id, values=None):
    values = values or {
        "name": "Messi", "nationality": "Argentina",
        "position": "FW", "caps": 83, "goals": 37,
    }
    for column, value in values.items():
        row_id = client.fill(row_id, column, value)
    return row_id


def drive_some_ops(sim, backend, clients):
    """A small deterministic burst: one full row (w0, with its
    completion auto-upvote), an upvote (w1), a partial fill (w1), and a
    downvote (w2) — every namespace of the replica gets populated, and
    each client keeps legal moves in reserve for the tests' tails."""
    backend.start()
    sim.run()
    fill_row(clients[0], clients[0].replica.table.row_ids()[0])
    sim.run()
    target = [
        r.row_id
        for r in clients[1].replica.table.rows()
        if r.value.is_complete(clients[1].schema.column_names)
    ][0]
    clients[1].upvote(target)
    sim.run()
    other = [r for r in clients[1].replica.table.row_ids() if r != target][0]
    clients[1].fill(other, "name", "Xavi")
    sim.run()
    clients[2].downvote(target)
    sim.run()
    return target


def extra_fill(sim, client, value="Spain"):
    """One more guaranteed-legal committed op: fill the partial row's
    empty ``nationality`` cell."""
    row = next(
        r for r in client.replica.table.rows()
        if dict(r.value.items()).get("name") == "Xavi"
    )
    client.fill(row.row_id, "nationality", value)
    sim.run()


def capture_doc(backend) -> str:
    return dump_json(canonical_state(BootstrapState.capture(backend.replica)))


# -- wire codecs --------------------------------------------------------------


def _json_round_trip(data: dict) -> dict:
    return json.loads(json.dumps(data, sort_keys=True))


def test_change_event_round_trips_through_json():
    event = ChangeEvent(
        position=7,
        shard_id=2,
        lseq=4,
        timestamp=12.5,
        worker_id="w1",
        message=InsertMessage(row_id="w1#3"),
    )
    data = _json_round_trip(event.to_dict())
    assert data["schema_version"] == 1
    rebuilt = change_event_from_dict(data)
    assert rebuilt == event
    assert rebuilt.to_dict() == event.to_dict()


def test_cut_round_trip_and_coverage_semantics():
    cut = Cut(position=9, counts=((0, 5), (2, 4)))
    rebuilt = cut_from_dict(_json_round_trip(cut.to_dict()))
    assert rebuilt == cut
    assert cut.count_for(0) == 5
    assert cut.count_for(1) == 0  # absent shard: empty prefix
    assert cut.covers(0, 4) and not cut.covers(0, 5)
    assert not cut.covers(1, 0)


def test_snapshot_chunk_round_trip_restores_tuples():
    low = Cut(position=3, counts=((0, 3),))
    chunk = SnapshotChunk(
        namespace="upvotes",
        entries=(((("caps", 83), ("name", "Messi")), 2),),
        superseded=(),
        boundary=(("caps", "int", "83"),),
        low=low,
        high=low,
    )
    rebuilt = chunk_from_dict(_json_round_trip(chunk.to_dict()))
    assert rebuilt == chunk
    assert isinstance(rebuilt.entries[0][0], tuple)
    assert isinstance(rebuilt.boundary[0], tuple)


# -- ChangeStream emission ----------------------------------------------------


def test_stream_positions_dense_and_cut_matches_trace():
    sim, backend, clients = make_backend()
    sub = backend.subscribe("test")
    drive_some_ops(sim, backend, clients)
    events = sub.take()
    assert events is not None and events
    assert [e.position for e in events] == list(range(len(events)))
    assert len(events) == len(backend.trace)
    assert all(e.shard_id == 0 for e in events)
    assert [e.lseq for e in events] == [r.seq for r in backend.trace]
    cut = backend.changes.cut()
    assert cut.position == len(backend.trace)
    assert cut.counts == ((0, len(backend.trace)),)


def test_stream_without_subscribers_only_counts(monkeypatch):
    import repro.cdc.subscription as subscription

    def no_events(**_fields):
        raise AssertionError("a change event was built with no subscriber")

    monkeypatch.setattr(subscription, "ChangeEvent", no_events)
    sim, backend, clients = make_backend()
    drive_some_ops(sim, backend, clients)
    assert backend.changes.position == len(backend.trace)


def test_events_carry_worker_attribution():
    sim, backend, clients = make_backend()
    sub = backend.subscribe("test")
    drive_some_ops(sim, backend, clients)
    events = sub.take()
    authors = {e.worker_id for e in events}
    assert "w0" in authors and "w1" in authors and "__central__" in authors
    for event, record in zip(events, backend.trace):
        assert event.worker_id == record.worker_id
        assert event.message is record.message
        assert event.timestamp == record.timestamp


# -- Subscription: ack, overflow, resync --------------------------------------


def test_ack_outside_epoch_bounds_raises():
    sim, backend, clients = make_backend()
    sub = backend.subscribe("test")
    drive_some_ops(sim, backend, clients)
    sent = sub.sent_count
    with pytest.raises(ValueError, match="acked"):
        sub.ack(sent + 1)
    sub.ack(sent)
    with pytest.raises(ValueError, match="acked"):
        sub.ack(sent - 1)  # cumulative count cannot move backwards


def test_overflow_marks_lost_and_resync_recovers():
    sim, backend, clients = make_backend()
    sub = backend.subscribe("small", capacity=2)
    drive_some_ops(sim, backend, clients)
    assert sub.lost
    assert sub.overflows == 1
    assert sub.poll() is None
    state, cut = sub.resync()
    assert dump_json(canonical_state(state)) == capture_doc(backend)
    assert cut.position == backend.changes.position
    assert not sub.lost
    # The new epoch flows events again.
    extra_fill(sim, clients[0])
    tail = sub.take()
    assert tail is not None and len(tail) >= 1


def test_closed_subscription_receives_nothing_more():
    sim, backend, clients = make_backend()
    sub = backend.subscribe("test")
    drive_some_ops(sim, backend, clients)
    seen = sub.sent_count
    sub.close()
    extra_fill(sim, clients[0])
    assert sub.sent_count == seen
    assert sub not in backend.changes.subscriptions


def test_subscribe_rejects_negative_capacity():
    sim, backend, clients = make_backend()
    with pytest.raises(ValueError, match="capacity"):
        backend.subscribe("negative", capacity=-1)


def test_poll_reads_the_trace_and_close_freezes_the_end():
    """A subscription is a position in its owner's trace: ``poll()``
    builds exactly ``trace[start:]``, field by field, and a closed
    subscription's events stop at the position it closed at."""
    sim, backend, clients = make_backend()
    backend.start()
    sim.run()
    start = backend.changes.position
    sub = backend.subscribe("mid")
    assert sub.start == start
    filled = fill_row(clients[0], clients[0].replica.table.row_ids()[0])
    sim.run()
    tail = backend.trace[start:]
    assert tail  # the fill really added history after the subscribe
    assert [
        (e.position, e.shard_id, e.lseq, e.timestamp, e.worker_id, e.message)
        for e in sub.poll()
    ] == [
        (r.seq, r.shard_id, r.lseq, r.timestamp, r.worker_id, r.message)
        for r in tail
    ]
    sub.ack(2)
    sub.close()
    closed_at = backend.changes.position
    other = [r for r in clients[1].replica.table.row_ids() if r != filled][0]
    clients[1].fill(other, "name", "Xavi")
    sim.run()
    assert backend.changes.position > closed_at
    assert sub.sent_count == closed_at - start
    assert [e.position for e in sub.poll()] == list(
        range(start + 2, closed_at)
    )


# -- from_cut resume ----------------------------------------------------------


def test_subscribe_from_covered_cut_replays_exact_suffix():
    sim, backend, clients = make_backend()
    witness = backend.subscribe("witness")
    backend.start()
    sim.run()
    mid_cut = backend.changes.cut()
    fill_row(clients[0], clients[0].replica.table.row_ids()[0])
    sim.run()
    resumed = backend.subscribe("resumed", from_cut=mid_cut)
    expected = [
        e for e in witness.take() if e.position >= mid_cut.position
    ]
    assert expected  # the second batch really added events
    assert resumed.take() == expected


def test_subscribe_from_stale_cut_is_lost_then_resyncs():
    sim, backend, clients = make_backend(oplog_capacity=4)
    backend.subscribe("activator")  # makes the stream build events
    drive_some_ops(sim, backend, clients)
    assert backend.changes.position > 4  # beyond the 4-event retention
    stale = backend.subscribe("stale", from_cut=Cut(0, ()))
    assert stale.lost
    assert stale.poll() is None
    state, _cut = stale.resync()
    assert dump_json(canonical_state(state)) == capture_doc(backend)


def test_subscribe_from_cut_before_first_subscriber_replays():
    """Replay reads the owner's trace, so a cut taken while nobody was
    subscribed still resumes inside the retention window."""
    sim, backend, clients = make_backend()
    backend.start()
    sim.run()
    early_cut = backend.changes.cut()
    fill_row(clients[0], clients[0].replica.table.row_ids()[0])
    sim.run()
    resumed = backend.subscribe("late", from_cut=early_cut)
    assert not resumed.lost
    events = resumed.take()
    tail = backend.trace[early_cut.position:]
    assert tail  # the fill really added history after the cut
    assert [e.position for e in events] == [r.seq for r in tail]
    assert [(e.shard_id, e.lseq) for e in events] == [
        (r.shard_id, r.lseq) for r in tail
    ]
    assert all(
        e.message is r.message and e.worker_id == r.worker_id
        for e, r in zip(events, tail)
    )


def test_subscribe_from_cut_retention_bound():
    """Exactly ``retention`` positions back still replays; one more is
    lost."""
    sim, backend, clients = make_backend(oplog_capacity=4)
    drive_some_ops(sim, backend, clients)
    position = backend.changes.position
    inside = backend.subscribe("inside", from_cut=Cut(position - 4, ()))
    assert not inside.lost
    assert [e.position for e in inside.take()] == list(
        range(position - 4, position)
    )
    outside = backend.subscribe("outside", from_cut=Cut(position - 5, ()))
    assert outside.lost
    assert outside.poll() is None


def test_crashed_owner_refuses_cdc_reads():
    """Reading a crashed shard would load its wiped replica: resync and
    chunk reads raise until it recovers, and the leaderboard sampler
    keeps its standings instead of refreshing."""
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, soccer_player_schema(), SCORING,
        Template.cardinality(2), shards=2, durability=DurabilityConfig(),
    )
    sub = backend.subscribe("reader")
    board = LeaderboardView(backend.subscribe("board"))
    backend.start()
    sim.run()
    before = board.sample()
    primary = backend.primary
    primary.crash()
    assert sub.lost
    with pytest.raises(StreamUnavailableError, match="crashed"):
        sub.resync()
    with pytest.raises(StreamUnavailableError, match="crashed"):
        sub.read_chunk()
    assert board.sample() == before
    primary.recover()
    primary.complete_recovery()
    assert sub.read_chunk() is not None
    state, cut = sub.resync()
    assert dump_json(canonical_state(state)) == capture_doc(backend)
    assert cut == backend.changes.cut()
    board.sample()
    assert dump_json(canonical_state(board.view.state())) == capture_doc(
        backend
    )


def test_subscribe_from_cut_gap_past_capacity_overflows_at_once():
    """A ``from_cut`` gap inside the replay horizon but larger than the
    subscription's capacity leaves it lost, counted as one overflow."""
    sim, backend, clients = make_backend(oplog_capacity=64)
    drive_some_ops(sim, backend, clients)
    position = backend.changes.position
    assert position > 3
    sub = backend.subscribe("narrow", from_cut=Cut(0, ()), capacity=3)
    assert sub.lost
    assert sub.overflows == 1
    assert sub.poll() is None
    wide = backend.subscribe("wide", from_cut=Cut(0, ()), capacity=position)
    assert not wide.lost and wide.overflows == 0
    extra_fill(sim, clients[0])
    assert wide.lost and wide.overflows == 1  # one op past its bound
    assert sub.overflows == 1  # a lost subscription is not re-counted


def test_subscribe_on_a_crashed_owner_raises():
    """A consumer attaching while the owner is crashed would start at
    the wiped stream's position 0 and never see the recovered history:
    subscribe raises until the owner has recovered, and a view attached
    after recovery converges to the recovered state."""
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = ShardedBackend(
        sim, network, soccer_player_schema(), SCORING,
        Template.cardinality(2), shards=2, durability=DurabilityConfig(),
    )
    backend.start()
    sim.run()
    primary = backend.primary
    primary.crash()
    with pytest.raises(StreamUnavailableError, match="crashed"):
        backend.subscribe("late")
    primary.recover()
    primary.complete_recovery()
    view = CdcView(backend.subscribe("late")).bootstrap()
    view.refresh()
    assert len(view.rows) == len(primary.replica.table) == 2
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)


def test_subscribe_from_future_cut_raises():
    sim, backend, clients = make_backend()
    with pytest.raises(ValueError, match="position"):
        backend.subscribe("future", from_cut=Cut(99, ((0, 99),)))


# -- CdcView: chunked bootstrap and live tail ---------------------------------


def test_view_subscribed_at_birth_is_live_immediately():
    sim, backend, clients = make_backend()
    view = CdcView(backend.subscribe("birth"))
    assert view.live
    drive_some_ops(sim, backend, clients)
    view.refresh()
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)
    assert view.cut.position == backend.changes.position


def test_midrun_chunked_bootstrap_converges_to_capture():
    sim, backend, clients = make_backend()
    drive_some_ops(sim, backend, clients)
    view = CdcView(backend.subscribe("late"), label="late")
    assert not view.live  # history predates the subscription
    view.bootstrap(max_entries=2)
    assert view.live
    assert view.sub.chunks_read >= 3  # every namespace was walked
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)
    # The live tail keeps tracking.
    extra_fill(sim, clients[2])
    assert view.refresh() >= 1
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)


def test_bootstrap_interleaved_with_live_commits():
    """Events that land between chunk reads are certified against the
    chunk windows: replayed iff their window's cut predates them."""
    sim, backend, clients = make_backend()
    drive_some_ops(sim, backend, clients)
    view = CdcView(backend.subscribe("interleaved"))
    assert view.step(max_entries=1)  # first rows chunk only
    # The producer keeps committing mid-bootstrap.
    extra_fill(sim, clients[0])
    view.bootstrap(max_entries=1)
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)


def test_view_overflow_during_tail_falls_back_to_snapshot():
    sim, backend, clients = make_backend()
    view = CdcView(backend.subscribe("tiny", capacity=2))
    drive_some_ops(sim, backend, clients)
    assert view.sub.lost
    view.refresh()  # overflow path: snapshot fallback, then live again
    assert view.sub.snapshot_fallbacks == 1
    assert dump_json(canonical_state(view.state())) == capture_doc(backend)


def test_refresh_before_bootstrap_raises():
    sim, backend, clients = make_backend()
    drive_some_ops(sim, backend, clients)
    view = CdcView(backend.subscribe("early"))
    with pytest.raises(RuntimeError, match="bootstrapping"):
        view.refresh()


# -- the leaderboard consumer -------------------------------------------------


def _trace_tallies(backend):
    counts: dict[str, dict[str, int]] = {}
    for record in backend.worker_trace():
        tally = counts.setdefault(
            record.worker_id,
            {"fills": 0, "inserts": 0, "upvotes": 0, "downvotes": 0,
             "undos": 0},
        )
        message = record.message
        if isinstance(message, ReplaceMessage):
            tally["fills"] += 1
        elif isinstance(message, InsertMessage):
            tally["inserts"] += 1
        elif isinstance(message, UpvoteMessage):
            tally["upvotes"] += 1
        elif type(message).__name__ == "DownvoteMessage":
            tally["downvotes"] += 1
        else:
            tally["undos"] += 1
    return counts


def test_leaderboard_at_birth_matches_trace():
    sim, backend, clients = make_backend()
    board = LeaderboardView(backend.subscribe("board"))
    drive_some_ops(sim, backend, clients)
    snapshot = board.snapshot()
    assert snapshot.position == backend.changes.position
    assert snapshot.events == len(backend.trace)
    assert snapshot.events - snapshot.central_events == len(
        backend.worker_trace()
    )
    assert snapshot.candidate_rows == len(backend.replica.table)
    expected = _trace_tallies(backend)
    assert {t.worker_id for t in snapshot.workers} == set(expected)
    for tally in snapshot.workers:
        for kind, count in expected[tally.worker_id].items():
            assert getattr(tally, kind) == count
    # Standings order: busiest first, ties by id.
    totals = [t.total for t in snapshot.workers]
    assert totals == sorted(totals, reverse=True)
    assert snapshot.to_dict()["workers"][0]["total"] == totals[0]


def test_leaderboard_midrun_attach_tallies_tail_only():
    sim, backend, clients = make_backend()
    drive_some_ops(sim, backend, clients)
    board = LeaderboardView(backend.subscribe("late-board"))
    assert board.snapshot().events == 0  # history is not re-attributed
    assert board.snapshot().candidate_rows == len(backend.replica.table)
    extra_fill(sim, clients[1])
    snapshot = board.snapshot()
    assert snapshot.events == 1
    assert snapshot.workers[0].worker_id == "w1"
    assert snapshot.workers[0].fills == 1


# -- the session facade -------------------------------------------------------


def test_session_facade_exposes_cdc():
    from repro.session import CollectionSession

    session = CollectionSession(
        seed=3, schema=soccer_player_schema(), scoring=SCORING,
        target_rows=2,
    )
    board = session.leaderboard()
    assert session.leaderboard() is board  # one per session, cached
    sub = session.subscribe("probe")
    assert sub.stream is session.backend.changes
    state, cut = session.snapshot_cut()
    assert cut.position == session.backend.changes.position
    assert dump_json(canonical_state(state)) == capture_doc(session.backend)


# -- follower bootstrap (quiet stream) ----------------------------------------


def test_follower_bootstrap_on_quiet_stream_and_tail_exchange():
    from tests.test_shard_convergence import (
        _PINNED_SCHEDULE,
        _run_sharded_schedule,
    )

    backend, clients, injector, network = _run_sharded_schedule(
        2, 3, _PINNED_SCHEDULE, fault_seed=4, latency_seed=9
    )
    bootstrap = backend.bootstrap_follower("replica-a", chunk_entries=4)
    while not bootstrap.live:
        bootstrap.step()
    follower = bootstrap.promote()
    assert follower in backend.followers
    assert follower.shard_id == 2
    assert follower.replica.snapshot() == backend.primary.replica.snapshot()
    assert (
        follower.replica.table.history_snapshot()
        == backend.primary.replica.table.history_snapshot()
    )
    # Fresh commits after promotion reach the follower via exchange —
    # a just-attached client has a legal downvote on any row.
    sim = backend.primary.sim
    from tests.test_shard_convergence import SCHEMA as MINI_SCHEMA

    late = WorkerClient(
        "late", MINI_SCHEMA, SCORING, network, streams=RngStreams(99)
    )
    late.bootstrap(backend.attach_client("late"))
    sim.run()
    late.downvote(late.replica.table.row_ids()[0])
    sim.run()
    assert backend.exchange_backlog() == 0
    assert backend.fully_exchanged()
    assert follower.replica.snapshot() == backend.primary.replica.snapshot()
    # Promotion is one-shot.
    with pytest.raises(RuntimeError):
        bootstrap.promote()


_CELLS = {"name": ["A", "B"], "nationality": ["X", "Y"], "caps": [1, True, 1.0]}


def _cell_values():
    return st.dictionaries(
        st.sampled_from(sorted(_CELLS)),
        st.integers(0, 2),
    ).map(
        lambda picks: RowValue(
            {column: _CELLS[column][i % len(_CELLS[column])]
             for column, i in picks.items()}
        )
    )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_cell_values(), max_size=8),
    st.dictionaries(_cell_values(), st.integers(-2, 3), max_size=8),
)
def test_state_downvotes_are_the_subset_sums_of_the_history(rows, downvotes):
    """The anchored index finds every DH entry under a row exactly once:
    the same counts as summing over the whole history per row."""
    view = CdcView.__new__(CdcView)
    view._columns = soccer_player_schema().column_names
    view.rows = {f"r{i}": value for i, value in enumerate(rows)}
    view.upvotes = {}
    view.downvotes = downvotes
    view.superseded = set()
    expected = [
        sum(count for w, count in downvotes.items() if w.issubset(value))
        for _, value in sorted(view.rows.items())
    ]
    assert [down for *_, down in view.state().rows] == expected
