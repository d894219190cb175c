"""Unit tests for the back-end server: broadcast, trace, completion."""

import random

import pytest

from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import ThresholdScoring
from repro.core.schema import soccer_player_schema
from repro.net import (
    ConstantLatency,
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    Network,
)
from repro.server import BackendServer
from repro.sim import RngStreams, Simulator

SCORING = ThresholdScoring(2)


def make_system(template=None, num_clients=2, **kwargs):
    sim = Simulator()
    network = Network(sim, default_latency=ConstantLatency(0.05),
                      streams=RngStreams(0))
    schema = soccer_player_schema()
    template = template or Template.cardinality(2)
    backend = BackendServer(sim, network, schema, SCORING, template, **kwargs)
    clients = []
    for i in range(num_clients):
        client = WorkerClient(f"w{i}", schema, SCORING, network,
                              streams=RngStreams(i))
        client.bootstrap(backend.attach_client(client.worker_id))
        clients.append(client)
    backend.start()
    sim.run()
    return sim, network, backend, clients


def complete_row(client, row_id, values=None):
    values = values or {
        "name": "Messi", "nationality": "Argentina",
        "position": "FW", "caps": 83, "goals": 37,
    }
    for column, value in values.items():
        row_id = client.fill(row_id, column, value)
    return row_id


def test_start_initializes_central_client():
    _, _, backend, clients = make_system()
    assert len(backend.replica.table) == 2
    assert backend.central.pri_holds()


def test_broadcast_reaches_all_other_clients():
    sim, _, backend, clients = make_system(num_clients=3)
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    snapshots = {c.snapshot() for c in clients}
    snapshots.add(backend.replica.snapshot())
    snapshots.add(backend.central.replica.snapshot())
    assert len(snapshots) == 1


def test_trace_records_worker_and_cc_messages():
    sim, _, backend, clients = make_system()
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    workers = {record.worker_id for record in backend.trace}
    assert "w0" in workers
    assert "__central__" in workers
    assert backend.worker_trace()
    assert all(r.worker_id == "w0" for r in backend.worker_trace())


def test_trace_seq_strictly_increasing():
    sim, _, backend, clients = make_system()
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    seqs = [record.seq for record in backend.trace]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_trace_listener_sees_worker_records_only():
    sim, _, backend, clients = make_system()
    seen = []
    backend.add_trace_listener(seen.append)
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    assert seen
    assert all(record.worker_id == "w0" for record in seen)


def test_completion_detected():
    sim, _, backend, clients = make_system(
        template=Template.cardinality(1), num_clients=2
    )
    assert not backend.completed
    row_id = clients[0].replica.table.row_ids()[0]
    complete_row(clients[0], row_id)
    sim.run()
    assert not backend.completed  # one auto-upvote is not enough
    # The other worker upvotes the complete row.
    target = [
        r.row_id
        for r in clients[1].replica.table.rows()
        if r.value.is_complete(clients[1].schema.column_names)
    ][0]
    clients[1].upvote(target)
    sim.run()
    assert backend.completed
    assert backend.completion_time is not None


def test_on_complete_callback_fires_once():
    fired = []
    sim, _, backend, clients = make_system(
        template=Template.cardinality(1),
        on_complete=lambda: fired.append(1),
    )
    row_id = clients[0].replica.table.row_ids()[0]
    row_id = complete_row(clients[0], row_id)
    sim.run()
    target = [
        r.row_id
        for r in clients[1].replica.table.rows()
        if r.value.is_complete(clients[1].schema.column_names)
    ][0]
    clients[1].upvote(target)
    sim.run()
    assert fired == [1]


def test_attach_client_after_start_bootstraps_current_state():
    sim, network, backend, clients = make_system()
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    late = WorkerClient("late", soccer_player_schema(), SCORING, network,
                        streams=RngStreams(9))
    late.bootstrap(backend.attach_client("late"))
    assert late.snapshot() == backend.replica.snapshot()


def test_duplicate_attach_rejected():
    _, _, backend, _ = make_system()
    with pytest.raises(ValueError):
        backend.attach_client("w0")


def test_detach_stops_broadcast():
    sim, _, backend, clients = make_system()
    backend.detach_client("w1")
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    assert clients[1].snapshot() != backend.replica.snapshot()


def test_double_start_rejected():
    sim = Simulator()
    network = Network(sim, streams=RngStreams(0))
    backend = BackendServer(
        sim, network, soccer_player_schema(), SCORING, Template.cardinality(1)
    )
    backend.start()
    with pytest.raises(RuntimeError):
        backend.start()


def test_detach_then_attach_round_trip_snapshot_path():
    """The pre-session path: a detached client may attach anew and gets
    a fresh snapshot identical to the master."""
    sim, network, backend, clients = make_system()
    backend.detach_client("w1")
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    assert clients[1].snapshot() != backend.replica.snapshot()
    late = WorkerClient("w1b", soccer_player_schema(), SCORING, network,
                        streams=RngStreams(7))
    late.bootstrap(backend.attach_client("w1b"))
    assert late.snapshot() == backend.replica.snapshot()


def test_reattach_resyncs_missed_broadcasts_incrementally():
    sim, _, backend, clients = make_system(num_clients=3)
    backend.detach_client("w1")
    clients[1].disconnect()
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    sim.run()
    assert clients[1].snapshot() != backend.replica.snapshot()
    kind = clients[1].reconnect(backend)
    sim.run()
    assert kind == "incremental"
    assert clients[1].snapshot() == backend.replica.snapshot()
    assert backend.session("w1").resyncs_incremental == 1


def test_reattach_replays_operations_buffered_while_detached():
    sim, _, backend, clients = make_system(num_clients=2)
    backend.detach_client("w1")
    clients[1].disconnect()
    # Both sides act during the outage.
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    other = clients[1].replica.table.row_ids()[1]
    clients[1].fill(other, "name", "Xavi")
    sim.run()
    assert clients[1].pending_ops == 1
    clients[1].reconnect(backend)
    sim.run()
    assert clients[1].pending_ops == 0
    assert clients[1].snapshot() == backend.replica.snapshot()
    assert clients[0].snapshot() == backend.replica.snapshot()
    names = {dict(r.value).get("name") for r in backend.replica.table.rows()}
    assert {"Messi", "Xavi"} <= names


def test_detach_with_messages_in_flight_toward_client():
    """Regression: messages already on the wire when the client detaches
    are still delivered (plain detach does not purge the network), the
    client's received count acknowledges them, and resync does not
    re-apply them."""
    sim, _, backend, clients = make_system(num_clients=2)
    row_id = clients[0].replica.table.row_ids()[0]
    clients[0].fill(row_id, "name", "Messi")
    # Run past the server's receipt (+0.05) so the broadcast to w1 is
    # on the wire, then detach before it lands (+0.10).
    sim.run(until=sim.now + 0.06)
    backend.detach_client("w1")
    clients[1].disconnect()
    sim.run()  # the in-flight broadcast lands anyway
    assert clients[1].snapshot() == backend.replica.snapshot()
    before = clients[1].replica.messages_processed
    kind = clients[1].reconnect(backend)
    sim.run()
    assert kind == "incremental"
    # Nothing was missed, so nothing was replayed or double-applied.
    assert clients[1].replica.messages_processed == before
    assert clients[1].snapshot() == backend.replica.snapshot()


def test_reattach_falls_back_to_snapshot_when_oplog_truncated():
    sim, network, backend, clients = make_system(num_clients=2,
                                                 oplog_capacity=2)
    backend.detach_client("w1")
    clients[1].disconnect()
    row_id = clients[0].replica.table.row_ids()[0]
    for column, value in [
        ("name", "Messi"), ("nationality", "Argentina"),
        ("position", "FW"), ("caps", 83), ("goals", 37),
    ]:
        row_id = clients[0].fill(row_id, column, value)
        sim.run()
    kind = clients[1].reconnect(backend)
    sim.run()
    assert kind == "snapshot"
    assert backend.session("w1").resyncs_snapshot == 1
    assert clients[1].snapshot() == backend.replica.snapshot()


def test_snapshot_resync_preserves_offline_operations():
    sim, _, backend, clients = make_system(num_clients=2, oplog_capacity=2)
    backend.detach_client("w1")
    clients[1].disconnect()
    mine = clients[1].replica.table.row_ids()[1]
    clients[1].fill(mine, "name", "Xavi")  # buffered offline
    row_id = clients[0].replica.table.row_ids()[0]
    for column, value in [
        ("name", "Messi"), ("nationality", "Argentina"),
        ("position", "FW"), ("caps", 83), ("goals", 37),
    ]:
        row_id = clients[0].fill(row_id, column, value)
        sim.run()
    kind = clients[1].reconnect(backend)
    sim.run()
    assert kind == "snapshot"
    assert clients[1].snapshot() == backend.replica.snapshot()
    names = {dict(r.value).get("name") for r in backend.replica.table.rows()}
    assert "Xavi" in names


def test_reattach_errors():
    sim, _, backend, clients = make_system(num_clients=2)
    with pytest.raises(ValueError):
        backend.reattach_client("ghost", 0)
    with pytest.raises(ValueError):
        backend.reattach_client("w1", 0)  # still attached
    backend.detach_client("w1")
    with pytest.raises(ValueError):
        backend.reattach_client("w1", 10_000)  # acked more than sent
    with pytest.raises(ValueError):
        backend.reattach_client("w1", -1)


def test_reconnect_while_connected_rejected():
    from repro.core import OperationError

    sim, _, backend, clients = make_system(num_clients=2)
    with pytest.raises(OperationError):
        clients[1].reconnect(backend)


def test_oplog_truncation_bound():
    """Resync retains exactly the newest ``oplog_capacity`` trace
    records: a gap of that many replays incrementally, one more forces
    a snapshot."""
    fills = [("name", "Messi"), ("nationality", "Argentina"),
             ("position", "FW"), ("caps", 83)]
    for applied, kind in ((3, "incremental"), (4, "snapshot")):
        sim, _, backend, clients = make_system(num_clients=2,
                                               oplog_capacity=3)
        backend.detach_client("w1")
        clients[1].disconnect()
        before = len(backend.trace)
        row_id = clients[0].replica.table.row_ids()[0]
        for column, value in fills[:applied]:
            row_id = clients[0].fill(row_id, column, value)
            sim.run()
        assert len(backend.trace) - before == applied
        assert clients[1].reconnect(backend) == kind
        sim.run()
        assert clients[1].snapshot() == backend.replica.snapshot()
    with pytest.raises(ValueError, match="capacity"):
        make_system(oplog_capacity=0)


def test_current_template_reflects_drops():
    sim, _, backend, clients = make_system(
        template=Template.from_values([{"nationality": "Brazil"}])
    )
    target = [
        r.row_id
        for r in clients[0].replica.table.rows()
        if dict(r.value).get("nationality") == "Brazil"
    ][0]
    clients[0].downvote(target)
    sim.run()
    clients[1].downvote(
        [r.row_id for r in clients[1].replica.table.rows()
         if dict(r.value).get("nationality") == "Brazil"][0]
    )
    sim.run()
    assert len(backend.current_template()) == 0


FILLS = [("name", "Messi"), ("nationality", "Argentina"),
         ("position", "FW"), ("caps", 83)]


def _outage(network, backend, client):
    """An outage begins: detach, disconnect, purge the client's links."""
    backend.detach_client(client.worker_id)
    client.disconnect()
    network.drop_in_flight(client.worker_id)


@pytest.mark.parametrize("lost, kind", [(3, "incremental"), (4, "snapshot")])
def test_sends_purged_by_an_outage_replay_within_the_oplog(lost, kind):
    """Sends an outage purges from the wire are unacknowledged: up to
    ``oplog_capacity`` of them replay incrementally, one more forces a
    snapshot."""
    sim, network, backend, clients = make_system(num_clients=2,
                                                 oplog_capacity=3)
    before = len(backend.trace)
    processed = clients[1].replica.messages_processed
    row_id = clients[0].replica.table.row_ids()[0]
    for column, value in FILLS[:lost]:
        row_id = clients[0].fill(row_id, column, value)
    # Past the server's receipt (+0.05), before the broadcasts land.
    sim.run(until=sim.now + 0.06)
    assert len(backend.trace) - before == lost
    _outage(network, backend, clients[1])
    session = backend.session("w1")
    assert session.sent_count == clients[1].messages_received + lost
    assert clients[1].reconnect(backend) == kind
    sim.run()
    assert clients[1].snapshot() == backend.replica.snapshot()
    if kind == "incremental":
        assert clients[1].replica.messages_processed == processed + lost
        assert session.resyncs_incremental == 1
    else:
        assert session.resyncs_snapshot == 1
    assert session.sent_count == clients[1].messages_received


def test_outage_interrupting_a_replay_applies_each_op_once():
    """A second outage cuts an incremental replay short; the next
    reattach replays only what the client still lacks, so each op is
    applied exactly once."""
    sim, network, backend, clients = make_system(num_clients=2)
    _outage(network, backend, clients[1])
    processed = clients[1].replica.messages_processed
    row_id = clients[0].replica.table.row_ids()[0]
    for column, value in FILLS[:3]:
        row_id = clients[0].fill(row_id, column, value)
    sim.run()
    assert clients[1].reconnect(backend) == "incremental"
    assert sim.step()  # the first replayed message lands ...
    assert clients[1].replica.messages_processed == processed + 1
    _outage(network, backend, clients[1])  # ... the other two are lost
    assert clients[1].reconnect(backend) == "incremental"
    sim.run()
    assert clients[1].replica.messages_processed == processed + 3
    assert clients[1].snapshot() == backend.replica.snapshot()
    assert backend.session("w1").resyncs_incremental == 2
    assert backend.session("w1").sent_count == clients[1].messages_received


def test_bind_faults_late_binds_a_client_that_arrives_after_install():
    """The outage handlers look the client up when a window fires: a
    window that opens before the client exists is a no-op, and one that
    opens after it attached detaches it, hands its purged send back to
    its outbox, and resyncs it at the window end."""
    sim, network, backend, _ = make_system(num_clients=0)
    registry = {}
    plan = FaultPlan(disconnects=(
        DisconnectWindow("late", 1.0, 2.0),
        DisconnectWindow("late", 5.0, 6.0),
    ))
    injector = FaultInjector(sim, network, plan)
    backend.bind_faults(injector, clients=registry)
    injector.install()
    sim.run(until=3.0)
    assert [event.kind for event in injector.events] == [
        "disconnect", "reconnect",
    ]
    assert backend.session("late") is None

    late = WorkerClient("late", soccer_player_schema(), SCORING, network,
                        streams=RngStreams(7))
    late.bootstrap(backend.attach_client("late"))
    registry["late"] = late
    row_id = late.replica.table.row_ids()[0]
    # In flight (50 ms) when the second window opens at 5.0.
    sim.schedule_at(4.99, lambda: late.fill(row_id, "name", "Messi"))
    sim.run(until=5.5)
    assert not late.connected and late.disconnects == 1
    assert "late" not in backend.clients
    assert late.pending_ops == 1
    assert backend.replica.snapshot() != late.snapshot()

    sim.run()
    assert late.connected and late.resync_kinds == ["incremental"]
    assert late.pending_ops == 0
    assert late.snapshot() == backend.replica.snapshot()
    names = {dict(r.value).get("name") for r in backend.replica.table.rows()}
    assert "Messi" in names


def test_broadcast_recipients_follow_every_change_of_the_client_set():
    """Every change of the client set shows in the next broadcast: a
    detach, an attach that restores the old size with another member,
    and a reattach (which replays what the client missed)."""
    from repro.core import RowValue
    from repro.core.messages import DownvoteMessage

    sim = Simulator()
    network = Network(sim, default_latency=ConstantLatency(0.05),
                      streams=RngStreams(0))
    backend = BackendServer(sim, network, soccer_player_schema(), SCORING,
                            Template.cardinality(1))
    got = {name: [] for name in ("a", "b", "c")}
    for name in got:
        sink = type("Sink", (), {})()
        sink.on_message = lambda source, payload, name=name: got[name].append(payload)
        network.register(name, sink)
    backend.attach_client("a")
    backend.attach_client("b")
    backend.start()
    sim.run()
    votes = [DownvoteMessage(value=RowValue({"name": f"P{i}"})) for i in range(5)]

    def vote(i):
        backend.ingest("a", [votes[i]])
        sim.run()

    vote(0)
    backend.detach_client("b")
    vote(1)
    backend.attach_client("c")
    vote(2)
    assert votes[0] in got["b"]
    assert votes[1] not in got["b"] and votes[2] not in got["b"]
    assert got["c"] == [votes[2]]
    backend.detach_client("c")
    vote(3)
    result = backend.reattach_client("b", received_count=len(got["b"]))
    assert result.kind == "incremental"
    vote(4)
    assert got["b"][-4:] == votes[1:]
    assert got["c"] == [votes[2]]
    assert all(v not in got["a"] for v in votes)
