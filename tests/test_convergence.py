"""Property tests for the convergence theorem (paper section 2.4.2).

The theorem: starting from identical copies, after the system processes
an arbitrary set of concurrently generated messages and quiesces, the
server and every client hold identical candidate tables (rows AND vote
counts) and identical vote histories.

We drive a pure model-level client/server assembly (no Central Client,
no worker policies — just the formal model) with randomly generated
operations at random clients and random times over a network whose
per-link latencies deliberately shuffle cross-client arrival orders,
then assert convergence and the Lemma 3 vote invariants.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import Column, DataType, OperationError, Replica, Schema
from repro.core.scoring import DefaultScoring, ThresholdScoring
from repro.net import ConstantLatency, Network, UniformLatency
from repro.server.backend import BackendServer
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

KEYS = ["x", "y", "z"]
INTS = [1, 2, 3]
STRS = ["p", "q"]


class _ModelServer:
    """The formal model's server: apply, then forward to all but origin."""

    def __init__(self, sim, network, scoring, client_names):
        self.replica = Replica("server", SCHEMA, scoring)
        self.network = network
        self.client_names = client_names

    def on_message(self, source, payload):
        self.replica.receive(payload)
        for name in self.client_names:
            if name != source:
                self.network.send("server", name, payload)


class _ModelClient:
    """A worker client at the model level: its replica plus the wire."""

    def __init__(self, name, sim, network, scoring):
        self.name = name
        self.replica = Replica(name, SCHEMA, scoring)
        self.network = network

    def on_message(self, source, payload):
        self.replica.receive(payload)

    def perform(self, op_kind, row_pick, column_pick, value_pick):
        """Attempt one random operation; skipped if preconditions fail."""
        try:
            if op_kind == "insert":
                message = self.replica.insert()
            else:
                row_ids = self.replica.table.row_ids()
                if not row_ids:
                    return
                row_id = row_ids[row_pick % len(row_ids)]
                if op_kind == "fill":
                    column = SCHEMA.column_names[
                        column_pick % len(SCHEMA.column_names)
                    ]
                    pools = {"k": KEYS, "a": INTS, "b": STRS}
                    value = pools[column][value_pick % len(pools[column])]
                    message = self.replica.fill(row_id, column, value)
                elif op_kind == "upvote":
                    message = self.replica.upvote(row_id)
                else:
                    message = self.replica.downvote(row_id)
        except OperationError:
            return
        self.network.send(self.name, "server", message)


def _run_schedule(num_clients, schedule, latency_seed, scoring):
    sim = Simulator()
    network = Network(
        sim,
        default_latency=UniformLatency(0.01, 3.0),
        streams=RngStreams(latency_seed),
    )
    names = [f"c{i}" for i in range(num_clients)]
    server = _ModelServer(sim, network, scoring, names)
    network.register("server", server)
    clients = []
    for name in names:
        client = _ModelClient(name, sim, network, scoring)
        network.register(name, client)
        clients.append(client)

    for at, client_index, op_kind, row_pick, column_pick, value_pick in schedule:
        client = clients[client_index % num_clients]
        sim.schedule_at(
            at,
            lambda c=client, k=op_kind, r=row_pick, col=column_pick, v=value_pick: (
                c.perform(k, r, col, v)
            ),
        )
    sim.run()
    assert network.quiescent()
    return server, clients


operation = st.tuples(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=9),  # client pick
    st.sampled_from(["insert", "fill", "fill", "fill", "upvote", "downvote"]),
    st.integers(min_value=0, max_value=9),  # row pick
    st.integers(min_value=0, max_value=9),  # column pick
    st.integers(min_value=0, max_value=9),  # value pick
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=40),
    num_clients=st.integers(min_value=2, max_value=5),
    latency_seed=st.integers(min_value=0, max_value=1000),
)
def test_convergence_theorem(schedule, num_clients, latency_seed):
    server, clients = _run_schedule(
        num_clients, sorted(schedule), latency_seed, DefaultScoring()
    )
    reference = server.replica.snapshot()
    reference_history = server.replica.table.history_snapshot()
    for client in clients:
        assert client.replica.snapshot() == reference
        assert client.replica.table.history_snapshot() == reference_history
    # Lemma 3's invariants hold everywhere.
    server.replica.table.check_vote_invariants()
    for client in clients:
        client.replica.table.check_vote_invariants()


@settings(max_examples=20, deadline=None)
@given(
    schedule=st.lists(operation, min_size=1, max_size=30),
    latency_seed=st.integers(min_value=0, max_value=100),
)
def test_convergence_with_threshold_scoring(schedule, latency_seed):
    """Convergence is independent of the scoring function."""
    server, clients = _run_schedule(
        3, sorted(schedule), latency_seed, ThresholdScoring(2)
    )
    for client in clients:
        assert client.replica.snapshot() == server.replica.snapshot()


def test_same_column_concurrent_fill_yields_two_rows():
    """Section 2.4.1: same row, same column, different values — all
    copies end with two rows, one per value."""
    sim = Simulator()
    network = Network(sim, default_latency=UniformLatency(0.5, 1.5),
                      streams=RngStreams(4))
    server = _ModelServer(sim, network, DefaultScoring(), ["c0", "c1"])
    network.register("server", server)
    clients = [
        _ModelClient("c0", sim, network, DefaultScoring()),
        _ModelClient("c1", sim, network, DefaultScoring()),
    ]
    for client in clients:
        network.register(client.name, client)

    # Seed a shared row via c0.
    message = clients[0].replica.insert()
    network.send("c0", "server", message)
    sim.run()
    row_id = message.row_id

    def fill(client, value):
        reply = client.replica.fill(row_id, "k", value)
        network.send(client.name, "server", reply)

    sim.schedule(0.0, lambda: fill(clients[0], "x"))
    sim.schedule(0.0, lambda: fill(clients[1], "y"))
    sim.run()

    values = sorted(dict(r.value)["k"] for r in server.replica.table.rows())
    assert values == ["x", "y"]
    for client in clients:
        assert client.replica.snapshot() == server.replica.snapshot()


def test_different_column_concurrent_fill_paper_example():
    """Section 2.4.1's Messi example: fills on different columns of the
    same row produce two partial rows, not one merged (wrong) row."""
    sim = Simulator()
    network = Network(sim, default_latency=UniformLatency(0.5, 1.5),
                      streams=RngStreams(9))
    server = _ModelServer(sim, network, DefaultScoring(), ["c0", "c1"])
    network.register("server", server)
    clients = [
        _ModelClient("c0", sim, network, DefaultScoring()),
        _ModelClient("c1", sim, network, DefaultScoring()),
    ]
    for client in clients:
        network.register(client.name, client)

    message = clients[0].replica.insert()
    network.send("c0", "server", message)
    sim.run()
    row_id = message.row_id

    def fill(client, column, value):
        reply = client.replica.fill(row_id, column, value)
        network.send(client.name, "server", reply)

    sim.schedule(0.0, lambda: fill(clients[0], "k", "Messi"))
    sim.schedule(0.0, lambda: fill(clients[1], "a", 1))
    sim.run()

    values = [dict(r.value) for r in server.replica.table.rows()]
    assert {"k": "Messi"} in values
    assert {"a": 1} in values
    assert len(values) == 2  # never merged in place
    for client in clients:
        assert client.replica.snapshot() == server.replica.snapshot()


def test_reliable_delivery_assumption_is_necessary():
    """The theorem assumes reliable delivery.  Drop a single broadcast
    and the copies genuinely diverge — the assumption is load-bearing,
    not decorative."""
    sim = Simulator()
    network = Network(sim, default_latency=UniformLatency(0.1, 0.5),
                      streams=RngStreams(2))
    server = _ModelServer(sim, network, DefaultScoring(), ["c0", "c1"])
    network.register("server", server)
    clients = [
        _ModelClient("c0", sim, network, DefaultScoring()),
        _ModelClient("c1", sim, network, DefaultScoring()),
    ]
    for client in clients:
        network.register(client.name, client)

    message = clients[0].replica.insert()
    network.send("c0", "server", message)
    sim.run()

    # Sabotage: a black hole swallows c1's next broadcast, then the real
    # client is reattached — one lost message, nothing else changed.
    class _BlackHole:
        def on_message(self, source, payload):
            pass

    network.unregister("c1")
    network.register("c1", _BlackHole())
    fill = clients[0].replica.fill(message.row_id, "k", "x")
    network.send("c0", "server", fill)
    sim.run()
    network.unregister("c1")
    network.register("c1", clients[1])

    # More traffic after the loss: still in-order, still delivered.
    fill2 = clients[0].replica.fill(fill.new_id, "a", 1)
    network.send("c0", "server", fill2)
    sim.run()

    assert network.quiescent()
    assert clients[1].replica.snapshot() != server.replica.snapshot()
    assert clients[0].replica.snapshot() == server.replica.snapshot()


def test_full_client_server_stack_converges():
    """The production assembly — BackendServer and WorkerClients, not
    the formal model — runs a busy fill/vote schedule and converges."""
    scoring = ThresholdScoring(2)
    sim = Simulator()
    net = Network(
        sim, default_latency=ConstantLatency(0.05), streams=RngStreams(7)
    )
    backend = BackendServer(
        sim, net, SCHEMA, scoring, Template.cardinality(2), oplog_capacity=64
    )
    streams = RngStreams(7)
    clients = {}
    for name in ("c0", "c1"):
        client = WorkerClient(name, SCHEMA, scoring, net, streams=streams)
        client.bootstrap(backend.attach_client(name))
        clients[name] = client
    backend.start()

    def act(client, kind, row_pick, value):
        row_ids = client.replica.table.row_ids()
        if not row_ids:
            return
        row_id = row_ids[row_pick % len(row_ids)]
        try:
            if kind == "fill":
                client.fill(row_id, "k", value)
            elif kind == "upvote":
                client.upvote(row_id)
            else:
                client.downvote(row_id)
        except OperationError:
            pass

    plan = [
        (0.1, "c0", "fill", 0, "x"), (0.2, "c1", "fill", 1, "y"),
        (0.4, "c0", "upvote", 0, ""), (0.5, "c1", "fill", 0, "z"),
        (0.7, "c1", "downvote", 0, ""), (0.9, "c0", "fill", 1, "x"),
        (1.1, "c1", "upvote", 1, ""), (1.3, "c0", "downvote", 1, ""),
    ]
    for at, who, kind, row_pick, value in plan:
        sim.schedule_at(
            at,
            lambda c=clients[who], k=kind, r=row_pick, v=value: act(c, k, r, v),
        )
    sim.run()
    assert net.quiescent()
    net.check_accounting()
    reference = backend.replica.snapshot()
    for client in clients.values():
        assert client.replica.snapshot() == reference
