"""System-level property tests: the full client/server stack under
random worker behaviour.

Where ``test_convergence.py`` exercises the bare formal model, these
tests drive the real components — BackendServer, Central Client,
WorkerClient with its vote policies and the modify/undo extensions —
with hypothesis-generated action schedules, checking:

- convergence of every replica (clients, server, CC) at quiescence;
- the Lemma 3 vote invariants on every copy;
- the Probable Rows Invariant after every run;
- budget conservation of the allocation pipeline on the run's trace.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.client import WorkerClient
from repro.constraints import Template
from repro.core import OperationError, ThresholdScoring
from repro.core.schema import soccer_player_schema
from repro.net import Network, UniformLatency
from repro.pay import AllocationScheme, allocate, analyze_contributions
from repro.server import BackendServer
from repro.sim import RngStreams, Simulator

SCORING = ThresholdScoring(2)
SCHEMA = soccer_player_schema()

VALUES = {
    "name": ["Messi", "Xavi", "Neymar"],
    "nationality": ["Argentina", "Spain", "Brazil"],
    "position": ["GK", "DF", "MF", "FW"],
    "caps": [80, 90, 99],
    "goals": [0, 10, 30],
}

action_step = st.tuples(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False),  # at
    st.integers(min_value=0, max_value=9),  # client pick
    st.sampled_from(
        ["fill", "fill", "fill", "upvote", "downvote", "modify", "undo"]
    ),
    st.integers(min_value=0, max_value=9),  # row pick
    st.integers(min_value=0, max_value=4),  # column pick
    st.integers(min_value=0, max_value=3),  # value pick
)


def _perform(client: WorkerClient, kind, row_pick, column_pick, value_pick):
    table = client.replica.table
    row_ids = table.row_ids()
    if not row_ids:
        return
    row_id = row_ids[row_pick % len(row_ids)]
    columns = SCHEMA.column_names
    column = columns[column_pick % len(columns)]
    value = VALUES[column][value_pick % len(VALUES[column])]
    try:
        if kind == "fill":
            client.fill(row_id, column, value)
        elif kind == "upvote":
            client.upvote(row_id)
        elif kind == "downvote":
            client.downvote(row_id)
        elif kind == "modify":
            client.modify(row_id, column, value)
        else:
            client.undo_last_vote()
    except OperationError:
        pass  # invalid under current state: a no-op, as in the UI


@settings(max_examples=25, deadline=None)
@given(
    schedule=st.lists(action_step, min_size=1, max_size=30),
    num_clients=st.integers(min_value=2, max_value=4),
    net_seed=st.integers(min_value=0, max_value=500),
)
def test_full_stack_converges_under_random_actions(
    schedule, num_clients, net_seed
):
    sim = Simulator()
    network = Network(
        sim,
        default_latency=UniformLatency(0.01, 2.0),
        streams=RngStreams(net_seed),
    )
    backend = BackendServer(
        sim, network, SCHEMA, SCORING, Template.cardinality(3)
    )
    clients = []
    for i in range(num_clients):
        client = WorkerClient(
            f"w{i}", SCHEMA, SCORING, network,
            streams=RngStreams(i), allow_modify=True,
        )
        client.bootstrap(backend.attach_client(client.worker_id))
        clients.append(client)
    backend.start()
    sim.run()

    for at, client_pick, kind, row_pick, column_pick, value_pick in sorted(
        schedule
    ):
        client = clients[client_pick % num_clients]
        sim.schedule_at(
            max(at, sim.now),
            lambda c=client, k=kind, r=row_pick, col=column_pick, v=value_pick:
            _perform(c, k, r, col, v),
        )
    sim.run()
    assert network.quiescent()
    network.check_accounting()

    # 1. Convergence everywhere.
    reference = backend.replica.snapshot()
    reference_history = backend.replica.table.history_snapshot()
    for replica_owner in clients:
        assert replica_owner.snapshot() == reference
        assert (
            replica_owner.replica.table.history_snapshot()
            == reference_history
        )
    assert backend.central.replica.snapshot() == reference

    # 2. Vote invariants on every copy.
    backend.replica.table.check_vote_invariants()
    for client in clients:
        client.replica.table.check_vote_invariants()

    # 3. The PRI holds (possibly on a reduced template).
    assert backend.central.pri_holds()

    # 4. Budget conservation on whatever trace the run produced.
    trace = backend.worker_trace()
    analysis = analyze_contributions(SCHEMA, backend.final_rows(), trace)
    for scheme in AllocationScheme:
        result = allocate(SCHEMA, trace, analysis, budget=10.0, scheme=scheme)
        assert 0 <= result.total_allocated <= 10.0 + 1e-9
        assert result.unspent >= -1e-9
        assert sum(result.by_worker.values()) == pytest.approx(
            result.total_allocated
        )
        # Every paid message belongs to the trace.
        seqs = {record.seq for record in trace}
        assert set(result.amounts_by_seq) <= seqs
