"""The server's skipped reactions are exact.

The Central Client applies a probable-set change to its matching only
when the matching has a free template row or a matched row left the
probable set, and the completion tracker returns its previous verdict
while neither the final table nor the template changed.  These tests
drive random message streams through two servers — one whose Central
Client applies every change at once, as before the deferral — and
compare everything the servers emit or expose after every drain; check
the completion verdict against a tracker built from scratch; and bound
the work a fixed ``perfbench/stream.py`` stream costs, a bound that the
eager code fails by two orders of magnitude.
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import CentralClient, Template
from repro.constraints.template import TemplateRow
from repro.core import Column, DataType, Schema, ThresholdScoring
from repro.core.messages import (
    DownvoteMessage,
    InsertMessage,
    ReplaceMessage,
    UpvoteMessage,
)
from repro.core.row import RowValue
from repro.core.schema import soccer_player_schema
from repro.net import ConstantLatency, Network
from repro.server.backend import SERVER_NAME, BackendServer, _CompletionTracker
from repro.sim import RngStreams, Simulator

SCORING = ThresholdScoring(2)
SCHEMA = Schema(
    name="Mini",
    columns=(
        Column("k", DataType.STRING),
        Column("a", DataType.INT),
        Column("b", DataType.STRING),
    ),
    primary_key=("k",),
)
CELLS = {"k": ["x", "y"], "a": [1, 2], "b": ["p", "q"]}
COLUMNS = list(CELLS)
# Two rows asking for the same cell, a complete one and an empty one
# (an absorbed cardinality constraint): downvoting a shared cell forces
# inserts, shuffles and drops.
TEMPLATE = [{"a": 1}, {"a": 1}, {"b": "p"}, {"k": "x", "a": 2, "b": "q"}, {}]
KINDS = ["fill", "fill", "fill", "upvote", "downvote", "downvote_cell",
         "insert", "drain"]


class _EagerCentralClient(CentralClient):
    """Applies every probable-set change to the matching at once."""

    def _sync_probable_set(self) -> None:
        super()._sync_probable_set()
        self._apply_pending()


class _Sink:
    def on_message(self, source, payload):
        pass


def _server(eager: bool) -> BackendServer:
    sim = Simulator()
    network = Network(
        sim, default_latency=ConstantLatency(0.01), streams=RngStreams(0)
    )
    server = BackendServer(
        sim, network, SCHEMA, SCORING, Template.from_values(TEMPLATE)
    )
    if eager:
        server.central.__class__ = _EagerCentralClient
    for name in ("c1", "c2"):
        network.register(name, _Sink())
        server.attach_client(name)
    return server


def _message(table, kind: str, pick: int, column: int, cell: int, serial: int):
    """One valid message for the current master table, or None."""
    rows = list(table.rows())
    if kind == "insert":
        return InsertMessage(row_id=f"w#{serial}")
    if kind == "downvote_cell":
        name = COLUMNS[column % len(COLUMNS)]
        values = CELLS[name]
        return DownvoteMessage(value=RowValue({name: values[cell % len(values)]}))
    if not rows:
        return None
    row = rows[pick % len(rows)]
    if kind == "fill":
        empty = [c for c in COLUMNS if c not in row.value]
        if not empty:
            return None
        name = empty[column % len(empty)]
        fill = CELLS[name][cell % len(CELLS[name])]
        return ReplaceMessage(
            old_id=row.row_id,
            new_id=f"w#{serial}",
            value=row.value.with_value(name, fill),
            column=name,
            filled_value=fill,
        )
    if kind == "upvote":
        if not row.value.is_complete(SCHEMA.column_names):
            return None
        return UpvoteMessage(value=row.value)
    return DownvoteMessage(value=row.value)


def _fresh_verdict(server: BackendServer) -> bool:
    central = server.central
    return _CompletionTracker(
        server.replica.table, lambda: central.template_rows
    ).satisfied()


def _observed(server: BackendServer) -> tuple:
    central = server.central
    return (
        [(r.seq, r.timestamp, r.worker_id, r.message) for r in server.trace],
        list(central.matching.pairs().items()),
        central.correspondence(),
        central.stats,
        [row.label for row in central.template_rows],
        [row.label for row in central.dropped_rows],
        server.completed,
        server.completion_time,
    )


def _run_both(ops) -> tuple[BackendServer, BackendServer, int]:
    """Feed *ops* to a deferring and an eager server, comparing them at
    every drain; returns both and the number of drains that ended with
    changes still buffered."""
    deferred, eager = _server(eager=False), _server(eager=True)
    deferred.start()
    eager.start()
    buffered = 0
    chunk: list = []
    serial = 0

    def drain() -> None:
        nonlocal buffered
        for server in (deferred, eager):
            server.ingest("w", chunk)
        chunk.clear()
        assert _observed(deferred) == _observed(eager)
        central, oracle = deferred.central, eager.central
        assert central._known_probable == set(oracle.matching.right_nodes)
        assert (
            set(central.matching.right_nodes) - central._pending_removed
            | central._pending_added
        ) == central._known_probable
        if central._pending_added or central._pending_removed:
            buffered += 1
        for server in (deferred, eager):
            assert server._completion.satisfied() == _fresh_verdict(server)

    for kind, pick, column, cell in ops:
        if kind == "drain":
            drain()
            continue
        # Messages are built against the master as drained so far, so
        # a drain boundary is also where the stream sees new rows.
        serial += 1
        message = _message(
            deferred.replica.table, kind, pick, column, cell, serial
        )
        if message is not None:
            chunk.append(message)
    drain()
    # Applying what is still buffered gives the eager matching, edges
    # and all.
    deferred.central._apply_pending()
    assert deferred.central.matching.right_nodes == eager.central.matching.right_nodes
    assert deferred.central.matching._edges == eager.central.matching._edges
    return deferred, eager, buffered


_ops = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_deferred_sync_matches_eager_sync_at_every_drain(ops):
    _run_both(ops)


def _seeded_ops(seed: int, count: int = 160) -> list[tuple[str, int, int, int]]:
    rng = random.Random(seed)
    return [
        (rng.choice(KINDS), rng.randrange(16), rng.randrange(6), rng.randrange(4))
        for _ in range(count)
    ]


def test_seeded_streams_cover_every_repair_and_a_deferral():
    """The streams of the property test reach every PRI action, and the
    deferral actually buffers — or the comparison above shows little."""
    totals = {"inserts": 0, "shuffles": 0, "drops": 0, "buffered": 0}
    for seed in range(12):
        deferred, _, buffered = _run_both(_seeded_ops(seed))
        stats = deferred.central.stats
        totals["inserts"] += stats.inserts
        totals["shuffles"] += stats.shuffles
        totals["drops"] += stats.drops
        totals["buffered"] += buffered
    assert all(totals.values()), totals


def test_completion_reuses_its_verdict_only_while_nothing_changed():
    server = _server(eager=False)
    server.start()
    tracker = server._completion
    assert tracker.satisfied() == _fresh_verdict(server)
    # A vote that moves no final row: the verdict is reused.
    server.ingest("w", [DownvoteMessage(value=RowValue({"b": "q"}))])
    epoch = server.replica.table.final_epoch
    assert tracker.satisfied() == _fresh_verdict(server)
    assert server.replica.table.final_epoch == epoch
    # Completing every template row changes the final table and flips
    # the verdict.
    messages, serial = [], 0
    for row in list(server.replica.table.rows()):
        value = row.value
        old_id = row.row_id
        for name in COLUMNS:
            if name in value:
                continue
            serial += 1
            fill = {"k": f"key{serial}", "a": 1, "b": "p"}[name]
            value = value.with_value(name, fill)
            messages.append(
                ReplaceMessage(old_id, f"w#{serial}", value, name, fill)
            )
            old_id = f"w#{serial}"
        messages += [UpvoteMessage(value=value)] * 2
    server.ingest("w", messages)
    assert tracker.satisfied() is _fresh_verdict(server) is True
    assert server.completed


# -- a deterministic witness on the benchmark's op stream -------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_a_stream_scans_each_probable_row_once_at_most(monkeypatch):
    """3,000 ops of the seed-1 ``perfbench/stream.py`` stream into a
    classic server: the eager sync made 9,820 ``TemplateRow.connects``
    calls and 2,246 completion-key updates, the deferred one makes 25
    (the five seeded rows against the five template rows) and 266."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        stream = importlib.import_module("stream")
    finally:
        sys.path.remove(str(PERFBENCH))
    calls = {"connects": 0, "update_key": 0}
    connects = TemplateRow.connects
    update_key = _CompletionTracker._update_key

    def counted_connects(self, value):
        calls["connects"] += 1
        return connects(self, value)

    def counted_update_key(self, key):
        calls["update_key"] += 1
        return update_key(self, key)

    monkeypatch.setattr(TemplateRow, "connects", counted_connects)
    monkeypatch.setattr(_CompletionTracker, "_update_key", counted_update_key)
    ops = stream.generate(1, 3000)
    sim = Simulator()
    network = Network(
        sim, default_latency=ConstantLatency(0.05), streams=RngStreams(1)
    )
    server = BackendServer(
        sim, network, soccer_player_schema(), SCORING,
        Template.from_values(list(stream.PINNED_TARGETS)),
    )
    for name in ops.endpoints:
        network.register(name, _Sink())
        server.attach_client(name)
    server.start()
    sim.run()
    for at, sends in ops.ticks:
        sim.schedule_at(
            sim.now + 1.0 + at,
            lambda sends=sends: [
                network.send(source, SERVER_NAME, message)
                for source, message in sends
            ],
        )
    sim.run()
    assert len(server.trace) == 3015
    assert server.central.stats.refreshes > 2000
    assert calls["connects"] < 100, calls
    assert calls["update_key"] < 500, calls
