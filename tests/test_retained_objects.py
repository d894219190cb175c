"""What a backend keeps per committed op: a deterministic memory witness.

Every replica keeps its trace, its rows and the interned value-vectors
of every op it applies, so the tracked containers an op leaves behind
are what the cyclic collector re-scans for the rest of the run.  This
feeds one fixed seeded op stream (``perfbench/stream.py``, imported as
it is) from 16 replica-free endpoints into a classic server and into
two shards, with the collector off for the whole job and one
collection after it, and bounds the tracked objects retained per committed op.

The counts are a function of the stream and the code: the same seed
makes the same objects.  They were 6.56 (classic) and 13.16 (two shards) while a
row value kept its pair and column frozensets beside its dict and the
interner kept a cell-id frozenset per value; they are 4.37 and 8.43
(1.50x and 1.56x fewer) since both hold tuples only and a table's rows
share one bound vote observer.  One collection leaves each value's
pairs tuple tracked (the collector untracks it at its next pass), so
those count here.
"""

from __future__ import annotations

import gc
import importlib
import sys
from pathlib import Path

import pytest

from repro.constraints.template import Template
from repro.core.schema import soccer_player_schema
from repro.core.scoring import ThresholdScoring
from repro.net import ConstantLatency, Network
from repro.server.backend import SERVER_NAME, BackendServer
from repro.server.shard import ShardedBackend
from repro.sim import RngStreams, Simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 1
OPS = 3000


@pytest.fixture(scope="module")
def stream():
    # The benchmark's modules import each other as top-level modules.
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("stream")
    finally:
        sys.path.remove(str(PERFBENCH))


class _Sink:
    def on_message(self, source, payload):
        pass


def _job(stream, shards):
    """Build and run one job; returns its backend and the ops it sent."""
    ops = stream.generate(SEED, OPS)
    sim = Simulator()
    network = Network(
        sim, default_latency=ConstantLatency(0.05), streams=RngStreams(SEED)
    )
    schema = soccer_player_schema()
    template = Template.from_values(list(stream.PINNED_TARGETS))
    if shards is None:
        backend = BackendServer(sim, network, schema, ThresholdScoring(2), template)
    else:
        backend = ShardedBackend(
            sim, network, schema, ThresholdScoring(2), template, shards=shards
        )
    for name in ops.endpoints:
        network.register(name, _Sink())
        backend.attach_client(name)
    backend.start()
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
    return backend, ops.ops


def _retained_per_op(stream, shards):
    """Tracked objects a whole job leaves alive (its stream's messages
    are the server's trace, as if decoded off the wire), per committed
    op."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        backend, sent = _job(stream, shards)
    finally:
        gc.enable()
    gc.collect()
    retained = len(gc.get_objects()) - before
    if shards is None:
        committed = len(backend.trace)
    else:
        committed = len(backend.committed_trace())
    assert committed >= sent
    return retained / committed


def test_classic_server_retains_few_tracked_objects_per_op(stream):
    assert _retained_per_op(stream, None) < 4.6


def test_two_shards_retain_few_tracked_objects_per_op(stream):
    assert _retained_per_op(stream, 2) < 9.0
