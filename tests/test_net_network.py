"""Unit tests for the simulated network."""

import random

import pytest

from repro.net import ConstantLatency, LogNormalLatency, Network, UniformLatency
from repro.sim import RngStreams, Simulator


class Sink:
    def __init__(self):
        self.got = []

    def on_message(self, source, payload):
        self.got.append((source, payload))


def make_net(latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, default_latency=latency, streams=RngStreams(seed))
    return sim, net


def test_basic_delivery():
    sim, net = make_net()
    sink = Sink()
    net.register("a", Sink())
    net.register("b", sink)
    net.send("a", "b", {"hello": 1})
    sim.run()
    assert sink.got == [("a", {"hello": 1})]


def test_unknown_source_rejected():
    sim, net = make_net()
    net.register("b", Sink())
    with pytest.raises(KeyError):
        net.send("ghost", "b", "x")


def test_unknown_destination_rejected():
    sim, net = make_net()
    net.register("a", Sink())
    with pytest.raises(KeyError):
        net.send("a", "ghost", "x")


def test_duplicate_registration_rejected():
    _, net = make_net()
    net.register("a", Sink())
    with pytest.raises(ValueError):
        net.register("a", Sink())


def test_in_order_delivery_under_random_latency():
    """The formal model's key assumption: per-link FIFO even when later
    messages sample smaller latencies."""
    sim, net = make_net(latency=UniformLatency(0.01, 5.0), seed=3)
    sink = Sink()
    net.register("a", Sink())
    net.register("b", sink)
    for i in range(200):
        net.send("a", "b", i)
    sim.run()
    assert [payload for _, payload in sink.got] == list(range(200))


def test_order_preserved_across_interleaved_sends():
    sim, net = make_net(latency=UniformLatency(0.0, 2.0), seed=1)
    sink = Sink()
    net.register("a", Sink())
    net.register("b", Sink())
    net.register("c", sink)
    sequence = []

    def send_round(i):
        net.send("a", "c", ("a", i))
        net.send("b", "c", ("b", i))
        sequence.append(i)

    for i in range(20):
        sim.schedule(i * 0.1, lambda i=i: send_round(i))
    sim.run()
    # Per-source subsequences must be in order.
    from_a = [p[1] for s, p in sink.got if p[0] == "a"]
    from_b = [p[1] for s, p in sink.got if p[0] == "b"]
    assert from_a == sorted(from_a)
    assert from_b == sorted(from_b)


def test_latency_delays_delivery():
    sim, net = make_net(latency=ConstantLatency(1.5))
    sink = Sink()
    net.register("a", Sink())
    net.register("b", sink)
    net.send("a", "b", "x")
    sim.run(until=1.0)
    assert sink.got == []
    sim.run()
    assert sink.got == [("a", "x")]
    assert sim.now == pytest.approx(1.5)


def test_per_link_latency_override():
    sim, net = make_net(latency=ConstantLatency(10.0))
    fast_sink, slow_sink = Sink(), Sink()
    net.register("a", Sink())
    net.register("fast", fast_sink)
    net.register("slow", slow_sink)
    net.set_link_latency("a", "fast", ConstantLatency(0.1))
    net.send("a", "fast", 1)
    net.send("a", "slow", 2)
    sim.run(until=1.0)
    assert fast_sink.got and not slow_sink.got


def test_stats_and_quiescence():
    sim, net = make_net()
    net.register("a", Sink())
    net.register("b", Sink())
    assert net.quiescent()
    net.send("a", "b", "x")
    assert not net.quiescent()
    assert net.stats.messages_sent == 1
    net.check_accounting()
    sim.run()
    assert net.quiescent()
    assert net.stats.messages_delivered == 1
    assert net.stats.per_link_sent[("a", "b")] == 1
    net.check_accounting()


def test_unregistered_destination_drops_in_flight():
    sim, net = make_net(latency=ConstantLatency(1.0))
    sink = Sink()
    net.register("a", Sink())
    net.register("b", sink)
    net.send("a", "b", "x")
    net.unregister("b")
    assert not net.quiescent()
    sim.run()
    assert sink.got == []
    # Dropped, not delivered — and the accounting invariant holds
    # (in_flight = sent - delivered - dropped re-reaches zero).
    assert net.stats.messages_delivered == 0
    assert net.stats.messages_dropped == 1
    net.check_accounting()
    assert net.quiescent()


class _DropAll:
    """Fault filter that drops every message."""

    def should_drop(self, source, destination):
        return True

    def latency_factor(self, source, destination):
        return 1.0


class _SlowDown:
    """Fault filter that stretches latency without dropping."""

    def __init__(self, factor):
        self.factor = factor

    def should_drop(self, source, destination):
        return False

    def latency_factor(self, source, destination):
        return self.factor


def test_fault_filter_drop_keeps_accounting_quiescent():
    sim, net = make_net()
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    net.set_fault_filter(_DropAll())
    for _ in range(5):
        net.send("a", "b", "x")
    # Dropped at send time: never in flight, quiescence never wedges.
    assert net.stats.messages_sent == 5
    assert net.stats.messages_dropped == 5
    net.check_accounting()
    assert net.quiescent()
    sim.run()
    assert sink.got == []


def test_fault_filter_latency_factor_preserves_fifo():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    slow = _SlowDown(10.0)
    net.set_fault_filter(slow)
    net.send("a", "b", 0)  # delivers at 10.0
    slow.factor = 1.0
    net.send("a", "b", 1)  # would deliver at 1.0; clamped behind msg 0
    sim.run()
    assert [p for _, p in sink.got] == [0, 1]
    assert sim.now >= 10.0


def test_drop_in_flight_purges_and_returns_messages():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    net.register("server", Sink())
    b = Sink()
    net.register("b", b)
    net.send("b", "server", "out1")
    net.send("b", "server", "out2")
    net.send("server", "b", "in1")
    net.send("a", "server", "unrelated")
    dropped = net.drop_in_flight("b")
    assert [(d.source, d.destination, d.payload) for d in dropped] == [
        ("b", "server", "out1"),
        ("b", "server", "out2"),
        ("server", "b", "in1"),
    ]
    assert net.stats.messages_dropped == 3
    net.check_accounting()
    assert not net.quiescent()  # the unrelated message is still flying
    sim.run()
    assert net.quiescent()
    net.check_accounting()
    assert net.stats.messages_delivered == 1
    assert b.got == []


def test_check_accounting_detects_corruption():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    net.register("b", Sink())
    net.send("a", "b", "x")
    net.check_accounting()
    net.stats.messages_sent += 1  # simulate an accounting bug
    with pytest.raises(AssertionError, match="drop-accounting invariant"):
        net.check_accounting()


def test_drop_in_flight_then_reuse_link():
    sim, net = make_net(latency=ConstantLatency(0.5))
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    net.send("a", "b", "lost")
    net.drop_in_flight("b")
    net.send("a", "b", "kept")
    sim.run()
    assert [p for _, p in sink.got] == ["kept"]
    assert net.quiescent()


def test_endpoints_listing():
    _, net = make_net()
    net.register("b", Sink())
    net.register("a", Sink())
    assert net.endpoints() == ["a", "b"]


def test_lognormal_latency_positive():
    rng = random.Random(0)
    model = LogNormalLatency(median=0.1, sigma=1.0)
    assert all(model.sample(rng) > 0 for _ in range(100))


def test_latency_validation():
    with pytest.raises(ValueError):
        ConstantLatency(-1)
    with pytest.raises(ValueError):
        UniformLatency(2, 1)
    with pytest.raises(ValueError):
        LogNormalLatency(median=0)
