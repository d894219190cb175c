"""Unit tests for the simulated network."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ConstantLatency, LogNormalLatency, Network, UniformLatency
from repro.net.faults import FaultInjector, FaultPlan, LatencySpike
from repro.obs import Observability
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


def _fan_out(latency, recipients=16):
    sim, net = make_net(latency=latency)
    net.register("server", Sink())
    sinks = {f"c{i}": Sink() for i in range(recipients)}
    for name, sink in sinks.items():
        net.register(name, sink)
    return sim, net, sinks


def test_constant_latency_broadcast_is_one_heap_entry():
    sim, net, sinks = _fan_out(ConstantLatency(0.5))
    heap = sim._queue._heap
    net.broadcast("server", list(sinks), "op")
    assert len(heap) == 1
    assert sim.pending_events == 16
    net.check_accounting()
    assert sim.run() == 16
    assert all(sink.got == [("server", "op")] for sink in sinks.values())


def _objects_held_in_flight(recipients):
    """Tracked objects a broadcast to *recipients* keeps alive until it
    is delivered, with the links already open and the GC off."""
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients)
    names = list(sinks)
    payload = ("op",)
    net.broadcast("server", names, payload)  # opens every channel
    sim.run()
    gc.disable()
    try:
        before = len(gc.get_objects())
        net.broadcast("server", names, payload)
        held = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert sim.run() == recipients
    return held


def test_a_broadcast_holds_the_same_few_objects_for_any_fan_out():
    """One delivery object, its channel list and its heap entry: nothing
    is allocated per recipient."""
    held = {n: _objects_held_in_flight(n) for n in (4, 64)}
    assert held[4] == held[64] <= 3


def test_uniform_latency_broadcast_is_one_heap_entry_per_recipient():
    sim, net, sinks = _fan_out(UniformLatency(0.02, 0.2))
    heap = sim._queue._heap
    net.broadcast("server", list(sinks), "op")
    assert len(heap) == 16
    assert sim.pending_events == 16
    assert sim.run() == 16


def test_grouped_broadcast_delivers_in_list_order():
    sim, net, sinks = _fan_out(ConstantLatency(0.5))
    order = []
    for name, sink in sinks.items():
        sink.on_message = lambda source, payload, name=name: order.append(name)
    names = list(sinks)[::-1]
    net.broadcast("server", names, "op")
    sim.run()
    assert order == names


def test_drop_in_flight_mid_group_cancels_one_recipient():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=4)
    order = []
    for name, sink in sinks.items():
        sink.on_message = lambda source, payload, name=name: order.append(
            (name, payload)
        )
    net.send("c2", "server", "up")  # deliver_at 0.5, before the group
    net.broadcast("server", list(sinks), "op")
    assert len(sim._queue._heap) == 2
    dropped = net.drop_in_flight("c2")
    assert [(d.source, d.destination, d.payload) for d in dropped] == [
        ("c2", "server", "up"),
        ("server", "c2", "op"),
    ]
    assert sim.pending_events == 3
    net.check_accounting()
    assert sim.run() == 3
    assert order == [("c0", "op"), ("c1", "op"), ("c3", "op")]
    assert net.stats.messages_delivered == 3
    assert net.stats.messages_dropped == 2
    net.check_accounting()
    assert net.quiescent()


def test_purge_by_an_earlier_recipient_skips_a_later_one():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=3)
    sinks["c0"].on_message = lambda source, payload: net.drop_in_flight("c2")
    net.broadcast("server", list(sinks), "op")
    assert sim.run() == 2
    assert sinks["c1"].got == [("server", "op")]
    assert sinks["c2"].got == []
    net.check_accounting()
    assert net.quiescent()


def test_purged_group_and_plain_deliveries_sort_by_time_then_seq():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=3)
    net.broadcast("server", list(sinks), "first")
    net.send("c1", "server", "between")
    net.broadcast("server", list(sinks), "second")
    dropped = net.drop_in_flight("c1")
    assert [(d.source, d.destination, d.payload) for d in dropped] == [
        ("server", "c1", "first"),
        ("c1", "server", "between"),
        ("server", "c1", "second"),
    ]
    net.check_accounting()


def test_latency_spike_on_one_link_splits_the_broadcast_by_delivery_time():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=4)
    spike = LatencySpike(
        start=0.0, end=10.0, factor=3.0, source="server", destination="c1"
    )
    FaultInjector(sim, net, FaultPlan(spikes=(spike,))).install()
    heap = sim._queue._heap
    before = len(heap)
    net.broadcast("server", list(sinks), "op")
    # One delivery for the three links due at 0.5 s, one for the spiked link.
    assert len(heap) - before == 2
    order = []
    for name, sink in sinks.items():
        sink.on_message = lambda source, payload, name=name: order.append(
            (name, sim.now)
        )
    sim.run()
    assert order == [("c0", 0.5), ("c2", 0.5), ("c3", 0.5), ("c1", 1.5)]



def test_purge_of_a_broadcast_split_by_time_sorts_by_time_then_send_order():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=4)
    spike = LatencySpike(
        start=0.0, end=10.0, factor=3.0, source="server", destination="c1"
    )
    FaultInjector(sim, net, FaultPlan(spikes=(spike,))).install()
    net.broadcast("server", list(sinks), "first")
    net.broadcast("server", list(sinks), "second")
    links = [("server", "c3"), ("server", "c1"), ("server", "c2")]
    dropped = net.drop_in_flight_links(links)
    assert [(d.destination, d.payload) for d in dropped] == [
        ("c2", "first"),
        ("c3", "first"),
        ("c2", "second"),
        ("c3", "second"),
        ("c1", "first"),
        ("c1", "second"),
    ]
    order = []
    for name, sink in sinks.items():
        sink.on_message = lambda source, payload, name=name: order.append(
            (name, payload)
        )
    sim.run()
    assert order == [("c0", "first"), ("c0", "second")]
    net.check_accounting()
    assert net.quiescent()

def test_events_fired_equals_messages_delivered():
    obs = Observability()
    sim = Simulator(obs=obs)
    net = Network(
        sim, default_latency=ConstantLatency(0.5), streams=RngStreams(0)
    )
    net.register("server", Sink())
    names = [f"c{i}" for i in range(5)]
    for name in names:
        net.register(name, Sink())
    for round_ in range(3):
        net.broadcast("server", names, round_)
        net.send("c0", "server", round_)
    net.drop_in_flight("c3")
    fired = sim.run()
    assert fired == net.stats.messages_delivered == 3 * 4 + 3
    assert obs.metrics.counter_value("sim.events_fired") == fired


def test_check_accounting_detects_a_corrupted_link_count():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    net.register("b", Sink())
    net.send("a", "b", "x")
    sim.run()
    net.check_accounting()
    channel = net._channels[("a", "b")]
    channel.delivered += 1  # one link's own law breaks
    with pytest.raises(AssertionError, match="on \\('a', 'b'\\)"):
        net.check_accounting()
    channel.sent += 1  # the link balances again, but not against stats
    with pytest.raises(AssertionError, match="links sent=2"):
        net.check_accounting()


def test_per_link_sent_is_a_read_only_view_of_the_channels():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=3)
    net.broadcast("server", list(sinks), "op")
    net.send("c0", "server", "up")
    sent = net.stats.per_link_sent
    assert sent[("server", "c1")] == 1
    assert sent.get(("c0", "server")) == 1
    assert sent.get(("c1", "server"), 0) == 0
    with pytest.raises(TypeError):
        sent[("server", "c1")] = 5


def _mixed_link_script(send_all):
    """One server fanning out over constant, uniform, log-normal and
    switched links; returns the delivery log and every channel's RNG
    state.  *send_all(net, names, payload)* sends one payload to all."""
    sim, net = make_net(latency=ConstantLatency(0.5), seed=11)
    net.register("server", Sink())
    names = ["const", "uniform", "lognormal", "switched", "default"]
    log = []
    for name in names:
        sink = Sink()
        sink.on_message = lambda source, payload, name=name: log.append(
            (sim.now, name, payload)
        )
        net.register(name, sink)
    net.set_link_latency("server", "const", ConstantLatency(0.25))
    net.set_link_latency("server", "uniform", UniformLatency(0.1, 2.0))
    net.set_link_latency("server", "lognormal", LogNormalLatency(0.3, 1.0))
    send_all(net, names, "warm")  # every channel now exists
    switched = net._channels[("server", "switched")]
    assert switched.constant == 0.5
    net.set_link_latency("server", "switched", UniformLatency(2.0, 4.0))
    assert switched.constant is None
    for i in range(3):
        send_all(net, names, ("slow", i))
    net.set_link_latency("server", "switched", ConstantLatency(0.05))
    assert switched.constant == 0.05
    send_all(net, names, "fast")  # clamped behind the slow ones
    sim.run()
    states = {
        key: channel.rng.getstate() for key, channel in net._channels.items()
    }
    return log, states


def test_broadcast_draws_the_same_rng_values_as_per_recipient_sends():
    def broadcast(net, names, payload):
        net.broadcast("server", names, payload)

    def one_by_one(net, names, payload):
        for name in names:
            net.send("server", name, payload)

    log, states = _mixed_link_script(broadcast)
    assert (log, states) == _mixed_link_script(one_by_one)
    on_switched = [(at, p) for at, name, p in log if name == "switched"]
    (slow_at, _), (fast_at, fast) = on_switched[-2:]
    assert fast == "fast" and fast_at == slow_at >= 2.0


def test_broadcast_observes_a_run_of_equal_delays_once():
    obs = Observability()
    sim = Simulator(obs=obs)
    net = Network(sim, default_latency=ConstantLatency(0.5), obs=obs)
    net.register("server", Sink())
    names = [f"c{i}" for i in range(8)]
    for name in names:
        net.register(name, Sink())
    net.set_link_latency("server", "c3", ConstantLatency(0.1))
    calls = []
    observe = obs.observe
    obs.observe = lambda *args: calls.append(args) or observe(*args)
    net.broadcast("server", names, "op")
    assert calls == [
        ("net.latency_seconds", 0.5, 3),
        ("net.latency_seconds", 0.1, 1),
        ("net.latency_seconds", 0.5, 4),
    ]
    histogram = obs.metrics.to_dict()["histograms"]["net.latency_seconds"]
    assert histogram["count"] == 8


# -- resolved fan-outs: the same sends as the unresolved loop --------------


class _Unresolved(Network):
    """The oracle: forgets every resolved fan-out before each send."""

    def _send_each(self, source, destinations, payload):
        self._fanouts.clear()
        super()._send_each(source, destinations, payload)


class _Slowdown:
    """A fault filter that drops nothing and multiplies every delay."""

    def __init__(self, factor):
        self.factor = factor

    def should_drop(self, source, destination):
        return False

    def latency_factor(self, source, destination):
        return self.factor


_NAMES = ("c0", "c1", "c2")
_RECIPIENTS = (("c0", "c1", "c2"), ("c1", "c2"), ("c2",), ("c0", "c0", "c1"))
_fanout_steps = st.lists(
    st.one_of(
        st.tuples(st.just("broadcast"), st.integers(0, len(_RECIPIENTS) - 1)),
        st.tuples(st.just("send"), st.sampled_from(_NAMES)),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        st.tuples(
            st.just("latency"),
            st.sampled_from(_NAMES),
            st.sampled_from(["0.1", "0.5", "1.0", "uniform"]),
        ),
        st.tuples(st.just("slowdown"), st.sampled_from([None, 0.5, 4.0])),
        st.tuples(st.just("skip_filter"), st.sampled_from([0.0, 0.2, 2.0])),
        st.tuples(st.just("purge"), st.sampled_from(_NAMES)),
        st.tuples(st.just("unregister"), st.sampled_from(_NAMES)),
        st.tuples(st.just("register"), st.sampled_from(_NAMES)),
    ),
    max_size=40,
)


def _replay_fan_out(network_class, steps):
    """Run *steps* on a fresh network; returns everything observable."""
    sim = Simulator()
    net = network_class(
        sim, default_latency=ConstantLatency(0.5), streams=RngStreams(3)
    )
    log = []

    class Logged:
        def __init__(self, name):
            self.name = name

        def on_message(self, source, payload):
            log.append((sim.now, source, self.name, payload))

    for name in ("server",) + _NAMES:
        net.register(name, Logged(name))
    payload = 0
    for step in steps:
        kind = step[0]
        payload += 1
        try:
            if kind == "broadcast":
                net.broadcast("server", _RECIPIENTS[step[1]], payload)
            elif kind == "send":
                net.send("server", step[1], payload)
            elif kind == "advance":
                sim.run(until=sim.now + step[1])
            elif kind == "latency":
                model = (
                    UniformLatency(0.05, 1.5)
                    if step[2] == "uniform"
                    else ConstantLatency(float(step[2]))
                )
                net.set_link_latency("server", step[1], model)
            elif kind == "slowdown":
                net.set_fault_filter(
                    None if step[1] is None else _Slowdown(step[1])
                )
            elif kind == "skip_filter":
                net.skip_fault_filter_until(sim.now + step[1])
            elif kind == "purge":
                log.append(("purged", net.drop_in_flight(step[1])))
            elif kind == "unregister":
                net.unregister(step[1])
            else:
                net.register(step[1], Logged(step[1]))
        except (KeyError, ValueError) as exc:
            log.append(("raised", type(exc).__name__))
        net.check_accounting()
    sim.run()
    links = {key: (c.sent, c.delivered, c.dropped) for key, c in net.stats.channels.items()}
    return log, links, net.stats.messages_sent, net.stats.messages_dropped


@settings(max_examples=150, deadline=None)
@given(_fanout_steps)
def test_resolved_fan_outs_send_what_the_loop_sends(steps):
    assert _replay_fan_out(Network, steps) == _replay_fan_out(_Unresolved, steps)


def test_a_fan_out_is_resolved_by_the_send_that_opens_its_links():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=3)
    names = tuple(sinks)
    net.broadcast("server", names, "op")
    assert net._fanouts[("server", names)][1] == 0.5
    sim.run()
    assert [sink.got for sink in sinks.values()] == [[("server", "op")]] * 3


def test_duplicate_recipients_get_every_copy_through_a_fan_out():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=2)
    for payload in ("first", "second"):
        net.broadcast("server", ("c0", "c0", "c1"), payload)
    assert len(net._fanouts) == 1
    assert sim.run() == 6
    assert sinks["c0"].got == [("server", "first")] * 2 + [("server", "second")] * 2
    assert net.stats.channels[("server", "c0")].delivered == 4
    net.check_accounting()


def test_unregister_forgets_fan_outs_and_the_next_send_raises():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=2)
    net.broadcast("server", ("c0", "c1"), "first")
    net.unregister("c1")
    assert not net._fanouts
    with pytest.raises(KeyError):
        net.broadcast("server", ("c0", "c1"), "second")
    sim.run()
    assert sinks["c0"].got == [("server", "first")]
    net.check_accounting()


def test_a_smaller_constant_latency_is_still_clamped_to_link_order():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=2)
    arrivals = []
    for name, sink in sinks.items():
        sink.on_message = lambda source, payload, name=name: arrivals.append(
            (name, payload, sim.now)
        )
    net.broadcast("server", ("c0", "c1"), "first")
    net.set_link_latency("server", "c0", ConstantLatency(0.1))
    net.set_link_latency("server", "c1", ConstantLatency(0.1))
    assert not net._fanouts
    net.broadcast("server", ("c0", "c1"), "second")  # clamped to 0.5 s
    net.broadcast("server", ("c0", "c1"), "third")  # still clamped
    sim.run(until=0.6)
    net.broadcast("server", ("c0", "c1"), "fourth")  # 0.7 s: no clamp
    sim.run()
    assert arrivals == [
        ("c0", "first", 0.5), ("c1", "first", 0.5),
        ("c0", "second", 0.5), ("c1", "second", 0.5),
        ("c0", "third", 0.5), ("c1", "third", 0.5),
        ("c0", "fourth", 0.7), ("c1", "fourth", 0.7),
    ]


def test_a_spike_window_bypasses_the_fan_out_and_its_tail_is_clamped():
    sim, net, sinks = _fan_out(ConstantLatency(0.5), recipients=2)
    names = ("c0", "c1")
    net.broadcast("server", names, "before")
    spike = LatencySpike(
        start=1.0, end=2.0, factor=4.0, source="server", destination="c1"
    )
    injector = FaultInjector(sim, net, FaultPlan(spikes=(spike,)))
    injector.install()
    net.skip_fault_filter_until(1.0)
    sim.run(until=1.0)
    net.broadcast("server", names, "spiked")  # c1 due at 3.0 s
    net.set_fault_filter(None)
    sim.run(until=2.0)
    net.broadcast("server", names, "after")  # c1 clamped to 3.0 s
    sim.run()
    assert sinks["c0"].got == [
        ("server", "before"), ("server", "spiked"), ("server", "after")
    ]
    assert sinks["c1"].got == sinks["c0"].got
    assert net.stats.channels[("server", "c1")].last_delivery_time == 3.0
