"""Unit tests for the fault-injection subsystem (repro.net.faults)."""

import math
import random

import pytest

from repro.net import (
    ConstantLatency,
    DisconnectWindow,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    LatencySpike,
    Network,
    PartitionWindow,
    ShardCrashWindow,
    ShardPartitionWindow,
    UniformLatency,
    fault_plan_from_dict,
)
from repro.sim import RngStreams, Simulator


class Sink:
    def __init__(self):
        self.got = []

    def on_message(self, source, payload):
        self.got.append((source, payload))


def make_net(latency=None, seed=0):
    sim = Simulator()
    net = Network(sim, default_latency=latency or ConstantLatency(0.1),
                  streams=RngStreams(seed))
    return sim, net


# -- FaultPlan ---------------------------------------------------------------


def test_window_validation():
    with pytest.raises(FaultPlanError):
        DisconnectWindow("a", start=-1.0, end=2.0)
    with pytest.raises(FaultPlanError):
        DisconnectWindow("a", start=2.0, end=2.0)
    with pytest.raises(FaultPlanError):
        PartitionWindow((), start=0.0, end=1.0)
    with pytest.raises(FaultPlanError):
        LatencySpike(start=0.0, end=1.0, factor=0.0)


def test_outage_windows_merge_overlaps():
    plan = FaultPlan(
        disconnects=(
            DisconnectWindow("a", 1.0, 3.0),
            DisconnectWindow("a", 2.0, 5.0),
            DisconnectWindow("a", 7.0, 8.0),
        ),
        partitions=(PartitionWindow(("a", "b"), 4.5, 6.0),),
    )
    assert plan.outage_windows("a") == [(1.0, 6.0), (7.0, 8.0)]
    assert plan.outage_windows("b") == [(4.5, 6.0)]
    assert plan.faulted_endpoints() == ["a", "b"]


def test_permanent_disconnect_window():
    plan = FaultPlan(disconnects=(DisconnectWindow("a", 1.0),))
    assert plan.outage_windows("a") == [(1.0, math.inf)]


def test_latency_factor_combines_matching_spikes():
    plan = FaultPlan(
        spikes=(
            LatencySpike(start=0.0, end=10.0, factor=2.0),
            LatencySpike(start=0.0, end=5.0, factor=3.0, source="a"),
            LatencySpike(start=0.0, end=10.0, factor=7.0, source="z"),
        )
    )
    assert plan.latency_factor("a", "b", now=1.0) == pytest.approx(6.0)
    assert plan.latency_factor("a", "b", now=6.0) == pytest.approx(2.0)
    assert plan.latency_factor("b", "a", now=1.0) == pytest.approx(2.0)
    assert plan.latency_factor("a", "b", now=10.0) == pytest.approx(1.0)


def test_generate_is_deterministic_in_the_seed():
    endpoints = [f"c{i}" for i in range(6)]
    plan_a = FaultPlan.generate(random.Random(42), endpoints, horizon=100.0)
    plan_b = FaultPlan.generate(random.Random(42), endpoints, horizon=100.0)
    plan_c = FaultPlan.generate(random.Random(43), endpoints, horizon=100.0)
    assert plan_a == plan_b
    assert plan_a != plan_c


def test_generate_windows_close_before_horizon():
    for seed in range(30):
        plan = FaultPlan.generate(
            random.Random(seed), ["a", "b", "c"], horizon=50.0
        )
        for window in plan.disconnects:
            assert 0.0 <= window.start < window.end <= 50.0


# -- FaultInjector -----------------------------------------------------------


def test_injector_drops_sends_during_outage_only():
    sim, net = make_net()
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    plan = FaultPlan(disconnects=(DisconnectWindow("b", 1.0, 2.0),))
    injector = FaultInjector(sim, net, plan)
    injector.install()

    for at in (0.0, 1.5, 3.0):
        sim.schedule_at(at, lambda: net.send("a", "b", sim.now))
    sim.run()
    assert [round(p, 1) for _, p in sink.got] == [0.0, 3.0]
    assert net.stats.messages_dropped == 1
    assert net.quiescent()


def test_injector_purges_wire_at_outage_start_and_requeues_outbound():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("server", Sink())
    net.register("b", Sink())
    requeued = []
    plan = FaultPlan(disconnects=(DisconnectWindow("b", 0.5, 2.0),))
    injector = FaultInjector(sim, net, plan)
    injector.bind("b", on_requeue=requeued.extend)
    injector.install()

    net.send("b", "server", "mine")      # in flight at 0.5 -> requeued
    net.send("server", "b", "broadcast")  # in flight at 0.5 -> lost
    sim.run()
    assert requeued == ["mine"]
    assert net.stats.messages_dropped == 2
    assert net.quiescent()


def test_injector_calls_handlers_once_per_merged_window():
    sim, net = make_net()
    net.register("b", Sink())
    events = []
    plan = FaultPlan(
        disconnects=(
            DisconnectWindow("b", 1.0, 3.0),
            DisconnectWindow("b", 2.0, 4.0),  # overlaps; merged
        )
    )
    injector = FaultInjector(sim, net, plan)
    injector.bind(
        "b",
        on_disconnect=lambda: events.append(("down", sim.now)),
        on_reconnect=lambda: events.append(("up", sim.now)),
    )
    injector.install()
    sim.run()
    assert events == [("down", 1.0), ("up", 4.0)]
    assert [e.kind for e in injector.events] == ["disconnect", "reconnect"]


def test_injector_is_down_and_force_reconnect():
    sim, net = make_net()
    net.register("b", Sink())
    plan = FaultPlan(disconnects=(DisconnectWindow("b", 1.0),))  # forever
    injector = FaultInjector(sim, net, plan)
    injector.install()
    sim.run()
    assert injector.is_down("b")
    assert injector.down == frozenset({"b"})
    injector.force_reconnect_all()
    assert not injector.is_down("b")
    assert [e.kind for e in injector.events] == ["disconnect", "reconnect"]


def test_injector_latency_spike_preserves_fifo():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    plan = FaultPlan(spikes=(LatencySpike(start=0.0, end=1.0, factor=30.0),))
    injector = FaultInjector(sim, net, plan)
    injector.install()
    sim.schedule_at(0.0, lambda: net.send("a", "b", "spiked"))   # lands at 30
    sim.schedule_at(2.0, lambda: net.send("a", "b", "normal"))   # clamped
    sim.run()
    assert [p for _, p in sink.got] == ["spiked", "normal"]
    assert net.quiescent()


class _SpyFilter:
    """Answers as *inner* does and counts the network's calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def should_drop(self, source, destination):
        self.calls += 1
        return self.inner.should_drop(source, destination)

    def latency_factor(self, source, destination):
        self.calls += 1
        return self.inner.latency_factor(source, destination)


def _spy_on(net, injector, always=False):
    """Put a spy between *net* and *injector*; with *always*, the spy
    stays installed between windows, so every send consults it."""
    spy = _SpyFilter(injector)
    install = net.set_fault_filter
    net.set_fault_filter = lambda f: install(
        spy if f is not None or always else None
    )
    return spy


def test_sends_between_windows_make_no_filter_call():
    sim, net = make_net()
    net.register("a", Sink())
    net.register("b", Sink())
    plan = FaultPlan(disconnects=(DisconnectWindow("b", 1.0, 2.0),))
    injector = FaultInjector(sim, net, plan)
    spy = _spy_on(net, injector)
    injector.install()
    calls = []

    def send():
        net.send("a", "b", 0)
        calls.append(spy.calls)

    for at in (0.5, 1.5, 2.5):
        sim.schedule_at(at, send)
    sim.run()
    assert calls == [0, 1, 1]  # only the send inside the window asks
    assert net.stats.messages_dropped == 1

    sim, net = make_net()
    net.register("a", Sink())
    net.register("b", Sink())
    spike = LatencySpike(start=5.0, end=6.0, factor=2.0)
    injector = FaultInjector(sim, net, FaultPlan(spikes=(spike,)))
    spy = _spy_on(net, injector)
    injector.install()
    net.send("a", "b", 0)
    assert spy.calls == 0  # before the spike, no filter call
    sim.schedule_at(5.5, lambda: net.send("a", "b", 1))
    sim.run()
    assert spy.calls == 2  # inside the spike, both calls


def test_a_send_at_a_spike_start_gets_its_factor_before_any_event():
    """The network gates the filter by simulated time, so a send fired
    at a spike's start instant ahead of every window event is slowed."""
    sim, net = make_net()
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    at = []
    sink.on_message = lambda source, payload: at.append(sim.now)
    sim.schedule_at(5.0, lambda: net.send("a", "b", 0))  # before install
    spike = LatencySpike(start=5.0, end=6.0, factor=3.0)
    FaultInjector(sim, net, FaultPlan(spikes=(spike,))).install()
    sim.schedule_at(6.0, lambda: net.send("a", "b", 1))  # spike over
    sim.run()
    assert at == [pytest.approx(5.3), pytest.approx(6.1)]


@pytest.mark.parametrize("kind", ["disconnect", "crash"])
def test_a_send_from_a_window_start_handler_is_filtered(kind):
    """The injector is the filter before it calls a begin handler, so a
    send the handler makes into the opening window drops."""
    sim, net = make_net()
    net.register("a", Sink())
    sink = Sink()
    net.register("b", sink)
    if kind == "disconnect":
        plan = FaultPlan(disconnects=(DisconnectWindow("b", 1.0, 2.0),))
    else:
        plan = FaultPlan(crashes=(ShardCrashWindow("b", 1.0, 2.0),))
    injector = FaultInjector(sim, net, plan)

    def late():
        net.send("a", "b", "late")

    injector.bind("b", on_disconnect=late, on_crash=late)
    injector.install()
    sim.run()
    assert sink.got == []
    assert net.stats.messages_dropped == 1


def _fault_traffic(seed, always):
    """Bursts of all-to-all broadcasts across a generated plan, some at
    each window edge before and after the edge's event; returns each
    delivery's time, the fault events, the send count and the plan."""
    sim = Simulator()
    net = Network(
        sim, default_latency=UniformLatency(0.01, 0.5), streams=RngStreams(seed)
    )
    shards = ["s0", "s1", "s2"]
    names = ["server", "w0", "w1", *shards]
    delivered = {}
    for name in names:
        sink = Sink()
        sink.on_message = lambda source, payload, name=name: delivered.setdefault(
            (payload, name), sim.now
        )
        net.register(name, sink)
    net.set_link_latency("server", "w0", ConstantLatency(0.05))
    plan = FaultPlan.generate(
        random.Random(seed), names, horizon=20.0, spike_prob=0.4,
        shard_groups=(("s0",), ("s1", "s2")), crash_endpoints=shards,
    )
    injector = FaultInjector(sim, net, plan)
    spy = _spy_on(net, injector, always)
    ids = iter(range(10**6))

    def burst():
        for source in names:
            others = [name for name in names if name != source]
            net.broadcast(source, others, next(ids))

    windows = [*plan.disconnects, *plan.spikes, *plan.shard_partitions,
               *plan.crashes]
    edges = sorted({t for w in windows for t in (w.start, w.end)})
    rng = random.Random(seed)
    for at in edges + [rng.uniform(0.0, 21.0) for _ in range(20)]:
        sim.schedule_at(at, burst)  # before the window events
    injector.install()
    for at in edges:
        sim.schedule_at(at, burst)  # after them
    sim.run()
    net.check_accounting()
    events = [(e.time, e.kind, e.endpoint, e.purged) for e in injector.events]
    return delivered, events, net.stats.messages_sent, plan, spy.calls


def test_gated_filter_drops_and_delays_as_one_consulted_on_every_send():
    kinds = set()
    for seed in range(5):
        *gated, plan, gated_calls = _fault_traffic(seed, always=False)
        *always, _, always_calls = _fault_traffic(seed, always=True)
        assert gated == always
        delivered, _, sent = gated
        assert 0 < len(delivered) < sent  # some drops, some deliveries
        assert (gated_calls < always_calls) == (not plan.spikes)
        kinds.update(
            kind for kind in ("spikes", "shard_partitions", "crashes")
            if getattr(plan, kind)
        )
        kinds.add("no spikes" if not plan.spikes else "spikes")
    assert kinds == {"spikes", "no spikes", "shard_partitions", "crashes"}


def test_injector_install_twice_rejected():
    sim, net = make_net()
    injector = FaultInjector(sim, net, FaultPlan())
    injector.install()
    with pytest.raises(RuntimeError):
        injector.install()


# -- Crash windows (plan layer) ----------------------------------------------


def test_crash_window_requires_finite_end():
    with pytest.raises(FaultPlanError):
        ShardCrashWindow("shard-0", start=1.0, end=math.inf)
    with pytest.raises(FaultPlanError):
        ShardCrashWindow("shard-0", start=2.0, end=2.0)
    with pytest.raises(FaultPlanError):
        ShardCrashWindow("shard-0", start=-1.0, end=2.0)


def test_crash_windows_may_not_overlap_per_endpoint():
    with pytest.raises(FaultPlanError, match="overlapping crash windows"):
        FaultPlan(crashes=(
            ShardCrashWindow("shard-0", 1.0, 5.0),
            ShardCrashWindow("shard-0", 4.0, 8.0),
        ))
    # Different endpoints may overlap; same endpoint back-to-back is fine.
    plan = FaultPlan(crashes=(
        ShardCrashWindow("shard-0", 1.0, 5.0),
        ShardCrashWindow("shard-1", 4.0, 8.0),
        ShardCrashWindow("shard-0", 5.0, 6.0),
    ))
    assert plan.crashed_endpoints() == ["shard-0", "shard-1"]
    assert not plan.is_empty


def test_generate_crash_windows_deterministic_and_closed():
    shards = ["shard-0", "shard-1", "shard-2"]
    plan_a = FaultPlan.generate(
        random.Random(11), [], horizon=100.0,
        crash_endpoints=shards, crash_prob=1.0,
    )
    plan_b = FaultPlan.generate(
        random.Random(11), [], horizon=100.0,
        crash_endpoints=shards, crash_prob=1.0,
    )
    assert plan_a == plan_b
    assert plan_a.crashes
    for window in plan_a.crashes:
        assert 0.0 <= window.start < window.end <= 100.0


def test_generate_respects_max_crashes_and_gap():
    for seed in range(20):
        plan = FaultPlan.generate(
            random.Random(seed), [], horizon=200.0,
            crash_endpoints=["s0"], crash_prob=1.0,
            max_crashes_per_endpoint=4, min_crash_gap=10.0,
        )
        windows = sorted(
            (w.start, w.end) for w in plan.crashes if w.endpoint == "s0"
        )
        assert len(windows) <= 4
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start - prev_end >= 10.0


def test_generate_caps_concurrent_crashes():
    for seed in range(20):
        plan = FaultPlan.generate(
            random.Random(seed), [], horizon=100.0,
            crash_endpoints=[f"s{i}" for i in range(5)], crash_prob=1.0,
        )
        # max_concurrent_crashes defaults to 1: no two crash windows
        # anywhere in the plan may overlap.
        windows = sorted((w.start, w.end) for w in plan.crashes)
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end


def test_generate_validates_crash_parameters():
    with pytest.raises(FaultPlanError, match="max_concurrent_crashes"):
        FaultPlan.generate(
            random.Random(0), [], horizon=10.0,
            crash_endpoints=["s0"], max_concurrent_crashes=0,
        )
    with pytest.raises(FaultPlanError, match="min_crash_gap"):
        FaultPlan.generate(
            random.Random(0), [], horizon=10.0,
            crash_endpoints=["s0"], min_crash_gap=-1.0,
        )


def test_fault_plan_dict_round_trip():
    plan = FaultPlan(
        disconnects=(
            DisconnectWindow("a", 1.0, 3.0),
            DisconnectWindow("b", 2.0),  # permanent: inf end -> null
        ),
        partitions=(PartitionWindow(("a", "c"), 4.0, 6.0),),
        spikes=(LatencySpike(start=0.5, end=2.5, factor=4.0, source="a"),),
        shard_partitions=(
            ShardPartitionWindow((("s0",), ("s1", "s2")), 1.0, 9.0),
        ),
        crashes=(ShardCrashWindow("s1", 3.0, 7.0),),
    )
    document = plan.to_dict()
    assert document["disconnects"][1]["end"] is None
    assert fault_plan_from_dict(document) == plan
    # JSON-safe: survives an actual dumps/loads cycle.
    import json

    assert fault_plan_from_dict(json.loads(json.dumps(document))) == plan


def test_fault_plan_from_dict_rejects_malformed_windows():
    with pytest.raises(FaultPlanError):
        fault_plan_from_dict(
            {"crashes": [{"endpoint": "s0", "start": 5.0, "end": 2.0}]}
        )


def test_fault_plan_from_dict_rejects_unknown_top_level_key():
    # A misspelled window kind used to load as an empty plan.
    with pytest.raises(FaultPlanError, match="'crash'"):
        fault_plan_from_dict(
            {"crash": [{"endpoint": "s0", "start": 1.0, "end": 2.0}]}
        )


@pytest.mark.parametrize("kind,window,typo", [
    # "ned" for "end" used to load as a permanent outage.
    ("disconnects", {"endpoint": "a", "start": 1.0, "ned": 3.0}, "ned"),
    ("partitions", {"endpoints": ["a"], "start": 1.0, "ned": 3.0}, "ned"),
    ("spikes", {"start": 1.0, "end": 2.0, "factor": 2.0, "dest": "a"},
     "dest"),
    ("shard_partitions",
     {"groups": [["s0"], ["s1"]], "start": 1.0, "ned": 3.0}, "ned"),
    ("crashes", {"endpoint": "s0", "start": 1.0, "end": 2.0, "ned": 3.0},
     "ned"),
])
def test_fault_plan_from_dict_rejects_unknown_window_key(kind, window, typo):
    with pytest.raises(FaultPlanError, match=f"'{typo}'"):
        fault_plan_from_dict({kind: [window]})


@pytest.mark.parametrize("document", [
    [],
    "plan",
    None,
    {"crashes": {"endpoint": "s0", "start": 1.0, "end": 2.0}},
    {"disconnects": ["a"]},
])
def test_fault_plan_from_dict_rejects_non_objects(document):
    with pytest.raises(FaultPlanError):
        fault_plan_from_dict(document)


# -- Crash windows (injector layer) ------------------------------------------


def test_injector_crash_drops_traffic_and_fires_handlers():
    sim, net = make_net(latency=ConstantLatency(1.0))
    net.register("a", Sink())
    sink = Sink()
    net.register("s0", sink)
    events = []
    plan = FaultPlan(crashes=(ShardCrashWindow("s0", 1.0, 4.0),))
    injector = FaultInjector(sim, net, plan)
    injector.bind(
        "s0",
        on_crash=lambda: events.append(("crash", sim.now)),
        on_restart=lambda: events.append(("restart", sim.now)),
    )
    injector.install()

    net.send("a", "s0", "in-flight")                       # purged at 1.0
    sim.schedule_at(2.0, lambda: net.send("a", "s0", "dropped"))
    sim.schedule_at(5.0, lambda: net.send("a", "s0", "after"))
    sim.schedule_at(1.5, lambda: events.append(
        ("crashed?", injector.is_crashed("s0"))))
    sim.run()
    assert events == [
        ("crash", 1.0), ("crashed?", True), ("restart", 4.0),
    ]
    assert [p for _, p in sink.got] == ["after"]
    assert [e.kind for e in injector.events] == ["crash", "restart"]
    assert injector.events[0].purged == 1
    assert injector.crashed == frozenset()
    assert net.quiescent()


def test_injector_restart_handler_can_send_traffic():
    """_end_crash clears the crashed set *before* firing on_restart, so
    recovery resync traffic sent from inside the handler flows."""
    sim, net = make_net()
    sink = Sink()
    net.register("peer", sink)
    net.register("s0", Sink())
    plan = FaultPlan(crashes=(ShardCrashWindow("s0", 1.0, 2.0),))
    injector = FaultInjector(sim, net, plan)
    injector.bind("s0", on_restart=lambda: net.send("s0", "peer", "resync"))
    injector.install()
    sim.run()
    assert [p for _, p in sink.got] == ["resync"]


def test_force_reconnect_all_ends_crashes():
    sim, net = make_net()
    net.register("s0", Sink())
    restarted = []
    plan = FaultPlan(crashes=(ShardCrashWindow("s0", 1.0, 50.0),))
    injector = FaultInjector(sim, net, plan)
    injector.bind("s0", on_restart=lambda: restarted.append(sim.now))
    injector.install()
    sim.run(until=10.0)
    assert injector.is_crashed("s0")
    injector.force_reconnect_all()
    assert not injector.is_crashed("s0")
    assert restarted == [10.0]
    # The originally scheduled window end is now a no-op.
    sim.run()
    assert restarted == [10.0]
    assert [e.kind for e in injector.events] == ["crash", "restart"]


# -- Shard-partition heal interplay ------------------------------------------


def test_overlapping_partitions_heal_links_only_at_last_window_end():
    """Two overlapping shard partitions cut the same links; the link
    refcount must keep the link severed — and must NOT fire the heal
    callback — until the *last* covering window ends."""
    sim, net = make_net()
    for name in ("s0", "s1"):
        net.register(name, Sink())
    healed = []
    plan = FaultPlan(shard_partitions=(
        ShardPartitionWindow((("s0",), ("s1",)), 1.0, 5.0),
        ShardPartitionWindow((("s0",), ("s1",)), 3.0, 8.0),
    ))
    injector = FaultInjector(sim, net, plan)
    injector.on_link_heal(lambda links: healed.append((sim.now, links)))
    injector.install()

    sim.run(until=6.0)
    # First window ended at 5.0 while the second still covers the link.
    assert healed == []
    assert injector.is_cut("s0", "s1")
    sim.run()
    assert healed == [(8.0, [("s0", "s1"), ("s1", "s0")])]
    assert not injector.is_cut("s0", "s1")


def test_force_reconnect_all_heals_open_partition_and_fires_callback():
    """Satellite: force_reconnect_all() during an open shard-partition
    window must fire on_link_heal exactly once per healed link, and the
    window's scheduled end must then be a no-op (no second heal)."""
    sim, net = make_net()
    for name in ("s0", "s1"):
        net.register(name, Sink())
    healed = []
    plan = FaultPlan(shard_partitions=(
        ShardPartitionWindow((("s0",), ("s1",)), 1.0, 50.0),
    ))
    injector = FaultInjector(sim, net, plan)
    injector.on_link_heal(lambda links: healed.append((sim.now, list(links))))
    injector.install()
    sim.run(until=10.0)
    assert injector.is_cut("s0", "s1")

    injector.force_reconnect_all()
    assert healed == [(10.0, [("s0", "s1"), ("s1", "s0")])]
    assert not injector.is_cut("s0", "s1")
    sim.run()  # the scheduled end at 50.0 fires into a closed window
    assert healed == [(10.0, [("s0", "s1"), ("s1", "s0")])]
    assert [e.kind for e in injector.events] == [
        "shard-partition", "shard-heal",
    ]


def test_force_reconnect_all_closes_everything_at_once():
    """Outage + open shard partition + crash, all forced closed in one
    call: each fires its own end-side choreography exactly once."""
    sim, net = make_net()
    for name in ("w0", "s0", "s1"):
        net.register(name, Sink())
    calls = []
    plan = FaultPlan(
        disconnects=(DisconnectWindow("w0", 1.0),),
        shard_partitions=(
            ShardPartitionWindow((("s0",), ("s1",)), 1.0, 90.0),
        ),
        crashes=(ShardCrashWindow("s0", 2.0, 80.0),),
    )
    injector = FaultInjector(sim, net, plan)
    injector.bind("w0", on_reconnect=lambda: calls.append("reconnect"))
    injector.bind("s0", on_restart=lambda: calls.append("restart"))
    injector.on_link_heal(lambda links: calls.append("heal"))
    injector.install()
    sim.run(until=10.0)
    assert injector.is_down("w0")
    assert injector.is_crashed("s0")
    assert injector.is_cut("s0", "s1")

    injector.force_reconnect_all()
    assert calls == ["reconnect", "heal", "restart"]
    assert not injector.is_down("w0")
    assert not injector.is_crashed("s0")
    assert injector.cut_links == frozenset()
    sim.run()
    assert calls == ["reconnect", "heal", "restart"]
