"""Unit tests for the simulator kernel."""

import pytest

from repro.net import ConstantLatency, Network
from repro.sim import Event, Simulator
from repro.sim.kernel import SimulationError


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.run() == 3
    assert fired == ["a", "b", "c"]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(3.0, lambda: None)


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(sim.now)
        if depth:
            sim.schedule(1.0, lambda: chain(depth - 1))

    sim.schedule(0.0, lambda: chain(3))
    sim.run()
    assert fired == [0.0, 1.0, 2.0, 3.0]


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]


def test_step_fires_exactly_one():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(2.0, lambda: fired.append(2))
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_not_reentrant():
    sim = Simulator()

    def recurse():
        sim.run()

    sim.schedule(0.0, recurse)
    with pytest.raises(SimulationError):
        sim.run()


def test_pending_events_counter():
    sim = Simulator()
    assert sim.pending_events == 0
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(7.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def _fan_out(sim, recipients, fired):
    """A network on *sim* whose server reaches *recipients* sinks over
    constant 1 s links; each sink appends its name to *fired*."""
    net = Network(sim, default_latency=ConstantLatency(1.0))
    net.register("server", _Sink(fired, "server"))
    names = [f"c{i}" for i in range(recipients)]
    for name in names:
        net.register(name, _Sink(fired, name))
    return net, names


class _Sink:
    def __init__(self, fired, name):
        self.fired, self.name, self.then = fired, name, None

    def on_message(self, source, payload):
        self.fired.append(self.name)
        if self.then is not None:
            self.then()


def test_group_fires_in_seq_order_and_counts_each_member():
    sim = Simulator()
    fired = []
    net, names = _fan_out(sim, 3, fired)
    sim.schedule_at(1.0, lambda: fired.append("before"))
    net.broadcast("server", names, "op")
    sim.schedule_at(1.0, lambda: fired.append("after"))
    assert sim.run() == 5
    assert fired == ["before", "c0", "c1", "c2", "after"]


def test_pending_events_counts_live_group_members():
    sim = Simulator()
    net, names = _fan_out(sim, 4, [])
    net.broadcast("server", names, "op")
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 5
    net.drop_in_flight("c2")
    assert sim.pending_events == 4
    assert sim.step() is True
    assert sim.pending_events == 1
    assert sim.now == 1.0


def test_member_cancelled_mid_group_is_not_counted_as_fired():
    sim = Simulator()
    fired = []
    net, names = _fan_out(sim, 3, fired)
    net._endpoints["c0"].then = lambda: net.drop_in_flight("c1")
    net.broadcast("server", names, "op")
    assert sim.run() == 2
    assert fired == ["c0", "c2"]
    assert sim.pending_events == 0


def test_step_fires_a_whole_group():
    sim = Simulator()
    fired = []
    net, names = _fan_out(sim, 3, fired)
    net.broadcast("server", names, "op")
    sim.schedule(2.0, lambda: fired.append("later"))
    assert sim.step() is True
    assert fired == ["c0", "c1", "c2"]
    assert sim.step() is True
    assert fired == ["c0", "c1", "c2", "later"]
    assert sim.step() is False


def test_group_at_past_time_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_event(Event(3.0, lambda: None))
