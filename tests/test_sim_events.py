"""Unit tests for the event queue."""

import pytest

from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.sim.events import Event, EventQueue


def _push(queue, time, action):
    return queue.push_event(Event(time, action))


def test_push_returns_event():
    queue = EventQueue()
    event = _push(queue, 1.0, lambda: None)
    assert isinstance(event, Event)
    assert event.time == 1.0


def test_pop_orders_by_time():
    queue = EventQueue()
    _push(queue, 2.0, lambda: "b")
    _push(queue, 1.0, lambda: "a")
    _push(queue, 3.0, lambda: "c")
    times = [queue.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_ties_break_by_scheduling_order():
    queue = EventQueue()
    first = _push(queue, 1.0, lambda: "first")
    second = _push(queue, 1.0, lambda: "second")
    assert queue.pop() is first
    assert queue.pop() is second


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    doomed = _push(queue, 1.0, lambda: "doomed")
    survivor = _push(queue, 2.0, lambda: "ok")
    doomed.cancel()
    assert queue.pop() is survivor
    assert queue.pop() is None


def test_len_excludes_cancelled():
    queue = EventQueue()
    keep = _push(queue, 1.0, lambda: None)
    drop = _push(queue, 2.0, lambda: None)
    drop.cancel()
    assert len(queue) == 1
    assert queue.pop() is keep


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = _push(queue, 1.0, lambda: None)
    _push(queue, 2.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_many_events_fifo_within_same_time():
    queue = EventQueue()
    events = [_push(queue, 5.0, lambda i=i: i) for i in range(50)]
    popped = [queue.pop() for _ in range(50)]
    assert popped == events


def test_event_ordering_is_stable_after_interleaved_cancel():
    queue = EventQueue()
    a = _push(queue, 1.0, lambda: None)
    b = _push(queue, 1.0, lambda: None)
    c = _push(queue, 1.0, lambda: None)
    b.cancel()
    assert queue.pop() is a
    assert queue.pop() is c


@pytest.mark.parametrize("n", [0, 1, 17])
def test_len_matches_pushes(n):
    queue = EventQueue()
    for i in range(n):
        _push(queue, float(i), lambda: None)
    assert len(queue) == n


def test_len_counts_a_double_cancel_once():
    queue = EventQueue()
    doomed = _push(queue, 1.0, lambda: None)
    _push(queue, 2.0, lambda: None)
    doomed.cancel()
    doomed.cancel()
    assert len(queue) == 1


def test_cancel_after_pop_keeps_the_count():
    queue = EventQueue()
    first = _push(queue, 1.0, lambda: None)
    _push(queue, 2.0, lambda: None)
    assert queue.pop() is first
    assert len(queue) == 1
    first.cancel()
    assert len(queue) == 1


def _sized(time, size):
    """A prebuilt event that counts as *size* events."""
    event = Event(time, lambda: None)
    event.size = size
    return event


def _fan_out(recipients):
    """A server broadcasting over constant 1 s links to *recipients*
    sinks that log ``(name, payload)`` in delivery order."""
    sim = Simulator()
    net = Network(sim, default_latency=ConstantLatency(1.0))
    log = []
    net.register("server", _Sink(log, "server"))
    names = [f"c{i}" for i in range(recipients)]
    for name in names:
        net.register(name, _Sink(log, name))
    return sim, net, names, log


class _Sink:
    def __init__(self, log, name):
        self.log, self.name, self.then = log, name, None

    def on_message(self, source, payload):
        self.log.append((self.name, payload))
        if self.then is not None:
            self.then()


def test_skip_and_cancel_after_pop_keep_the_count():
    queue = EventQueue()
    sized = queue.push_event(_sized(1.0, 3))
    _push(queue, 2.0, lambda: None)
    assert queue.pop() is sized
    assert len(queue) == 1
    sized.skip_one()
    sized.cancel()
    assert len(queue) == 1
    _push(queue, 3.0, lambda: None)
    assert len(queue) == 2


def test_group_takes_consecutive_seqs_and_counts_each_member():
    queue = EventQueue()
    before = _push(queue, 1.0, lambda: None)
    sized = queue.push_event(_sized(1.0, 3))
    after = _push(queue, 1.0, lambda: None)
    assert (sized.seq, sized.time) == (1, 1.0)  # seqs 1, 2 and 3
    assert after.seq == 4
    assert len(queue) == 5
    assert len(queue._heap) == 3  # one entry for the sized event
    assert queue.pop() is before
    assert queue.pop() is sized
    assert len(queue) == 1


def test_group_fires_live_members_in_order():
    sim, net, names, log = _fan_out(4)
    net.broadcast("server", names, "op")
    net.drop_in_flight("c1")
    net.drop_in_flight("c1")
    queue = sim._queue
    assert len(queue) == 3
    delivery = queue.pop()
    assert len(queue) == 0
    delivery.fire()
    assert log == [("c0", "op"), ("c2", "op"), ("c3", "op")]
    assert delivery.size == 3  # counts as three fired events
    assert net.drop_in_flight("c0") == []  # already delivered: no effect
    assert delivery.size == 3
    assert len(queue) == 0


def test_member_cancelled_by_an_earlier_member_does_not_fire():
    sim, net, names, log = _fan_out(3)
    net._endpoints["c0"].then = lambda: net.drop_in_flight("c2")
    net.broadcast("server", names, "op")
    delivery = sim._queue.pop()
    delivery.fire()
    assert log == [("c0", "op"), ("c1", "op")]
    assert delivery.size == 2
    assert len(sim._queue) == 0
    net.check_accounting()


def test_group_with_every_member_cancelled_is_skipped():
    sim, net, names, log = _fan_out(2)
    net.broadcast("server", names, "op")
    survivor = _push(sim._queue, 2.0, lambda: None)
    assert len(net.drop_in_flight("server")) == 2
    assert len(sim._queue) == 1
    assert sim._queue.peek_time() == 2.0
    assert sim._queue.pop() is survivor
