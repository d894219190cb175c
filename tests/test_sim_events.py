"""Unit tests for the event queue."""

import pytest

from repro.sim.events import Event, EventQueue


def test_push_returns_event():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    assert isinstance(event, Event)
    assert event.time == 1.0


def test_pop_orders_by_time():
    queue = EventQueue()
    queue.push(2.0, lambda: "b")
    queue.push(1.0, lambda: "a")
    queue.push(3.0, lambda: "c")
    times = [queue.pop().time for _ in range(3)]
    assert times == [1.0, 2.0, 3.0]


def test_ties_break_by_scheduling_order():
    queue = EventQueue()
    first = queue.push(1.0, lambda: "first")
    second = queue.push(1.0, lambda: "second")
    assert queue.pop() is first
    assert queue.pop() is second


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    doomed = queue.push(1.0, lambda: "doomed")
    survivor = queue.push(2.0, lambda: "ok")
    doomed.cancel()
    assert queue.pop() is survivor
    assert queue.pop() is None


def test_len_excludes_cancelled():
    queue = EventQueue()
    keep = queue.push(1.0, lambda: None)
    drop = queue.push(2.0, lambda: None)
    drop.cancel()
    assert len(queue) == 1
    assert queue.pop() is keep


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 2.0


def test_peek_time_empty_is_none():
    assert EventQueue().peek_time() is None


def test_clear_drops_everything():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    queue.clear()
    assert queue.pop() is None
    assert len(queue) == 0


def test_many_events_fifo_within_same_time():
    queue = EventQueue()
    events = [queue.push(5.0, lambda i=i: i) for i in range(50)]
    popped = [queue.pop() for _ in range(50)]
    assert popped == events


def test_event_ordering_is_stable_after_interleaved_cancel():
    queue = EventQueue()
    a = queue.push(1.0, lambda: None)
    b = queue.push(1.0, lambda: None)
    c = queue.push(1.0, lambda: None)
    b.cancel()
    assert queue.pop() is a
    assert queue.pop() is c


@pytest.mark.parametrize("n", [0, 1, 17])
def test_len_matches_pushes(n):
    queue = EventQueue()
    for i in range(n):
        queue.push(float(i), lambda: None)
    assert len(queue) == n


def test_len_counts_a_double_cancel_once():
    queue = EventQueue()
    doomed = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    doomed.cancel()
    doomed.cancel()
    assert len(queue) == 1


def test_cancel_after_pop_keeps_the_count():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert queue.pop() is first
    assert len(queue) == 1
    first.cancel()
    assert len(queue) == 1


def test_cancel_after_clear_keeps_the_count():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    members = queue.push_group(2.0, 3, lambda index: None)
    queue.clear()
    event.cancel()
    members[1].cancel()
    assert len(queue) == 0
    queue.push(3.0, lambda: None)
    assert len(queue) == 1


def test_group_takes_consecutive_seqs_and_counts_each_member():
    queue = EventQueue()
    before = queue.push(1.0, lambda: None)
    members = queue.push_group(1.0, 3, lambda index: None)
    after = queue.push(1.0, lambda: None)
    assert [m.seq for m in members] == [1, 2, 3]
    assert {m.time for m in members} == {1.0}
    assert after.seq == 4
    assert len(queue) == 5
    assert len(queue._heap) == 3  # one entry for the whole group
    assert queue.pop() is before


def test_group_fires_live_members_in_order():
    queue = EventQueue()
    fired = []
    members = queue.push_group(1.0, 4, fired.append)
    members[1].cancel()
    members[1].cancel()
    assert len(queue) == 3
    group = queue.pop()
    assert len(queue) == 0
    group.action()
    assert fired == [0, 2, 3]
    assert group.size == 3  # counts as three fired events
    members[0].cancel()  # already fired: no effect
    assert group.size == 3
    assert len(queue) == 0


def test_member_cancelled_by_an_earlier_member_does_not_fire():
    queue = EventQueue()
    fired = []

    def action(index):
        fired.append(index)
        if index == 0:
            members[2].cancel()

    members = queue.push_group(1.0, 3, action)
    group = queue.pop()
    group.action()
    assert fired == [0, 1]
    assert group.size == 2
    assert len(queue) == 0


def test_group_with_every_member_cancelled_is_skipped():
    queue = EventQueue()
    members = queue.push_group(1.0, 2, lambda index: None)
    survivor = queue.push(2.0, lambda: None)
    for member in members:
        member.cancel()
    assert len(queue) == 1
    assert queue.peek_time() == 2.0
    assert queue.pop() is survivor
