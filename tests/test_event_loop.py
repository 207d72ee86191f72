"""Tests for the discrete-event loop."""

import pytest

from repro.simulation.event_loop import EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule_at(2.0, lambda: fired.append("b"))
    loop.schedule_at(1.0, lambda: fired.append("a"))
    loop.schedule_at(3.0, lambda: fired.append("c"))
    loop.run_until(5.0)
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_fifo_order():
    loop = EventLoop()
    fired = []
    for label in "abcde":
        loop.schedule_at(1.0, fired.append, label)
    loop.run_until(1.0)
    assert fired == list("abcde")


def test_run_until_advances_clock_to_end_time():
    loop = EventLoop()
    loop.schedule_at(0.5, lambda: None)
    loop.run_until(2.0)
    assert loop.now() == 2.0


def test_events_after_end_time_do_not_fire():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, lambda: fired.append("early"))
    loop.schedule_at(3.0, lambda: fired.append("late"))
    loop.run_until(2.0)
    assert fired == ["early"]
    loop.run_until(4.0)
    assert fired == ["early", "late"]


def test_schedule_after_uses_relative_delay():
    loop = EventLoop()
    times = []
    loop.schedule_after(1.0, lambda: times.append(loop.now()))
    loop.run_until(1.5)
    loop.schedule_after(1.0, lambda: times.append(loop.now()))
    loop.run_until(3.0)
    assert times == [1.0, 2.5]


def test_scheduling_in_the_past_is_rejected():
    loop = EventLoop()
    loop.run_until(5.0)
    with pytest.raises(ValueError):
        loop.schedule_at(4.0, lambda: None)
    with pytest.raises(ValueError):
        loop.schedule_after(-1.0, lambda: None)


def test_cancelled_events_do_not_fire():
    loop = EventLoop()
    fired = []
    event = loop.schedule_at(1.0, lambda: fired.append("x"))
    event.cancel()
    loop.run_until(2.0)
    assert fired == []
    assert loop.events_processed == 0


def test_events_can_schedule_more_events():
    loop = EventLoop()
    fired = []

    def chain(depth: int) -> None:
        fired.append(depth)
        if depth < 3:
            loop.schedule_after(1.0, chain, depth + 1)

    loop.schedule_at(0.0, chain, 0)
    loop.run_until(10.0)
    assert fired == [0, 1, 2, 3]


def test_run_until_rejects_past_end_time():
    loop = EventLoop()
    loop.run_until(3.0)
    with pytest.raises(ValueError):
        loop.run_until(2.0)


def test_clock_starts_at_zero_by_default():
    assert EventLoop().now() == 0.0


def test_clock_starts_at_given_time():
    assert EventLoop(5.5).now() == 5.5


def test_clock_rejects_negative_start():
    with pytest.raises(ValueError):
        EventLoop(-1.0)


def test_clock_advances_forward():
    loop = EventLoop()
    loop.run_until(1.25)
    assert loop.now() == 1.25
    loop.run_until(1.25)  # running to the same instant is allowed
    assert loop.now() == 1.25


def test_clock_rejects_backward_motion():
    loop = EventLoop(10.0)
    with pytest.raises(ValueError):
        loop.run_until(9.999)
