"""Tests for the trace-driven link."""

import pytest

from repro.simulation.event_loop import EventLoop
from repro.simulation.link import TraceDrivenLink
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.queues import DropTailQueue


def _collector():
    received = []

    def deliver(packet, now):
        received.append((now, packet))

    return received, deliver


def test_packets_released_at_trace_times():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2, 0.3], deliver)
    for _ in range(3):
        link.receive(Packet(), 0.0)
    loop.run_until(0.5)
    assert [round(t, 3) for t, _ in received] == [0.1, 0.2, 0.3]


def test_empty_queue_wastes_opportunity():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, loop_trace=False)
    loop.run_until(0.15)  # the 0.1 opportunity passes with nothing queued
    assert (link.opportunities, link.wasted_opportunities) == (1, 1)  # read mid-idle
    link.receive(Packet(), 0.15)
    loop.run_until(0.5)
    assert len(received) == 1
    assert received[0][0] == pytest.approx(0.2)
    assert link.wasted_opportunities == 1


def test_idle_opportunities_are_counted_across_wraps():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, loop_trace=True)
    loop.run_until(0.35)  # 0.1, 0.2, then the second cycle's 0.3
    assert (link.opportunities, link.wasted_opportunities) == (3, 3)
    assert loop.pending_events == 0  # an idle link schedules nothing
    link.receive(Packet(), 0.35)
    loop.run_until(0.95)  # served at 0.4; 0.5 ... 0.9 pass idle again
    assert [round(t, 3) for t, _ in received] == [0.4]
    assert (link.opportunities, link.wasted_opportunities) == (9, 8)


def test_arrival_dropped_at_the_queue_tail_does_not_wake_the_link():
    loop = EventLoop()
    received, deliver = _collector()
    queue = DropTailQueue(byte_limit=1000)
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, queue=queue)
    link.receive(Packet(), 0.0)  # an MTU does not fit
    assert queue.drops == 1
    assert loop.pending_events == 0


def test_opportunity_at_the_instant_of_an_arrival_serves_it():
    # An integer-millisecond trace, as traces/format.py round-trips produce;
    # the generated traces have continuous offsets and never tie like this.
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.001, 0.7], deliver, loop_trace=True)
    loop.schedule_at(0.001, lambda: link.receive(Packet(), loop.now()))
    # The same tie in the second cycle, where the opportunity's time is the
    # float sum 0.7 + 0.001 (rounded up onto 0.701).
    loop.schedule_at(0.701, lambda: link.receive(Packet(), loop.now()))
    loop.run_until(1.0)
    assert [t for t, _ in received] == [0.001, 0.701]
    assert (link.opportunities, link.wasted_opportunities) == (3, 1)


def test_receive_from_the_delivery_callback_keeps_one_event_pending():
    loop = EventLoop()
    received = []

    def deliver(packet, now):
        received.append((now, packet))
        if len(received) == 1:
            link.receive(Packet(), now)  # the queue is empty at this point

    link = TraceDrivenLink(loop, [0.1, 0.2, 0.3], deliver, loop_trace=False)
    link.receive(Packet(size=100), 0.0)
    assert loop.pending_events == 1
    loop.run_until(0.15)
    assert len(received) == 1  # 1400 bytes of credit do not carry an MTU
    assert loop.pending_events == 1
    loop.run_until(0.25)
    assert [round(t, 3) for t, _ in received] == [0.1, 0.2]
    assert loop.pending_events == 0


def test_per_byte_accounting_releases_many_small_packets():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1], deliver, loop_trace=False)
    # Fifteen 100-byte packets fit within a single MTU-sized opportunity
    # (footnote 6 of the paper).
    for _ in range(15):
        link.receive(Packet(size=100), 0.0)
    loop.run_until(0.2)
    assert len(received) == 15


def test_large_packet_needs_accumulated_credit():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, loop_trace=False)
    link.receive(Packet(size=2 * MTU_BYTES), 0.0)
    loop.run_until(0.15)
    assert received == []  # one opportunity is not enough
    loop.run_until(0.3)
    assert len(received) == 1


def test_credit_resets_when_queue_empties():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2, 0.3], deliver, loop_trace=False)
    link.receive(Packet(size=100), 0.0)
    loop.run_until(0.15)
    assert len(received) == 1
    # The unused 1400 bytes of credit must not carry over to deliver a
    # 1500-byte packet out of a single later leftover.
    link.receive(Packet(size=MTU_BYTES), 0.16)
    link.receive(Packet(size=MTU_BYTES), 0.16)
    loop.run_until(0.35)
    assert len(received) == 3  # exactly one per remaining opportunity


def test_trace_loops_when_exhausted():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, loop_trace=True)
    for _ in range(4):
        link.receive(Packet(), 0.0)
    loop.run_until(0.5)
    assert len(received) == 4
    assert [round(t, 3) for t, _ in received] == [0.1, 0.2, 0.3, 0.4]


def test_statistics_track_bytes_and_packets():
    loop = EventLoop()
    received, deliver = _collector()
    link = TraceDrivenLink(loop, [0.1, 0.2], deliver, loop_trace=False)
    link.receive(Packet(), 0.0)
    link.receive(Packet(), 0.0)
    loop.run_until(0.5)
    assert link.packets_delivered == 2
    assert link.bytes_delivered == 2 * MTU_BYTES
    assert link.opportunities == 2


def test_empty_trace_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        TraceDrivenLink(loop, [], lambda p, t: None)


def test_negative_trace_time_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        TraceDrivenLink(loop, [-0.1, 0.2], lambda p, t: None)
