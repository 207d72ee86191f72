"""Tests for the propagation delay of a one-way pipe.

The delay is no longer a separate element: :class:`OneWayPipe` hands each
packet to its link's arrival FIFO, due ``propagation_delay`` after the send.
"""

import pytest

from repro.simulation.event_loop import EventLoop
from repro.simulation.packet import Packet
from repro.simulation.path import OneWayPipe


def _pipe(trace, delay, deliver):
    loop = EventLoop()
    return loop, OneWayPipe(loop, trace, deliver, propagation_delay=delay)


def test_packets_delayed_by_fixed_amount():
    received = []
    loop, pipe = _pipe([1.05], 0.05, lambda p, t: received.append(t))
    packet = Packet()
    loop.schedule_at(1.0, lambda: pipe.send(packet, loop.now()))
    loop.run_until(2.0)
    assert packet.enqueued_at == pytest.approx(1.05)
    assert received == [pytest.approx(1.05)]


def test_order_preserved():
    received = []
    trace = [0.1 + 0.01 * k for k in range(5)]
    loop, pipe = _pipe(trace, 0.02, lambda p, t: received.append(p.headers["i"]))
    for i in range(5):
        packet = Packet(headers={"i": i})
        loop.schedule_at(0.001 * i, lambda packet=packet: pipe.send(packet, loop.now()))
    loop.run_until(1.0)
    assert received == [0, 1, 2, 3, 4]
