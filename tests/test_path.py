"""Tests for the one-way pipe and the duplex emulated path."""

import pytest

from repro.simulation.event_loop import EventLoop
from repro.simulation.packet import Packet
from repro.simulation.path import (
    DEFAULT_PROPAGATION_DELAY,
    DuplexLinkConfig,
    DuplexPath,
    OneWayPipe,
)
from repro.simulation.queues import CoDelQueue, DropTailQueue


def _dense_trace(rate_per_s: float, duration: float):
    step = 1.0 / rate_per_s
    return [i * step for i in range(1, int(duration * rate_per_s) + 1)]


def test_default_delay_matches_paper():
    assert DEFAULT_PROPAGATION_DELAY == pytest.approx(0.020)


def test_min_rtt_is_twice_propagation_delay():
    loop = EventLoop()
    config = DuplexLinkConfig(
        forward_trace=_dense_trace(1000, 2.0),
        reverse_trace=_dense_trace(1000, 2.0),
        propagation_delay=0.020,
    )
    path = DuplexPath(loop, config)
    deliveries = {"a": [], "b": []}
    path.attach_a(lambda p, t: deliveries["a"].append(t))
    path.attach_b(lambda p, t: deliveries["b"].append(t))

    # Endpoint B echoes every delivery straight back to A.
    path.attach_b(lambda p, t: (deliveries["b"].append(t), path.send_from_b(Packet())))

    sent_at = 0.5
    loop.schedule_at(sent_at, lambda: path.send_from_a(Packet()))
    loop.run_until(1.0)
    forward_delay = deliveries["b"][0] - sent_at
    assert forward_delay >= 0.020
    assert forward_delay < 0.030  # propagation + at most one opportunity gap

    rtt = deliveries["a"][0] - sent_at
    assert rtt >= 0.040
    assert rtt < 0.060


def test_packets_delayed_by_fixed_amount():
    loop = EventLoop()
    received = []
    pipe = OneWayPipe(loop, [1.05], lambda p, t: received.append(t), propagation_delay=0.05)
    packet = Packet()
    loop.schedule_at(1.0, lambda: pipe.send(packet, loop.now()))
    loop.run_until(2.0)
    assert packet.enqueued_at == pytest.approx(1.05)
    assert received == [pytest.approx(1.05)]


def test_order_preserved():
    loop = EventLoop()
    received = []
    trace = [0.1 + 0.01 * k for k in range(5)]
    pipe = OneWayPipe(
        loop, trace, lambda p, t: received.append(p.headers["i"]), propagation_delay=0.02
    )
    for i in range(5):
        packet = Packet(headers={"i": i})
        loop.schedule_at(0.001 * i, lambda packet=packet: pipe.send(packet, loop.now()))
    loop.run_until(1.0)
    assert received == [0, 1, 2, 3, 4]


def test_loss_rate_zero_delivers_everything():
    loop = EventLoop()
    pipe = OneWayPipe(loop, _dense_trace(500, 5.0), lambda p, t: None, loss_rate=0.0)
    for _ in range(100):
        pipe.send(Packet(), 0.0)
    loop.run_until(5.0)
    assert pipe.packets_lost == 0
    assert pipe.link.packets_delivered == 100


def test_loss_rate_drops_roughly_expected_fraction():
    loop = EventLoop()
    delivered = []
    pipe = OneWayPipe(
        loop, _dense_trace(2000, 5.0), lambda p, t: delivered.append(p), loss_rate=0.3
    )
    for _ in range(2000):
        pipe.send(Packet(size=100), 0.0)
    loop.run_until(5.0)
    loss_fraction = pipe.packets_lost / 2000
    assert 0.2 < loss_fraction < 0.4


def test_codel_option_installs_codel_queue():
    loop = EventLoop()
    config = DuplexLinkConfig(
        forward_trace=[0.1], reverse_trace=[0.1], use_codel=True
    )
    path = DuplexPath(loop, config)
    assert isinstance(path.forward.queue, CoDelQueue)
    assert isinstance(path.reverse.queue, CoDelQueue)


def test_default_queue_is_droptail():
    loop = EventLoop()
    config = DuplexLinkConfig(forward_trace=[0.1], reverse_trace=[0.1])
    path = DuplexPath(loop, config)
    assert isinstance(path.forward.queue, DropTailQueue)


def test_invalid_loss_rate_rejected():
    with pytest.raises(ValueError):
        DuplexLinkConfig(forward_trace=[0.1], reverse_trace=[0.1], loss_rate=1.0)


def test_capacity_bytes_counts_opportunities():
    loop = EventLoop()
    pipe = OneWayPipe(loop, [0.1, 0.2, 0.3], lambda p, t: None)
    loop.run_until(0.15)
    assert pipe.capacity_bytes == 1 * 1500  # read while the link sleeps
    # Stop before the (looped) trace replays, so exactly 3 opportunities pass.
    loop.run_until(0.35)
    assert pipe.capacity_bytes == 3 * 1500
    loop.run_until(0.55)  # the second cycle's 0.4 and 0.5
    assert pipe.capacity_bytes == 5 * 1500


def test_directions_are_independent():
    loop = EventLoop()
    config = DuplexLinkConfig(
        forward_trace=_dense_trace(100, 2.0),
        reverse_trace=_dense_trace(100, 2.0),
    )
    path = DuplexPath(loop, config)
    got_a, got_b = [], []
    path.attach_a(lambda p, t: got_a.append(p))
    path.attach_b(lambda p, t: got_b.append(p))
    loop.schedule_at(0.1, lambda: path.send_from_a(Packet()))
    loop.run_until(1.0)
    assert len(got_b) == 1
    assert got_a == []
