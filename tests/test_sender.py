"""Tests for the Sprout sender in isolation (no network)."""

import pytest

from repro.core.packets import (
    CONTROL_PACKET_BYTES,
    make_feedback_packet,
    parse_data_header,
)
from repro.core.sender import SproutSender, saturating_payload_provider
from repro.simulation.packet import MTU_BYTES, Packet


class FakeContext:
    def __init__(self):
        self.sent = []
        self.time = 0.0
        self.name = "fake-sender"

    def now(self):
        return self.time

    def send(self, packet):
        packet.sent_at = self.time
        self.sent.append(packet)

    def schedule_after(self, delay, callback):  # pragma: no cover - unused
        raise NotImplementedError


def _feedback(forecast_packets, received_or_lost=0, time=0.0):
    return make_feedback_packet(
        forecast_bytes=[p * 1500.0 for p in forecast_packets],
        forecast_time=time,
        received_or_lost_bytes=received_or_lost,
    )


def test_constructor_validation():
    with pytest.raises(ValueError):
        SproutSender(lookahead_ticks=0)
    with pytest.raises(ValueError):
        SproutSender(tick_interval=0.0)
    with pytest.raises(ValueError):
        SproutSender(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        SproutSender(bootstrap_packets_per_tick=-1)


def test_saturating_provider_fills_budget():
    assert saturating_payload_provider(0.0, 4500) == [MTU_BYTES] * 3
    assert saturating_payload_provider(0.0, 1000) == []


def test_bootstrap_before_first_forecast():
    sender = SproutSender(bootstrap_packets_per_tick=2)
    ctx = FakeContext()
    sender.start(ctx)
    for i in range(3):
        ctx.time = 0.02 * (i + 1)
        sender.on_tick(ctx.time)
    data = [p for p in ctx.sent if not parse_data_header(p).is_heartbeat]
    assert len(data) == 6
    assert sender.bytes_sent == 6 * MTU_BYTES


def test_window_follows_forecast_minus_queue():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    # Forecast: 3 packets per tick cumulative; lookahead 5 ticks => 15
    # packets may be sent when the queue is believed empty.
    ctx.time = 0.1
    sender.on_packet(_feedback([3, 6, 9, 12, 15, 18, 21, 24], time=0.1), ctx.time)
    data = [p for p in ctx.sent if parse_data_header(p) is not None]
    assert len(data) == 15
    assert sender.bytes_sent == 15 * MTU_BYTES


def test_queue_estimate_reduces_window():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    sender.bytes_sent = 10 * MTU_BYTES  # pretend these are unacknowledged
    ctx.time = 0.1
    # The receiver has seen nothing: queue estimate = 10 packets, forecast
    # drains 15 within the look-ahead, so only 5 more may be sent.
    sender.on_packet(_feedback([3, 6, 9, 12, 15, 18, 21, 24], received_or_lost=0, time=0.1), ctx.time)
    assert len(ctx.sent) == 5


def test_sequence_numbers_count_bytes_cumulatively():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=0.1), ctx.time)
    seqs = [parse_data_header(p).seq_bytes for p in ctx.sent]
    assert seqs == [MTU_BYTES * (i + 1) for i in range(len(ctx.sent))]


def test_time_to_next_zero_mid_flight_positive_at_end():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=0.1), ctx.time)
    headers = [parse_data_header(p) for p in ctx.sent]
    assert all(h.time_to_next == 0.0 for h in headers[:-1])
    assert headers[-1].time_to_next > 0.0


def test_stale_forecast_ignored():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=0.1), ctx.time)
    count_after_first = len(ctx.sent)
    # An older forecast (earlier receiver timestamp) must not reopen the window.
    sender.on_packet(_feedback([50, 100, 150, 200, 250, 300, 350, 400], time=0.05), ctx.time)
    assert len(ctx.sent) == count_after_first
    assert sender.forecasts_received == 1


def test_heartbeat_sent_when_idle():
    sender = SproutSender(bootstrap_packets_per_tick=0, heartbeat_interval=0.1)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([0] * 8, time=0.1), ctx.time)  # window stays shut
    for i in range(10):
        ctx.time = 0.1 + 0.02 * (i + 1)
        sender.on_tick(ctx.time)
    heartbeats = [p for p in ctx.sent if parse_data_header(p).is_heartbeat]
    assert len(heartbeats) >= 2
    assert all(p.size == CONTROL_PACKET_BYTES for p in heartbeats)
    assert sender.heartbeats_sent == len(heartbeats)


def test_throwaway_number_reflects_packets_sent_10ms_ago():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=0.1), ctx.time)
    first_flight_bytes = sender.bytes_sent
    # 20 ms later everything from the first flight is older than 10 ms.
    ctx.time = 0.12
    sender.on_packet(
        _feedback([2, 4, 6, 8, 10, 12, 14, 16], received_or_lost=first_flight_bytes, time=0.12),
        ctx.time,
    )
    new_packets = ctx.sent[len(ctx.sent) - (sender.data_packets_sent - 10):]
    later_headers = [parse_data_header(p) for p in ctx.sent[10:]]
    assert any(h.throwaway_bytes == first_flight_bytes for h in later_headers)
    del new_packets


def test_packet_source_supplies_tunnelled_packets():
    supplied = []

    def source(now, budget):
        packet = Packet(size=500, flow_id="client")
        supplied.append(packet)
        return [packet]

    sender = SproutSender(bootstrap_packets_per_tick=0, packet_source=source)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=0.1), ctx.time)
    assert supplied
    header = parse_data_header(supplied[0])
    assert header is not None
    assert header.seq_bytes == 500


def test_packet_source_overrun_rejected():
    def greedy(now, budget):
        return [Packet(size=budget + 1)]

    sender = SproutSender(bootstrap_packets_per_tick=0, packet_source=greedy)
    ctx = FakeContext()
    sender.start(ctx)
    ctx.time = 0.1
    with pytest.raises(ValueError):
        sender.on_packet(_feedback([10, 20, 30, 40, 50, 60, 70, 80], time=0.1), ctx.time)


def _run_ticks(sender, ticks):
    ctx = FakeContext()
    sender.start(ctx)
    for i in range(1, ticks + 1):
        ctx.time = 0.02 * i
        sender.on_packet(_feedback([2, 4, 6, 8, 10, 12, 14, 16], time=ctx.time), ctx.time)
        sender.on_tick(ctx.time)
    return ctx


def test_window_history_recorded():
    sender = SproutSender(bootstrap_packets_per_tick=0, record_history=True)
    _run_ticks(sender, 500)
    # One window per forecast arrival and one per tick.
    assert len(sender.window_history) == 1000
    assert sender.window_history[0][1] > 0


def test_window_history_stays_empty_by_default():
    sender = SproutSender(bootstrap_packets_per_tick=0)
    ctx = _run_ticks(sender, 500)
    assert ctx.sent
    assert sender.window_history == []
