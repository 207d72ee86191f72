"""The Sprout sender (Sections 3.4-3.5).

The sender turns the receiver's cautious forecast into a *window*: the
number of bytes that can be transmitted right now while keeping a 95%
probability that every packet clears the queue within 100 ms.  On every
forecast it re-estimates the bytes already sitting in the network (bytes
sent minus the receiver's received-or-lost counter); between forecasts it
keeps that estimate up to date by adding every byte it sends and subtracting
the forecast deliveries as each forecast tick elapses.  The window looks
five ticks (100 ms) ahead of the current position in the forecast —
extending further as time passes, up to the 160 ms horizon — subtracts the
queue-occupancy estimate, and whatever remains is safe to send.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

import numpy as np

from repro.core.packets import (
    CONTROL_PACKET_BYTES,
    HEADER_IS_HEARTBEAT,
    HEADER_SEQ_BYTES,
    HEADER_THROWAWAY_BYTES,
    HEADER_TIME_TO_NEXT,
    THROWAWAY_INTERVAL,
    data_packet_sizes,
    make_data_packet,
    parse_feedback,
)
from repro.simulation.endpoints import HostContext, Protocol
from repro.simulation.packet import MTU_BYTES, Packet

#: A payload provider: called with ``(now, budget_bytes)`` and returning the
#: sizes (bytes) of the packets to send, each no larger than one MTU and
#: summing to at most the budget.  The default provider models a saturating
#: application (always has data), which is what the paper's evaluation uses.
PayloadProvider = Callable[[float, int], List[int]]

#: A packet source: like a payload provider, but returning fully-formed
#: packets (e.g. tunnelled client packets) whose sizes sum to at most the
#: budget.  The Sprout sender adds its own control headers to each packet.
PacketSource = Callable[[float, int], List[Packet]]


def saturating_payload_provider(now: float, budget_bytes: int) -> List[int]:
    """Fill the whole budget with MTU-sized packets (bulk/saturating source)."""
    return data_packet_sizes(budget_bytes)


class SproutSender(Protocol):
    """Sender half of a Sprout connection.

    Args:
        lookahead_ticks: how far into the forecast the window looks (5 ticks
            = 100 ms, the paper's interactivity target).
        tick_interval: sender timer granularity; the paper's 20 ms.
        heartbeat_interval: idle interval after which a heartbeat is sent so
            the receiver can distinguish an idle sender from an outage.
        bootstrap_packets_per_tick: before the first forecast arrives the
            sender has no information at all; it sends this many MTU packets
            per tick (1 by default, i.e. 600 kbit/s) so the receiver's
            inference has observations to work with.
        payload_provider: where outgoing bytes come from; defaults to a
            saturating source.
        packet_source: alternative to ``payload_provider`` for callers (such
            as SproutTunnel) that supply fully-formed packets to carry; takes
            precedence over ``payload_provider`` when set.
        flow_id: label attached to data packets.
        record_history: when True, append ``(time, window_bytes)`` to
            :attr:`window_history` at every window computation, for
            diagnostics.  Off by default, like the receiver's switch: two
            tuples per tick otherwise accumulate for the sender's lifetime.
    """

    def __init__(
        self,
        lookahead_ticks: int = 5,
        tick_interval: float = 0.020,
        heartbeat_interval: float = 0.100,
        bootstrap_packets_per_tick: int = 1,
        payload_provider: Optional[PayloadProvider] = None,
        packet_source: Optional[PacketSource] = None,
        flow_id: str = "sprout",
        record_history: bool = False,
    ) -> None:
        if lookahead_ticks < 1:
            raise ValueError("lookahead_ticks must be at least 1")
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if bootstrap_packets_per_tick < 0:
            raise ValueError("bootstrap_packets_per_tick must be non-negative")
        self.lookahead_ticks = lookahead_ticks
        self.tick_interval = tick_interval
        self.heartbeat_interval = heartbeat_interval
        self.bootstrap_packets_per_tick = bootstrap_packets_per_tick
        self.payload_provider = (
            payload_provider if payload_provider is not None else saturating_payload_provider
        )
        self.packet_source = packet_source
        self.flow_id = flow_id

        # Cumulative transmission accounting.
        self.bytes_sent = 0
        self.data_packets_sent = 0
        self.heartbeats_sent = 0
        self._last_send_time = 0.0
        # (send_time, cumulative_bytes_after_packet) for the throwaway number.
        self._send_history: Deque[Tuple[float, int]] = deque()
        self._latest_throwaway = 0

        # Forecast state.
        self._forecast: Optional[Tuple[float, ...]] = None
        self._forecast_base_time = 0.0
        self._forecast_time = -1.0
        self._ticks_drained = 0
        self._queue_estimate = 0.0
        self.forecasts_received = 0
        self.record_history = record_history
        #: history of (time, window_bytes); only populated when
        #: ``record_history`` is True
        self.window_history: List[Tuple[float, float]] = []

    # ------------------------------------------------------------- lifecycle

    def start(self, ctx: HostContext) -> None:
        super().start(ctx)
        self._last_send_time = ctx.now()

    # -------------------------------------------------------------- feedback

    def on_packet(self, packet: Packet, now: float) -> None:
        feedback = parse_feedback(packet)
        if feedback is None:
            return
        if feedback.forecast_time <= self._forecast_time:
            return  # stale or duplicate forecast
        self._forecast_time = feedback.forecast_time
        # Kept as a tuple of Python floats: the window math only ever
        # indexes single entries, and scalar indexing into an ndarray costs
        # ~10x a tuple access on this per-tick path.  Values are unchanged.
        self._forecast = tuple(float(v) for v in feedback.forecast_bytes)
        self._forecast_base_time = now
        self._ticks_drained = 0
        self._queue_estimate = max(0.0, float(self.bytes_sent - feedback.received_or_lost_bytes))
        self.forecasts_received += 1
        self._transmit_window(now)

    # ----------------------------------------------------------------- tick

    def on_tick(self, now: float) -> None:
        if self._forecast is None:
            self._bootstrap(now)
        else:
            self._transmit_window(now)
        self._maybe_heartbeat(now)

    # ------------------------------------------------------------- internals

    def _bootstrap(self, now: float) -> None:
        """Send a trickle of packets until the first forecast arrives."""
        if self.bootstrap_packets_per_tick == 0:
            return
        budget = self.bootstrap_packets_per_tick * MTU_BYTES
        if self.packet_source is not None:
            packets = self.packet_source(now, budget)
            if packets:
                self._send_packets(packets, now)
            return
        sizes = [MTU_BYTES] * self.bootstrap_packets_per_tick
        self._send_data(sizes, now)

    def _advance_forecast_clock(self, now: float) -> int:
        """Account for forecast ticks that have elapsed since the last update.

        Returns the (uncapped) number of forecast ticks that have passed
        since the forecast was received.  As each tick inside the forecast
        horizon elapses, the queue-occupancy estimate is decremented by that
        tick's forecast deliveries (bounded below at zero).
        """
        assert self._forecast is not None
        elapsed_ticks = int((now - self._forecast_base_time) / self.tick_interval)
        horizon = len(self._forecast)
        capped = min(elapsed_ticks, horizon)
        while self._ticks_drained < capped:
            j = self._ticks_drained  # draining forecast tick j -> j+1
            previous = self._forecast[j - 1] if j >= 1 else 0.0
            drained = max(0.0, float(self._forecast[j]) - float(previous))
            self._queue_estimate = max(0.0, self._queue_estimate - drained)
            self._ticks_drained += 1
        return elapsed_ticks

    def _window_bytes(self, now: float) -> int:
        """Bytes safe to send right now (Section 3.5, Figure 4)."""
        assert self._forecast is not None
        horizon = len(self._forecast)
        elapsed_ticks = self._advance_forecast_clock(now)
        position = min(elapsed_ticks, horizon)
        target = min(elapsed_ticks + self.lookahead_ticks, horizon)
        if target <= position:
            # The forecast is exhausted; without fresher information nothing
            # more is known to be deliverable within the delay target.
            expected_drain = 0.0
        else:
            already = self._forecast[position - 1] if position >= 1 else 0.0
            expected_drain = float(self._forecast[target - 1]) - float(already)
        window = expected_drain - self._queue_estimate
        return max(0, int(window))

    def _transmit_window(self, now: float) -> None:
        window = self._window_bytes(now)
        if self.record_history:
            self.window_history.append((now, float(window)))
        if self.packet_source is not None:
            if window <= 0:
                return
            packets = self.packet_source(now, window)
            total = sum(p.size for p in packets)
            if total > window:
                raise ValueError(
                    f"packet source returned {total} bytes for a {window}-byte window"
                )
            if packets:
                self._send_packets(packets, now)
            return
        if window < MTU_BYTES:
            return
        sizes = self.payload_provider(now, window)
        total = sum(sizes)
        if total > window:
            raise ValueError(
                f"payload provider returned {total} bytes for a {window}-byte window"
            )
        if sizes:
            self._send_data(sizes, now)

    def _throwaway_bytes(self, now: float) -> int:
        """Sequence offset of the newest packet sent more than 10 ms ago."""
        cutoff = now - THROWAWAY_INTERVAL
        throwaway = 0
        while self._send_history and self._send_history[0][0] <= cutoff:
            throwaway = self._send_history.popleft()[1]
        if throwaway:
            self._latest_throwaway = throwaway
        return self._latest_throwaway

    def _send_packets(self, packets: List[Packet], now: float) -> None:
        """Send caller-supplied packets, stamping Sprout control headers."""
        throwaway = self._throwaway_bytes(now)
        for index, packet in enumerate(packets):
            is_last = index == len(packets) - 1
            time_to_next = self.heartbeat_interval if is_last else 0.0
            self.bytes_sent += packet.size
            packet.headers[HEADER_SEQ_BYTES] = self.bytes_sent
            packet.headers[HEADER_THROWAWAY_BYTES] = throwaway
            packet.headers[HEADER_TIME_TO_NEXT] = time_to_next
            packet.headers[HEADER_IS_HEARTBEAT] = False
            self._send_history.append((now, self.bytes_sent))
            self._queue_estimate += packet.size
            self.data_packets_sent += 1
            self._last_send_time = now
            self.ctx.send(packet)

    def _send_data(self, sizes: List[int], now: float) -> None:
        throwaway = self._throwaway_bytes(now)
        for index, size in enumerate(sizes):
            is_last = index == len(sizes) - 1
            # Mid-flight packets promise an immediate follow-up; the last
            # packet of a flight promises only that the receiver will hear
            # something (data or heartbeat) within a heartbeat interval, so
            # that a closed window is never mistaken for an outage.
            time_to_next = self.heartbeat_interval if is_last else 0.0
            self.bytes_sent += size
            packet = make_data_packet(
                size=size,
                seq_bytes=self.bytes_sent,
                throwaway_bytes=throwaway,
                time_to_next=time_to_next,
                flow_id=self.flow_id,
            )
            self._send_history.append((now, self.bytes_sent))
            self._queue_estimate += size
            self.data_packets_sent += 1
            self._last_send_time = now
            self.ctx.send(packet)

    def _maybe_heartbeat(self, now: float) -> None:
        if now - self._last_send_time < self.heartbeat_interval:
            return
        throwaway = self._throwaway_bytes(now)
        packet = make_data_packet(
            size=CONTROL_PACKET_BYTES,
            seq_bytes=self.bytes_sent,
            throwaway_bytes=throwaway,
            time_to_next=self.heartbeat_interval,
            flow_id=self.flow_id,
            is_heartbeat=True,
        )
        self.heartbeats_sent += 1
        self._last_send_time = now
        self.ctx.send(packet)
