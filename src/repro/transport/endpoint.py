"""UDP endpoints that run the simulator's Sprout protocols over real sockets.

The protocol objects (:class:`~repro.core.sender.SproutSender`,
:class:`~repro.core.receiver.SproutReceiver`) only ever touch their
:class:`~repro.simulation.endpoints.HostContext` — read the clock, send a
packet — so running them live takes three adapters and no protocol changes:

* :class:`WallClockContext` exposes the ``HostContext`` surface over a real
  monotonic clock and a transmit callback that serialises each simulator
  :class:`~repro.simulation.packet.Packet` into a wire frame;
* :class:`~repro.core.forecaster.TickFromWallClock` maps irregular
  ``select()`` wake-ups onto the paper's 20 ms tick lattice;
* the endpoints below own the socket loop, the selective-repeat layer
  (:mod:`repro.transport.reliable`), and the translation between wire
  frames and the header-dict packets the protocols parse.

Both endpoints are one :class:`_Endpoint` lifecycle — socket, clock,
tick adapter, event ring, quarantine, decode accounting, the send path
through the impairment pipeline, the wait-drain-decode wake-up, the
diagnosis skeleton and the close — with their own protocol, reliability
half, frame handlers and loop on top.

The lifecycle is hardened against adversarial networks
(:mod:`repro.transport.impair` injects them deliberately):

* a **peer-inactivity watchdog** on both endpoints aborts with a
  structured :class:`TransferAborted` (a :class:`TransferDiagnosis` of
  last-heard ages, retransmit/RTO/decode-error counters, and the event
  ring tail) instead of silently sleeping out the deadline;
* the CLOSE handshake is **reliable**: the sender backoff-retransmits
  CLOSE until the receiver's CLOSE-ACK answers, and the receiver lingers
  briefly to re-ack retransmitted CLOSEs;
* the retransmit buffer is **bounded with backpressure**: near its
  watermark the sender defers protocol ticks (no fresh data or heartbeats
  are offered) rather than dropping at the brim;
* **per-peer quarantine** silences sources that only ever send malformed
  datagrams, and every lifecycle event lands in a timestamped
  :class:`~repro.transport.impair.EventRing` for postmortems.

Every adversarial behaviour — uniform or bursty loss, reordering,
duplication, corruption, throttling, blackouts — is injected in one place:
the :class:`~repro.transport.impair.ImpairmentPipeline` each endpoint
sends through, per direction.  ``repro live --loss P`` is that pipeline's
``loss`` stage on the sender's side, so every datagram (CLOSE included)
crosses it and every drop shows in its counters, fate log and replay check.
"""

from __future__ import annotations

import logging
import select
import socket
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.forecaster import EWMAForecaster, TickFromWallClock
from repro.core.packets import (
    CONTROL_PACKET_BYTES,
    make_data_packet,
    make_feedback_packet,
    parse_data_header,
    parse_feedback,
)
from repro.core.receiver import SproutReceiver
from repro.core.sender import SproutSender
from repro.simulation.packet import MTU_BYTES, Packet
from repro.transport.impair import (
    EventRing,
    ImpairmentPipeline,
    PeerQuarantine,
    TransportEvent,
)
from repro.transport.reliable import AdaptiveRTO, ReorderWindow, RetransmitBuffer
from repro.transport.wire import (
    MAX_FORECAST_TICKS,
    CloseAckFrame,
    CloseFrame,
    DataFrame,
    FeedbackFrame,
    WireFormatError,
    decode_frame,
    encode_close,
    encode_close_ack,
    encode_data,
    encode_feedback,
    seq_add,
)

_LOG = logging.getLogger("repro.transport")

#: ceiling on one select() sleep, so deadline checks stay responsive
MAX_SELECT_WAIT = 0.05

#: most CLOSE (re)transmissions before the sender gives up on the handshake
CLOSE_MAX_ATTEMPTS = 8

#: wall-clock budget for the whole CLOSE handshake after transfer completion
CLOSE_BUDGET = 2.0

#: how long the receiver lingers after CLOSE-ACK to answer retransmitted
#: CLOSEs (the TIME_WAIT idiom, scaled to loopback)
CLOSE_LINGER = 0.25

#: a feedback silence this long gets a "stall" event in the ring
STALL_AFTER = 0.5


def default_watchdog(deadline: float) -> float:
    """Watchdog interval for a given transfer deadline.

    A quarter of the deadline, clamped to [0.5 s, 4 s]: long enough to ride
    out a mid-transfer blackout of a couple of seconds, short enough that an
    abort lands well inside half of any reasonable deadline — the chaos
    suite's acceptance bar.
    """
    if deadline <= 0:
        raise ValueError(f"deadline must be positive, got {deadline}")
    return min(4.0, max(0.5, deadline / 4.0))


# --------------------------------------------------------- structured aborts


@dataclass
class TransferDiagnosis:
    """Everything a postmortem needs about an aborted (or probed) transfer."""

    reason: str
    role: str
    elapsed_s: float
    last_heard_age_s: float
    last_progress_age_s: float
    datagrams_sent: int
    feedback_received: int
    decode_errors: int
    total_retransmits: int
    fast_retransmits: int
    timeout_retransmits: int
    rto_backoffs: int
    outstanding: int
    outstanding_bytes: int
    ticks_skipped: int
    quarantined_peers: int
    cause: str = ""
    events: List[TransportEvent] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """Every field in declaration order; ``cause`` only when set."""
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        if not self.cause:
            del payload["cause"]
        payload["events"] = [(e.t, e.kind, e.detail) for e in self.events]
        return payload

    def describe(self) -> str:
        head = (
            f"{self.role} aborted: {self.reason} after {self.elapsed_s:.2f}s "
            f"(last heard {self.last_heard_age_s:.2f}s ago, last progress "
            f"{self.last_progress_age_s:.2f}s ago; {self.total_retransmits} rtx "
            f"of which {self.timeout_retransmits} by RTO with {self.rto_backoffs} "
            f"backoffs; {self.decode_errors} decode errors; "
            f"{self.outstanding} datagrams / {self.outstanding_bytes} bytes unacked)"
        )
        if self.cause:
            head += f"; cause: {self.cause}"
        return head


class TransferAborted(RuntimeError):
    """A transfer endpoint gave up deliberately, diagnosis attached."""

    def __init__(self, diagnosis: TransferDiagnosis) -> None:
        super().__init__(diagnosis.describe())
        self.diagnosis = diagnosis


class WallClockContext:
    """The :class:`~repro.simulation.endpoints.HostContext` surface, live.

    ``clock`` is a zero-argument callable returning seconds on a shared
    monotonic timebase; both endpoints of a loopback transfer use the same
    base so a receiver can subtract a sender timestamp directly.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        transmit: Callable[[Packet], None],
        name: str,
    ) -> None:
        self._clock = clock
        self._transmit = transmit
        self.name = name
        self.bytes_sent = 0
        self.packets_sent = 0

    def now(self) -> float:
        return self._clock()

    def send(self, packet: Packet) -> None:
        packet.sent_at = self.now()
        self.bytes_sent += packet.size
        self.packets_sent += 1
        self._transmit(packet)

    def schedule_after(self, delay: float, callback: Callable[[], None]):
        # The Sprout protocols are tick-driven and never set ad-hoc timers;
        # anything that needs one must run inside the simulator.
        raise NotImplementedError(
            "WallClockContext has no event loop; drive the protocol by ticks"
        )


class SizedTransferProvider:
    """Payload provider offering exactly ``total_bytes``, MTU-chunked.

    Plugs into :class:`~repro.core.sender.SproutSender` as its
    ``payload_provider``: each call consumes up to ``budget`` bytes of the
    remaining transfer (never splitting mid-MTU except for the final tail),
    so the Sprout window still paces everything.
    """

    def __init__(self, total_bytes: int, mtu_bytes: int = MTU_BYTES) -> None:
        if total_bytes <= 0:
            raise ValueError(f"transfer size must be positive, got {total_bytes}")
        self.total_bytes = int(total_bytes)
        self.mtu_bytes = int(mtu_bytes)
        self.remaining = self.total_bytes

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def __call__(self, now: float, budget_bytes: int) -> List[int]:
        sizes: List[int] = []
        budget = int(budget_bytes)
        while self.remaining > 0:
            take = min(self.mtu_bytes, self.remaining)
            if take > budget:
                break
            sizes.append(take)
            self.remaining -= take
            budget -= take
        return sizes


class _Endpoint:
    """The lifecycle both ends of a live transfer share.

    Owns the non-blocking UDP socket and its close, the shared clock, the
    :class:`WallClockContext` / :class:`TickFromWallClock` adapters around
    the role's protocol object, the event ring (attached to the impairment
    pipeline too), peer quarantine and decode-error accounting, the one
    send path (pipeline, then ``sendto`` to :attr:`peer`), the one wake-up
    (:meth:`_wait`) and the common half of every :class:`TransferDiagnosis`.
    A role supplies its protocol, its reliability half, its frame handlers,
    :meth:`_loop` and :meth:`_transfer_state`; nothing here asks which role
    it is serving.
    """

    role = ""

    def __init__(
        self,
        protocol,
        transmit: Callable[[Packet], None],
        clock: Callable[[], float],
        deadline: float,
        impairment: Optional[ImpairmentPipeline],
        watchdog: Optional[float],
        ring: Optional[EventRing],
    ) -> None:
        if watchdog is not None and watchdog <= 0:
            raise ValueError(f"watchdog must be positive, got {watchdog}")
        self.clock = clock
        self.deadline = float(deadline)
        self.watchdog = watchdog
        self.impairment = impairment
        self.ring = ring if ring is not None else EventRing()
        if impairment is not None and impairment.ring is None:
            impairment.ring = self.ring
        self.protocol = protocol
        self.ctx = WallClockContext(clock, transmit, f"live-{self.role}")
        self.ticker = TickFromWallClock(protocol.tick_interval)
        self.quarantine = PeerQuarantine()
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        #: where datagrams go: the sender's remote, the receiver's last source
        self.peer: Optional[Tuple] = None
        self.datagrams_sent = 0
        self.malformed_received = 0
        self.elapsed = 0.0
        self._started = 0.0
        self._last_heard = 0.0

    @property
    def decode_errors(self) -> int:
        """Datagrams that failed :func:`decode_frame` (alias for reports)."""
        return self.malformed_received

    # ----------------------------------------------------------- lifecycle

    def run(self) -> bool:
        """Start the protocol, run the role's loop, close the socket.

        Returns the loop's verdict (sender: every wire seq acked; receiver:
        the CLOSE handshake was seen).  A watchdog expiry or a failed peer
        raises :class:`TransferAborted` with a populated diagnosis; whatever
        happens, start-up included, the socket is closed on the way out.
        """
        self._started = self._last_heard = self.clock()
        try:
            self.protocol.start(self.ctx)
            self.ticker.start(self._started)
            if self.impairment is not None:
                self.impairment.start(self._started)
            return self._loop(self._started + self.deadline)
        finally:
            self.elapsed = self.clock() - self._started
            self.close()

    def close(self) -> None:
        """Release the socket (idempotent; the harness calls it again)."""
        self.sock.close()

    def _loop(self, give_up: float) -> bool:
        raise NotImplementedError

    # ---------------------------------------------------------------- send

    def _send(self, encoded: bytes, now: float) -> None:
        """Hand one datagram to the wire, via the impairment pipeline if any."""
        if self.impairment is None:
            self._sendto(encoded)
            return
        for out in self.impairment.submit(encoded, now):
            self._sendto(out)

    def _sendto(self, datagram: bytes) -> None:
        try:
            self.sock.sendto(datagram, self.peer)
        except OSError as error:
            # A full socket buffer behaves like loss: the RTO recovers data,
            # and the feedback channel is unreliable by design.
            _LOG.debug("sendto failed: %s", error)
            return
        self.datagrams_sent += 1

    def _pump_impairment(self, now: float) -> None:
        if self.impairment is not None:
            for out in self.impairment.pump(now):
                self._sendto(out)

    # ------------------------------------------------------------- receive

    def _wait(self, now: float, *deadlines: Optional[float]) -> Tuple[float, List[Tuple]]:
        """Sleep until a datagram arrives or the nearest deadline, then read.

        ``deadlines`` are the caller's (``None`` entries skipped); the
        pipeline's held-datagram deadline is always among them and no sleep
        exceeds :data:`MAX_SELECT_WAIT`.  Returns the wake-up time and the
        ``(frame, source)`` pairs that decoded.  Measured delays depend on
        the order here: the clock is read once, right after ``select``, the
        socket is drained in a tight loop *before* anything is decoded, and
        every frame of the wake-up is handled with that one ``now``.
        """
        wake = now + MAX_SELECT_WAIT
        if self.impairment is not None:
            deadlines += (self.impairment.next_deadline(),)
        for deadline in deadlines:
            if deadline is not None and deadline < wake:
                wake = deadline
        readable, _, _ = select.select([self.sock], [], [], max(0.0, wake - now))
        now = self.clock()
        datagrams: List[Tuple[bytes, Tuple]] = []
        try:
            while readable:
                datagrams.append(self.sock.recvfrom(65536))
        except OSError:
            pass  # BlockingIOError: drained (any other socket error ends it too)
        frames = []
        for data, addr in datagrams:
            frame = self._decode(data, addr, now)
            if frame is not None:
                frames.append((frame, addr))
        return now, frames

    def _decode(self, data: bytes, addr: Tuple, now: float):
        """Decode one datagram with quarantine accounting; None if rejected."""
        if self.quarantine.is_quarantined(addr):
            return None
        try:
            frame = decode_frame(data)
        except WireFormatError as error:
            self.malformed_received += 1
            self.ring.record(now, "decode_error", str(error))
            if self.quarantine.note_malformed(addr):
                self.ring.record(now, "quarantine", f"peer {addr!r}")
            return None
        self.quarantine.note_valid(addr)
        return frame

    # ------------------------------------------------------------ watchdog

    def _transfer_state(self, now: float) -> Dict[str, float]:
        """The role's half of a diagnosis: progress and reliability counters."""
        raise NotImplementedError

    def _abort(self, now: float, reason: str, cause: str = "") -> None:
        """Ring-log and raise a :class:`TransferAborted` for ``reason``."""
        self.ring.record(now, "watchdog_abort", reason)
        raise TransferAborted(
            TransferDiagnosis(
                reason=reason,
                role=self.role,
                elapsed_s=now - self._started,
                last_heard_age_s=now - self._last_heard,
                datagrams_sent=self.datagrams_sent,
                decode_errors=self.malformed_received,
                ticks_skipped=self.ticker.ticks_skipped,
                quarantined_peers=self.quarantine.quarantined_peers,
                cause=cause,
                events=self.ring.tail(16),
                **self._transfer_state(now),
            )
        )


class SenderEndpoint(_Endpoint):
    """Live Sprout sender: protocol + selective repeat + the socket loop.

    Runs a sized transfer to ``remote``: the Sprout window paces fresh
    data, every datagram (data and heartbeat alike) carries a wire seq and
    sits in the retransmit buffer until the receiver's feedback acks it,
    and the transfer is complete when the payload is fully offered *and*
    every wire seq is acked — the "zero lost-forever packets" criterion is
    exactly ``lost_forever == 0`` at completion, sealed by the reliable
    CLOSE/CLOSE-ACK handshake.

    ``watchdog`` (seconds, ``None`` disables) arms two abort triggers,
    both raising :class:`TransferAborted` instead of waiting out the
    deadline: *peer-inactivity* (no valid feedback for that long) and
    *no-progress* (feedback flows but nothing new is acked — the signature
    of a one-way blackout).  ``abort_check`` is polled every loop and lets
    the harness surface a crashed receiver thread immediately.
    """

    role = "sender"

    def __init__(
        self,
        remote: Tuple[str, int],
        total_bytes: int,
        clock: Callable[[], float],
        deadline: float = 30.0,
        rto: Optional[AdaptiveRTO] = None,
        impairment: Optional[ImpairmentPipeline] = None,
        watchdog: Optional[float] = None,
        abort_check: Optional[Callable[[], Optional[BaseException]]] = None,
        ring: Optional[EventRing] = None,
    ) -> None:
        self.provider = SizedTransferProvider(total_bytes)
        super().__init__(
            SproutSender(payload_provider=self.provider, flow_id="sprout-live"),
            self._transmit_packet,
            clock,
            deadline,
            impairment,
            watchdog,
            ring,
        )
        self.peer = remote
        self.abort_check = abort_check
        self.buffer = RetransmitBuffer(rto=rto)
        self._next_seq = 0
        self.feedback_received = 0
        self.rto_backoffs = 0
        self.close_retransmits = 0
        self.close_acked = False
        self.completed = False
        self._last_progress = 0.0
        self._stalled = False

    # ------------------------------------------------------------ transmit

    def _transmit_packet(self, packet: Packet) -> None:
        """ctx.send callback: serialise one protocol packet onto the wire."""
        header = parse_data_header(packet)
        if header is None:
            return  # the sender protocol only emits data/heartbeat packets
        now = self.ctx.now()
        frame = DataFrame(
            wire_seq=self._next_seq,
            seq_bytes=header.seq_bytes,
            throwaway_bytes=header.throwaway_bytes,
            time_to_next=header.time_to_next,
            timestamp=now,
            transfer_total=self.provider.total_bytes,
            size=packet.size,
            heartbeat=header.is_heartbeat,
            fin=self.provider.exhausted,
        )
        encoded = encode_data(frame)
        if not self.buffer.has_room():
            # Backpressure defers protocol ticks near the watermark, so the
            # hard bound is only reachable through a pathological burst;
            # drop rather than wedge, and leave a trace in the ring.
            self.ring.record(now, "buffer_full_drop", f"wire seq {self._next_seq}")
            _LOG.warning("retransmit buffer full; dropping wire seq %d", self._next_seq)
            return
        self.buffer.track(frame.wire_seq, encoded, now)
        self._next_seq = seq_add(self._next_seq)
        self._send(encoded, now)

    # ------------------------------------------------------------ feedback

    def _handle_feedback(self, frame: FeedbackFrame, now: float) -> None:
        self.feedback_received += 1
        self._last_heard = now
        # Karn-safe RTT sample: only a seq that is still outstanding and
        # was never retransmitted gives an unambiguous echo.
        if frame.echo_timestamp > 0.0 and self.buffer.rtt_sample_ok(frame.echo_seq):
            rtt = now - frame.echo_timestamp - frame.echo_delay
            self.buffer.rto.sample(rtt)
        acked = self.buffer.on_feedback(frame.ack_seq, frame.sack_bitmap, now)
        if acked:
            self._last_progress = now
        packet = make_feedback_packet(
            forecast_bytes=frame.forecast_bytes,
            forecast_time=frame.forecast_time,
            received_or_lost_bytes=frame.received_or_lost_bytes,
            flow_id="sprout-live-feedback",
        )
        self.protocol.on_packet(packet, now)

    def _retransmit_due(self, now: float) -> None:
        for wire_seq, encoded in self.buffer.due(now):
            frame = decode_frame(encoded)
            if not isinstance(frame, DataFrame):  # pragma: no cover - tracked frames are data
                continue
            was_fast = self.buffer.fast_due(wire_seq)
            frame.timestamp = now
            frame.retransmit = True
            refreshed = encode_data(frame)
            self.buffer.retransmitted(wire_seq, refreshed, now)
            attempts = self.buffer.attempts(wire_seq)
            if was_fast:
                self.ring.record(now, "fast_retransmit", f"wire seq {wire_seq}")
            else:
                self.ring.record(now, "rto_retransmit", f"wire seq {wire_seq}")
                if attempts > 1:
                    self.rto_backoffs += 1
                    self.ring.record(
                        now, "rto_backoff", f"wire seq {wire_seq} attempt {attempts}"
                    )
            self._send(refreshed, now)

    # ------------------------------------------------------------ watchdog

    def _transfer_state(self, now: float) -> Dict[str, float]:
        return dict(
            last_progress_age_s=now - self._last_progress,
            feedback_received=self.feedback_received,
            total_retransmits=self.buffer.total_retransmits,
            fast_retransmits=self.buffer.fast_retransmits,
            timeout_retransmits=self.buffer.timeout_retransmits,
            rto_backoffs=self.rto_backoffs,
            outstanding=len(self.buffer),
            outstanding_bytes=self.buffer.bytes_held,
        )

    def _check_watchdog(self, now: float) -> None:
        if self.abort_check is not None:
            error = self.abort_check()
            if error is not None:
                self._abort(now, "receiver-failure", cause=repr(error))
        if self.watchdog is None:
            return
        if now - self._last_heard > self.watchdog:
            self._abort(now, "peer-inactivity")
        if now - self._last_progress > self.watchdog:
            self._abort(now, "no-progress")

    def _note_stall(self, now: float) -> None:
        silent = now - self._last_heard
        if silent > STALL_AFTER:
            if not self._stalled:
                self._stalled = True
                self.ring.record(now, "stall", f"no feedback for {silent:.2f}s")
        else:
            self._stalled = False

    # ---------------------------------------------------------------- loop

    def _loop(self, give_up: float) -> bool:
        """Drive the transfer to completion; True iff everything was acked.

        Runs until the payload is fully offered and every wire seq acked
        (then runs the reliable CLOSE handshake and returns True).  Only
        with the watchdog disabled can the transfer run out the deadline
        and return False with whatever state the endpoint reached.
        """
        self._last_progress = self._started
        while True:
            now = self.clock()
            if self.provider.exhausted and len(self.buffer) == 0:
                self.completed = True
                self._close_handshake(min(give_up, self.clock() + CLOSE_BUDGET))
                break
            if now >= give_up:
                self.ring.record(now, "deadline_expired", "")
                break
            self._check_watchdog(now)
            self._note_stall(now)
            now, frames = self._wait(
                now,
                None if self.provider.exhausted else self.ticker.next_deadline(),
                self.buffer.next_deadline(now),
            )
            for frame, _ in frames:
                if isinstance(frame, FeedbackFrame):
                    self._handle_feedback(frame, now)
            # In drain mode (payload fully offered) the protocol has
            # nothing left to say: ticking it would only emit fresh
            # heartbeats that push completion further out.  Under
            # buffer backpressure, ticking would offer data the buffer
            # cannot hold: defer instead of dropping.
            if not self.provider.exhausted:
                if self.buffer.under_backpressure:
                    if self.ticker.due_ticks(now):
                        self.ring.record(now, "backpressure", f"{len(self.buffer)} unacked")
                else:
                    for _ in range(self.ticker.due_ticks(now)):
                        self.protocol.on_tick(now)
            self._retransmit_due(now)
            self._pump_impairment(now)
        return self.completed

    def _close_handshake(self, give_up: float) -> None:
        """Reliable CLOSE: backoff-retransmit until CLOSE-ACK or budget end.

        CLOSE crosses the impairment pipeline like every other datagram —
        a blackout (or ``--loss``) over the tail of a transfer exercises
        exactly this retransmit path.
        """
        encoded = encode_close(CloseFrame(wire_seq=self._next_seq))
        attempt = 0
        while attempt < CLOSE_MAX_ATTEMPTS:
            now = self.clock()
            if now >= give_up:
                break
            self._send(encoded, now)
            attempt += 1
            if attempt > 1:
                self.close_retransmits += 1
                self.ring.record(now, "close_retransmit", f"attempt {attempt}")
            wait_until = min(give_up, now + max(0.02, self.buffer.rto.timeout(attempt - 1)))
            while now < wait_until:
                now, frames = self._wait(now, wait_until)
                self._pump_impairment(now)
                if any(isinstance(frame, CloseAckFrame) for frame, _ in frames):
                    self.close_acked = True
                    self.ring.record(now, "close_acked", f"after {attempt} attempt(s)")
                    return
        self.ring.record(self.clock(), "close_gave_up", f"after {attempt} attempt(s)")

    @property
    def lost_forever(self) -> int:
        """Wire seqs never acknowledged — 0 after a completed transfer."""
        return len(self.buffer)


class ReceiverEndpoint(_Endpoint):
    """Live Sprout receiver: reorder window + protocol + feedback frames.

    Binds a loopback UDP socket (ephemeral port by default; read
    :attr:`port` after construction), feeds every *unique* data frame to
    the unmodified :class:`~repro.core.receiver.SproutReceiver`, and wraps
    the protocol's feedback packets with the transport's ack/SACK state and
    RTT echo on their way out.  Per-packet one-way delays come straight
    from the real timestamps: receive time minus the frame's send stamp,
    both on the harness's shared monotonic timebase.

    Lifecycle: a CLOSE is answered with CLOSE-ACK and a short linger (so
    retransmitted CLOSEs are re-acked); ``watchdog`` seconds of peer
    silence raises :class:`TransferAborted`; ``stop_check`` lets the
    harness stop the receiver promptly once the sender is done for.
    """

    role = "receiver"

    def __init__(
        self,
        clock: Callable[[], float],
        bind: Tuple[str, int] = ("127.0.0.1", 0),
        deadline: float = 30.0,
        ewma: bool = False,
        impairment: Optional[ImpairmentPipeline] = None,
        watchdog: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        ring: Optional[EventRing] = None,
    ) -> None:
        forecaster = EWMAForecaster() if ewma else None
        super().__init__(
            SproutReceiver(forecaster=forecaster, flow_id="sprout-live"),
            self._transmit_feedback,
            clock,
            deadline,
            impairment,
            watchdog,
            ring,
        )
        self.sock.bind(bind)
        self.port = self.sock.getsockname()[1]
        self.stop_check = stop_check
        self.window = ReorderWindow(first_seq=0)
        self._feedback_seq = 0
        self._echo: Optional[Tuple[int, float, float]] = None  # seq, stamp, arrival
        self.delays: List[float] = []
        self.arrival_times: List[float] = []
        self.unique_data_bytes = 0
        self.last_arrival: Optional[float] = None
        self.closed = False
        self.stopped = False
        self._close_linger_until: Optional[float] = None

    # ------------------------------------------------------------ feedback

    def _transmit_feedback(self, packet: Packet) -> None:
        """ctx.send callback: wrap a protocol feedback packet in a frame."""
        feedback = parse_feedback(packet)
        if feedback is None or self.peer is None:
            return
        now = self.ctx.now()
        echo_seq, echo_timestamp, echo_delay = 0, 0.0, 0.0
        if self._echo is not None:
            echo_seq, echo_timestamp, arrival = self._echo
            echo_delay = max(0.0, now - arrival)
        frame = FeedbackFrame(
            wire_seq=self._feedback_seq,
            forecast_bytes=list(feedback.forecast_bytes)[:MAX_FORECAST_TICKS],
            forecast_time=feedback.forecast_time,
            received_or_lost_bytes=feedback.received_or_lost_bytes,
            ack_seq=self.window.ack_seq,
            sack_bitmap=self.window.sack_bitmap(),
            echo_seq=echo_seq,
            echo_timestamp=echo_timestamp,
            echo_delay=echo_delay,
        )
        self._feedback_seq = seq_add(self._feedback_seq)
        self._send(encode_feedback(frame), now)

    # ------------------------------------------------------------- receive

    def _handle_data(self, frame: DataFrame, addr: Tuple, now: float) -> None:
        self.peer = addr
        # Echo the newest arrival whatever its novelty; the sender's Karn
        # check discards ambiguous (retransmitted) samples.
        self._echo = (frame.wire_seq, frame.timestamp, now)
        if not self.window.accept(frame.wire_seq):
            return
        self.delays.append(now - frame.timestamp)
        self.arrival_times.append(now)
        self.last_arrival = now
        if not frame.heartbeat:
            self.unique_data_bytes += frame.size
        packet = make_data_packet(
            size=max(frame.size, CONTROL_PACKET_BYTES),
            seq_bytes=frame.seq_bytes,
            throwaway_bytes=frame.throwaway_bytes,
            time_to_next=frame.time_to_next,
            flow_id="sprout-live",
            is_heartbeat=frame.heartbeat,
        )
        packet.sent_at = frame.timestamp
        packet.delivered_at = now
        self.protocol.on_packet(packet, now)

    def _handle_close(self, frame: CloseFrame, addr: Tuple, now: float) -> None:
        self.peer = addr
        if not self.closed:
            self.closed = True
            self.ring.record(now, "close_received", "")
            self._close_linger_until = now + CLOSE_LINGER
        # Re-ack every CLOSE, original or retransmitted: the ack may have
        # been lost and the sender is backoff-retransmitting against us.
        self._send(encode_close_ack(CloseAckFrame(wire_seq=frame.wire_seq)), now)

    # ------------------------------------------------------------ watchdog

    def _transfer_state(self, now: float) -> Dict[str, float]:
        return dict(
            last_progress_age_s=now - (self.last_arrival if self.last_arrival else self._started),
            feedback_received=self.window.unique_accepted,
            total_retransmits=0,
            fast_retransmits=0,
            timeout_retransmits=0,
            rto_backoffs=0,
            outstanding=self.window.missing,
            outstanding_bytes=0,
        )

    # ---------------------------------------------------------------- loop

    def _loop(self, give_up: float) -> bool:
        """Receive until the close handshake, a stop, an abort, or deadline.

        True iff the transfer ended with the CLOSE handshake.  ``watchdog``
        seconds of total peer silence raise :class:`TransferAborted` (with
        diagnosis) instead of idling to the deadline.
        """
        while True:
            now = self.clock()
            if self.closed and (
                self._close_linger_until is None or now >= self._close_linger_until
            ):
                break
            if now >= give_up:
                if not self.closed:
                    self.ring.record(now, "deadline_expired", "")
                break
            if self.stop_check is not None and self.stop_check():
                self.stopped = True
                self.ring.record(now, "harness_stop", "")
                break
            if (
                self.watchdog is not None
                and not self.closed
                and now - self._last_heard > self.watchdog
            ):
                self._abort(now, "peer-inactivity")
            now, frames = self._wait(
                now, self.ticker.next_deadline(), self._close_linger_until
            )
            for frame, addr in frames:
                self._last_heard = now
                if isinstance(frame, DataFrame):
                    self._handle_data(frame, addr, now)
                elif isinstance(frame, CloseFrame):
                    self._handle_close(frame, addr, now)
            if not self.closed:
                for _ in range(self.ticker.due_ticks(now)):
                    self.protocol.on_tick(now)
            self._pump_impairment(now)
        return self.closed


def shared_monotonic_clock() -> Callable[[], float]:
    """A zero-based monotonic clock both endpoints of a transfer share."""
    base = time.monotonic()
    return lambda: time.monotonic() - base
