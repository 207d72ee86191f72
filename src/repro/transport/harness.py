"""Loopback live-measurement harness behind ``repro live``.

Shape follows the speed-test idiom (SNIPPETS.md Snippet 1): a sized
transfer, repeated a configurable number of times, reporting throughput and
per-packet delay percentiles.  Each repeat runs a
:class:`~repro.transport.endpoint.ReceiverEndpoint` in a thread and a
:class:`~repro.transport.endpoint.SenderEndpoint` in the caller's thread,
both over 127.0.0.1 on a shared monotonic timebase, each sending through
its direction's seeded impairment pipeline when ``impair`` or ``loss_rate``
asks for one.

Results flow into the existing analysis stack unmodified: every repeat
becomes a :class:`~repro.metrics.summary.SchemeResult` (scheme
``"Sprout (live)"``, link ``"loopback"``, transport counters in ``extra``)
and :func:`run_live_suite` wraps the repeats in a
:class:`~repro.experiments.sweeps.GridData` over the inert ``repeat`` axis,
so ``repro live --export`` writes the same CSV/JSON export any sweep
does and the exports parse back through ``parse_csv`` / ``parse_json``.

Loopback caveats (docs/transport.md): no propagation delay, no bottleneck
queue, throughput bounded by the forecaster's rate model rather than any
physical link — the numbers characterise the *transport implementation*,
not a network.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.sweeps import GridData, GridPoint, GridSpec
from repro.metrics.delay import delay_percentiles, longest_arrival_gap
from repro.metrics.summary import SchemeResult
from repro.transport.endpoint import (
    ReceiverEndpoint,
    SenderEndpoint,
    TransferAborted,
    TransferDiagnosis,
    default_watchdog,
    shared_monotonic_clock,
)
from repro.transport.impair import (
    EventRing,
    ImpairmentPipeline,
    TransportEvent,
    build_pipelines,
    parse_impair_spec,
)

#: identity under which live results enter the analysis stack
LIVE_SCHEME = "Sprout (live)"
LIVE_LINK = "loopback"


def sockets_available() -> bool:
    """Whether loopback UDP sockets can be created and bound here.

    Sandboxed CI runners sometimes forbid even 127.0.0.1 sockets; every
    live test and the ``repro live`` command gate on this instead of
    failing with an obscure ``OSError`` mid-transfer.
    """
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    except OSError:
        return False
    try:
        probe.bind(("127.0.0.1", 0))
        probe.getsockname()
    except OSError:
        return False
    finally:
        probe.close()
    return True


@dataclass(frozen=True)
class LiveConfig:
    """One live measurement: transfer size, repeats, loss/impairment injection.

    ``impair`` is an :func:`~repro.transport.impair.parse_impair_spec`
    string applied at the socket boundary in both directions (empty means
    clean); ``loss_rate`` is shorthand for a ``loss:p=…,dir=up`` stage ahead
    of it; ``impair_seed`` keys every stage's deterministic fate draws (offset
    per repeat).  ``watchdog`` is the peer-inactivity abort interval in
    seconds — ``None`` picks :func:`default_watchdog` from the deadline,
    ``0`` disables the watchdog entirely (legacy wait-out-the-deadline
    behaviour).
    """

    transfer_bytes: int = 256 * 1024
    repeats: int = 3
    loss_rate: float = 0.0
    deadline: float = 30.0
    ewma: bool = False
    impair: str = ""
    impair_seed: int = 0
    watchdog: Optional[float] = None

    def __post_init__(self) -> None:
        if self.transfer_bytes <= 0:
            raise ValueError(f"transfer_bytes must be positive, got {self.transfer_bytes}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be at least 1, got {self.repeats}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.watchdog is not None and self.watchdog < 0:
            raise ValueError(f"watchdog must be >= 0, got {self.watchdog}")
        # Surfaces a typo'd spec as ValueError at config time (CLI exit 2)
        # instead of mid-transfer; ImpairSpecError subclasses ValueError.
        parse_impair_spec(self.impair)

    def resolved_watchdog(self) -> Optional[float]:
        """The watchdog interval the endpoints actually run with."""
        if self.watchdog is None:
            return default_watchdog(self.deadline)
        return self.watchdog if self.watchdog > 0 else None


@dataclass
class LiveTransferResult:
    """Everything one repeat measured, transport counters included."""

    repeat: int
    transfer_bytes: int
    completed: bool
    closed: bool
    duration_s: float
    payload_bytes: int
    throughput_bps: float
    delay_percentiles_s: Dict[str, float] = field(default_factory=dict)
    min_delay_s: float = float("nan")
    datagrams_sent: int = 0
    total_retransmits: int = 0
    fast_retransmits: int = 0
    timeout_retransmits: int = 0
    injected_drops: int = 0
    duplicates: int = 0
    reordered: int = 0
    lost_forever: int = 0
    malformed: int = 0
    srtt_s: Optional[float] = None
    ticks_skipped: int = 0
    decode_errors: int = 0
    close_acked: bool = False
    close_retransmits: int = 0
    quarantine_drops: int = 0
    longest_stall_s: float = 0.0
    failure: str = ""
    diagnosis: Optional[TransferDiagnosis] = None
    event_counts: Dict[str, int] = field(default_factory=dict)
    events: List[TransportEvent] = field(default_factory=list)
    impair_counters: Dict[str, int] = field(default_factory=dict)
    impair_replay_ok: Optional[bool] = None

    def to_scheme_result(self) -> SchemeResult:
        """This repeat as a sweep-stack row (``extra`` holds the counters).

        ``delay_95_s`` is the 95th percentile of the real per-packet
        one-way delays; loopback has no queue to be omniscient about, so
        the minimum observed delay stands in for the omniscient baseline
        and the self-inflicted delay is the tail's excess over it.
        """
        p95 = self.delay_percentiles_s.get("p95", float("nan"))
        floor = self.min_delay_s
        if p95 == p95 and floor == floor:
            self_inflicted = max(0.0, p95 - floor)
        else:
            self_inflicted = float("nan")
        extra: Dict[str, float] = {
            "live_repeat": float(self.repeat),
            "live_completed": float(self.completed),
            "live_transfer_bytes": float(self.transfer_bytes),
            "live_payload_bytes": float(self.payload_bytes),
            "live_duration_s": float(self.duration_s),
            "live_datagrams_sent": float(self.datagrams_sent),
            "live_retransmits": float(self.total_retransmits),
            "live_fast_retransmits": float(self.fast_retransmits),
            "live_timeout_retransmits": float(self.timeout_retransmits),
            "live_injected_drops": float(self.injected_drops),
            "live_duplicates": float(self.duplicates),
            "live_reordered": float(self.reordered),
            "live_lost_forever": float(self.lost_forever),
            "live_malformed": float(self.malformed),
            "live_ticks_skipped": float(self.ticks_skipped),
            "live_decode_errors": float(self.decode_errors),
            "live_close_acked": float(self.close_acked),
            "live_close_retransmits": float(self.close_retransmits),
            "live_quarantine_drops": float(self.quarantine_drops),
            "live_longest_stall_s": float(self.longest_stall_s),
            "live_failed": float(bool(self.failure)),
        }
        for key, value in self.delay_percentiles_s.items():
            extra[f"live_delay_{key}_s"] = float(value)
        if self.srtt_s is not None:
            extra["live_srtt_s"] = float(self.srtt_s)
        # Event-ring postmortem surface: per-kind counts survive ring
        # wraparound, so the extras stay complete however long the run.
        for kind, count in sorted(self.event_counts.items()):
            extra[f"live_ev_{kind}"] = float(count)
        for action, count in sorted(self.impair_counters.items()):
            extra[f"live_impair_{action.replace(':', '_')}"] = float(count)
        if self.impair_replay_ok is not None:
            extra["live_impair_replay_ok"] = float(self.impair_replay_ok)
        return SchemeResult(
            scheme=LIVE_SCHEME,
            link=LIVE_LINK,
            throughput_bps=self.throughput_bps,
            delay_95_s=p95,
            self_inflicted_delay_s=self_inflicted,
            utilization=0.0,
            capacity_bps=0.0,
            omniscient_delay_95_s=floor,
            extra=extra,
        )


def _pipelines(
    config: LiveConfig,
    repeat: int,
    up_ring: Optional[EventRing] = None,
    down_ring: Optional[EventRing] = None,
) -> Tuple[Optional[ImpairmentPipeline], Optional[ImpairmentPipeline]]:
    """The (up, down) impairment pipelines of one repeat, ``None`` where clean.

    ``loss_rate`` is the pipeline's own ``loss`` stage on the sender's side,
    first in line, so there is one loss injector: seeded, counted, fate-logged
    and replay-checked like every other stage.
    """
    spec = config.impair
    if config.loss_rate > 0.0:
        spec = f"loss:p={config.loss_rate},dir=up;{spec}"
    return build_pipelines(
        spec, seed=config.impair_seed + repeat, up_ring=up_ring, down_ring=down_ring
    )


def run_live_transfer(config: LiveConfig, repeat: int = 1) -> LiveTransferResult:
    """Run one sized loopback transfer and measure it.

    The receiver binds an ephemeral loopback port and runs in a daemon
    thread; the sender drives the transfer in the calling thread.  The
    impairment pipelines are seeded per repeat so repeats see different —
    but individually reproducible — adversarial patterns.

    Failure handling is structured, never a hang: a receiver-thread crash
    lands in an exception slot the sender's ``abort_check`` polls every
    loop, so the sender aborts within one select interval instead of
    waiting out its deadline; a watchdog abort is caught here and reported
    through ``failure``/``diagnosis`` on the result.  Both sockets are
    closed before this returns, however either endpoint's ``run`` ended.
    """
    clock = shared_monotonic_clock()
    sender_ring = EventRing()
    receiver_ring = EventRing()
    up, down = _pipelines(config, repeat, sender_ring, receiver_ring)
    stop = threading.Event()
    crash: Dict[str, BaseException] = {}
    receiver = ReceiverEndpoint(
        clock,
        deadline=config.deadline,
        ewma=config.ewma,
        impairment=down,
        stop_check=stop.is_set,
        ring=receiver_ring,
    )

    def _receiver_main() -> None:
        try:
            receiver.run()
        except BaseException as error:  # propagated via the sender's abort_check
            crash["error"] = error

    thread = threading.Thread(
        target=_receiver_main, name=f"sprout-live-receiver-{repeat}", daemon=True
    )
    sender = SenderEndpoint(
        ("127.0.0.1", receiver.port),
        config.transfer_bytes,
        clock,
        deadline=config.deadline,
        impairment=up,
        watchdog=config.resolved_watchdog(),
        abort_check=lambda: crash.get("error"),
        ring=sender_ring,
    )
    thread.start()
    failure = ""
    diagnosis: Optional[TransferDiagnosis] = None
    try:
        completed = sender.run()
    except TransferAborted as aborted:
        completed = False
        failure = aborted.diagnosis.reason
        diagnosis = aborted.diagnosis
    finally:
        stop.set()
        thread.join(5.0)
        # Each run() closes its own socket; a receiver thread that died
        # outside run() (or never reached it) leaves that to us.
        sender.close()
        receiver.close()
    if not failure and "error" in crash:
        failure = "receiver-failure"

    replay_ok: Optional[bool] = None
    impair_counters: Dict[str, int] = {}
    for direction, pipe in (("up", up), ("down", down)):
        if pipe is None:
            continue
        ok = pipe.replay_determinism_check()
        replay_ok = ok if replay_ok is None else (replay_ok and ok)
        for action, count in pipe.counters_snapshot().items():
            impair_counters[f"{direction}_{action}"] = count

    merged_events = sorted(
        sender_ring.events() + receiver_ring.events(), key=lambda event: event.t
    )
    event_counts: Dict[str, int] = dict(sender_ring.counts + receiver_ring.counts)

    duration = max(sender.elapsed, 1e-9)
    delays = list(receiver.delays)
    return LiveTransferResult(
        repeat=repeat,
        transfer_bytes=config.transfer_bytes,
        completed=completed,
        closed=receiver.closed,
        duration_s=duration,
        payload_bytes=receiver.unique_data_bytes,
        throughput_bps=8.0 * receiver.unique_data_bytes / duration,
        delay_percentiles_s=delay_percentiles(delays),
        min_delay_s=min(delays) if delays else float("nan"),
        datagrams_sent=sender.datagrams_sent,
        total_retransmits=sender.buffer.total_retransmits,
        fast_retransmits=sender.buffer.fast_retransmits,
        timeout_retransmits=sender.buffer.timeout_retransmits,
        injected_drops=sum(
            count for action, count in impair_counters.items() if action.startswith("up_drop:")
        ),
        duplicates=receiver.window.duplicates,
        reordered=receiver.window.reordered,
        lost_forever=sender.lost_forever,
        malformed=sender.malformed_received + receiver.malformed_received,
        srtt_s=sender.buffer.rto.srtt,
        ticks_skipped=sender.ticker.ticks_skipped + receiver.ticker.ticks_skipped,
        decode_errors=sender.decode_errors + receiver.decode_errors,
        close_acked=sender.close_acked,
        close_retransmits=sender.close_retransmits,
        quarantine_drops=sender.quarantine.drops + receiver.quarantine.drops,
        longest_stall_s=longest_arrival_gap(receiver.arrival_times),
        failure=failure,
        diagnosis=diagnosis,
        event_counts=event_counts,
        events=merged_events,
        impair_counters=impair_counters,
        impair_replay_ok=replay_ok,
    )


def live_grid_data(results: List[LiveTransferResult]) -> GridData:
    """Package live repeats as a one-axis grid over the ``repeat`` axis.

    The resulting :class:`GridData` is indistinguishable in shape from a
    simulated sweep's, so ``render_grid``, ``export_csv``/``export_json``
    and the export parsers all apply as-is.
    """
    if not results:
        raise ValueError("no live transfer results to package")
    spec = GridSpec(
        parameters=("repeat",),
        values=(tuple(float(result.repeat) for result in results),),
        schemes=(LIVE_SCHEME,),
        links=(LIVE_LINK,),
    )
    points = [
        GridPoint(
            parameters=("repeat",),
            coordinates=(float(result.repeat),),
            results=[result.to_scheme_result()],
        )
        for result in results
    ]
    return GridData(spec=spec, points=points)


def render_live_results(results: List[LiveTransferResult]) -> str:
    """Per-repeat transport summary for the ``repro live`` output."""
    if not results:
        return "no live transfers ran"
    first = results[0]
    lines = [
        f"Live loopback — {first.transfer_bytes} bytes × {len(results)} repeat(s), "
        "Sprout over real UDP (docs/transport.md)",
        "",
        f"  {'repeat':>6s} {'tput (kbps)':>12s} {'p50 (ms)':>9s} {'p95 (ms)':>9s} "
        f"{'p99 (ms)':>9s} {'sent':>6s} {'rtx':>5s} {'drops':>6s} "
        f"{'lost':>5s} {'skip':>5s} {'dec':>5s} {'done':>6s}",
    ]
    for result in results:
        p = result.delay_percentiles_s
        if result.failure:
            done = "ABORT"
        elif result.completed:
            done = "yes"
        else:
            done = "NO"
        lines.append(
            f"  {result.repeat:6d} {result.throughput_bps / 1000:12.0f} "
            f"{1000 * p.get('p50', float('nan')):9.2f} "
            f"{1000 * p.get('p95', float('nan')):9.2f} "
            f"{1000 * p.get('p99', float('nan')):9.2f} "
            f"{result.datagrams_sent:6d} {result.total_retransmits:5d} "
            f"{result.injected_drops:6d} {result.lost_forever:5d} "
            f"{result.ticks_skipped:5d} {result.decode_errors:5d} "
            f"{done:>6s}"
        )
    for result in results:
        if not result.failure:
            continue
        lines.append("")
        lines.append(f"  repeat {result.repeat} failed: {result.failure}")
        if result.diagnosis is not None:
            lines.append(f"    {result.diagnosis.describe()}")
        for event in result.events[-8:]:
            detail = f" {event.detail}" if event.detail else ""
            lines.append(f"    [{event.t:8.3f}s] {event.kind}{detail}")
    lines.append("")
    return "\n".join(lines)


def run_live_suite(config: LiveConfig) -> Tuple[GridData, List[LiveTransferResult]]:
    """Run every repeat and return (sweep-shaped grid, raw transfer results)."""
    results = [
        run_live_transfer(config, repeat=index)
        for index in range(1, config.repeats + 1)
    ]
    return live_grid_data(results), results
