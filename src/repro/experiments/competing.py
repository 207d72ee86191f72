"""Competing-traffic experiments: Cubic + Skype, direct vs. SproutTunnel (§5.7).

The paper runs a TCP Cubic bulk download and a Skype call simultaneously
over the Verizon LTE downlink, first directly (both flows share the same
deep carrier queue) and then through SproutTunnel (each flow in its own
queue at the tunnel ingress, the total limited by Sprout's forecast).
Directly, Cubic fills the queue and Skype's delay explodes; through the
tunnel, Skype is isolated from Cubic's backlog at some cost to Cubic's
throughput.

Simplifications relative to the paper's testbed (documented in DESIGN.md):
the Skype call is modelled download-only, and client feedback (TCP ACKs,
receiver reports) returns over the reverse direction outside the tunnel —
the uplink is lightly loaded in this experiment, so the feedback path is not
the bottleneck either way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import AckingReceiver
from repro.baselines.cubic import CubicSender
from repro.baselines.videoconference import (
    SKYPE_PROFILE,
    VideoconferenceReceiver,
    VideoconferenceSender,
)
from repro.core.connection import SproutConfig
from repro.experiments.parallel import Cell, run_cells
from repro.experiments.runner import RunConfig
from repro.metrics.flows import FlowMetrics
from repro.metrics.summary import SchemeResult
from repro.simulation.endpoints import HostContext, Protocol
from repro.simulation.mux import MultiplexProtocol
from repro.simulation.packet import Packet
from repro.tunnel.tunnel import make_tunnel


@dataclass
class CompetingResult:
    """Results of one competing-traffic run (direct or tunnelled)."""

    mode: str
    flows: Dict[str, FlowMetrics]


@dataclass
class CompetingComparison:
    """Direct vs. tunnelled runs, the rows of the Section 5.7 table."""

    direct: CompetingResult
    tunnelled: CompetingResult

    def change_percent(self, flow: str, metric: str) -> float:
        """Relative change (percent) of ``metric`` for ``flow`` via the tunnel."""
        before = getattr(self.direct.flows[flow], metric)
        after = getattr(self.tunnelled.flows[flow], metric)
        if before == 0:
            return float("inf")
        return 100.0 * (after - before) / before


class _TunnelClientContext(HostContext):
    """Redirects a client protocol's sends into the tunnel ingress."""

    def __init__(self, parent: HostContext, flow: str, ingress) -> None:
        super().__init__(parent._loop, parent._transmit, f"{parent.name}:{flow}")
        self._flow = flow
        self._ingress = ingress

    def send(self, packet: Packet) -> None:
        packet.sent_at = self.now()
        packet.flow_id = self._flow
        self.bytes_sent += packet.size
        self.packets_sent += 1
        self._ingress.accept(self._flow, packet)


class TunnelClient(Protocol):
    """Wraps a client protocol so its traffic enters the tunnel ingress."""

    def __init__(self, inner: Protocol, flow: str, ingress) -> None:
        self.inner = inner
        self.flow = flow
        self.ingress = ingress
        self.tick_interval = inner.tick_interval

    def start(self, ctx: HostContext) -> None:
        super().start(ctx)
        self.inner.start(_TunnelClientContext(ctx, self.flow, self.ingress))

    def on_packet(self, packet: Packet, now: float) -> None:
        self.inner.on_packet(packet, now)

    def on_tick(self, now: float) -> None:
        self.inner.on_tick(now)

    def stop(self, now: float) -> None:
        self.inner.stop(now)


# --------------------------------------------------------------------------
# Competing-traffic scenarios as matrix cells (the flows / tunnelled axes)
# --------------------------------------------------------------------------
#
# The sweep engine measures (scheme, link, config) cells through
# ``run_scheme_on_link``, which only needs a picklable factory returning a
# (sender, receiver) protocol pair.  The builders below package the whole
# Section 5.7 scenario — one Skype call competing with N-1 Cubic bulk
# downloads, either sharing the link's queue directly or carried through
# SproutTunnel — into exactly that shape, so contention and tunnelling can
# be swept like loss or sigma (see repro.experiments.sweeps and
# docs/scenarios.md).  The measured SchemeResult is then what the receiving
# host saw *over the emulated link*: aggregate delivered throughput and the
# 95th-percentile packet delay (of the tunnel's own packets when tunnelled).


def competing_flow_names(flows: int) -> List[str]:
    """The client flows of an N-flow scenario: one Skype call + N-1 Cubics.

    ``flows=2`` is the paper's Section 5.7 mix (Cubic + Skype); higher
    values add more bulk downloads competing with the one interactive flow.
    """
    if flows < 1 or flows != int(flows):
        raise ValueError(f"flows must be a positive integer, got {flows!r}")
    return ["skype"] + [f"cubic-{i}" for i in range(1, int(flows))]


def _client_pair(flow: str) -> Tuple[Protocol, Protocol]:
    if flow == "skype":
        return (
            VideoconferenceSender(SKYPE_PROFILE, flow_id=flow),
            VideoconferenceReceiver(flow_id=flow),
        )
    return CubicSender(flow_id=flow), AckingReceiver(flow_id=flow)


def competing_direct_pair(flows: int = 2) -> Tuple[Protocol, Protocol]:
    """Sender/receiver muxes for N client flows sharing the link directly."""
    senders: Dict[str, Protocol] = {}
    receivers: Dict[str, Protocol] = {}
    for flow in competing_flow_names(flows):
        senders[flow], receivers[flow] = _client_pair(flow)
    return MultiplexProtocol(senders), MultiplexProtocol(receivers)


def competing_tunnel_pair(
    flows: int = 2, sprout_config: Optional[SproutConfig] = None
) -> Tuple[Protocol, Protocol]:
    """Sender/receiver muxes for N client flows carried through SproutTunnel.

    The egress delivers each unwrapped client packet to its local receiver,
    whose feedback (ACKs, receiver reports) returns over the reverse
    direction outside the tunnel.  Each egress delivery is also logged into
    the receiver mux's per-flow log, so per-flow metrics
    (``RunConfig(per_flow=True)``) see the client flows and not just the
    tunnel frames that crossed the link.
    """
    tunnel = make_tunnel(sprout_config)
    senders: Dict[str, Protocol] = {"sprout-tunnel": tunnel.sender_protocol}
    receivers: Dict[str, Protocol] = {"sprout-tunnel": tunnel.receiver_protocol}
    client_receivers: Dict[str, Protocol] = {}
    for flow in competing_flow_names(flows):
        client_sender, client_receiver = _client_pair(flow)
        senders[flow] = TunnelClient(client_sender, flow, tunnel.ingress)
        receivers[flow] = client_receiver
        client_receivers[flow] = client_receiver
    receiver_mux = MultiplexProtocol(receivers)

    def _egress_handler(flow: str, receiver: Protocol):
        log = receiver_mux.received_by_flow[flow]

        def handle(packet: Packet, now: float) -> None:
            log.append((now, packet))
            receiver.on_packet(packet, now)

        return handle

    for flow, client_receiver in client_receivers.items():
        tunnel.egress.register_flow(flow, _egress_handler(flow, client_receiver))
    return MultiplexProtocol(senders), receiver_mux


def competing_scheme(
    flows: int = 2,
    tunnelled: bool = True,
    sprout_config: Optional[SproutConfig] = None,
):
    """A registry-style scheme spec wrapping one competing-traffic scenario.

    The factory is a :func:`functools.partial` over the module-level pair
    builders, so the spec pickles and parallelises like any registry scheme.
    ``sprout_config`` tunes the tunnel's Sprout (ignored when direct), which
    is what lets sigma x flows grids carry the swept model into the tunnel.
    """
    from repro.experiments.registry import SchemeSpec

    names = competing_flow_names(flows)
    if tunnelled:
        factory = partial(competing_tunnel_pair, int(flows), sprout_config)
        mode = "tunnel"
    else:
        factory = partial(competing_direct_pair, int(flows))
        mode = "direct"
    return SchemeSpec(
        name=f"Competing x{len(names)} [{mode}]",
        factory=factory,
        category="scenario",
    )


def competing_scheme_parts(
    spec,
) -> Optional[Tuple[int, bool, Optional[SproutConfig]]]:
    """Recover ``(flows, tunnelled, sprout_config)`` from a scenario spec.

    Returns ``None`` for schemes not built by :func:`competing_scheme`, so
    the sweep expanders can tell scenario cells from ordinary ones.
    """
    factory = getattr(spec, "factory", None)
    if not isinstance(factory, partial) or factory.keywords:
        return None
    if factory.func is competing_tunnel_pair and len(factory.args) == 2:
        return int(factory.args[0]), True, factory.args[1]
    if factory.func is competing_direct_pair and len(factory.args) == 1:
        return int(factory.args[0]), False, None
    return None


def competing_cells(
    link_name: str = "Verizon LTE downlink",
    duration: float = 60.0,
    warmup: float = 10.0,
) -> List[Cell]:
    """The Section 5.7 comparison as two scenario cells: direct, then tunnelled."""
    config = RunConfig(duration=duration, warmup=warmup, per_flow=True)
    return [
        (competing_scheme(2, tunnelled), link_name, config)
        for tunnelled in (False, True)
    ]


def assemble_competing(results: Sequence[SchemeResult]) -> CompetingComparison:
    """The comparison from the results of :func:`competing_cells`, in cell order."""
    runs = []
    for mode, result in zip(("direct", "sprout-tunnel"), results):
        by_flow = {flow.flow: flow for flow in result.flows}
        runs.append(
            CompetingResult(
                mode=mode,
                flows={
                    "cubic": replace(by_flow["cubic-1"], flow="cubic"),
                    "skype": by_flow["skype"],
                },
            )
        )
    return CompetingComparison(*runs)


def run_competing_comparison(
    link_name: str = "Verizon LTE downlink",
    duration: float = 60.0,
    warmup: float = 10.0,
    jobs: Optional[int] = None,
) -> CompetingComparison:
    """The full Section 5.7 comparison: direct vs. through SproutTunnel."""
    cells = competing_cells(link_name, duration, warmup)
    return assemble_competing(run_cells(cells, jobs=jobs))


def render_competing(comparison: CompetingComparison) -> str:
    """Plain-text rendering of the Section 5.7 table."""
    d, t = comparison.direct, comparison.tunnelled
    lines = ["Section 5.7 — Cubic + Skype, direct vs via SproutTunnel", ""]
    lines.append(f"{'metric':24s} {'direct':>12s} {'via Sprout':>12s} {'change':>10s}")
    rows = [
        ("Cubic throughput (kbps)", d.flows["cubic"].throughput_kbps,
         t.flows["cubic"].throughput_kbps, comparison.change_percent("cubic", "throughput_bps")),
        ("Skype throughput (kbps)", d.flows["skype"].throughput_kbps,
         t.flows["skype"].throughput_kbps, comparison.change_percent("skype", "throughput_bps")),
        ("Skype 95% delay (ms)", d.flows["skype"].delay_95_ms,
         t.flows["skype"].delay_95_ms, comparison.change_percent("skype", "delay_95_s")),
    ]
    for label, before, after, change in rows:
        lines.append(f"{label:24s} {before:12.0f} {after:12.0f} {change:+9.0f}%")
    return "\n".join(lines)
