"""Run one scheme over one emulated link and compute the paper's metrics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.baselines.omniscient import omniscient_delay
from repro.cache import Memo
from repro.cellsim.cellsim import Cellsim, build_cellsim, cellsim_for_link, traces_for_link
from repro.experiments.registry import SchemeSpec, get_scheme
from repro.metrics.delay import arrivals_from_log, end_to_end_delay_95, self_inflicted_delay
from repro.metrics.flows import attach_uplink_deliveries, flow_metrics_from_logs
from repro.metrics.summary import SchemeResult
from repro.metrics.throughput import average_throughput_bps, link_capacity_bps, utilization
from repro.traces.networks import DEFAULT_TRACE_DURATION, LinkSpec, get_link


@dataclass
class RunConfig:
    """Parameters of one experiment run.

    The paper skips the first minute of every application run to avoid
    start-up effects; with the shorter default traces used here the warm-up
    is scaled down proportionally but serves the same purpose.

    ``per_flow`` asks the metrics collection to also break the run down per
    client flow (Section 5.7: Skype's delay vs. Cubic's throughput) when the
    receiving endpoint keeps per-flow logs — a multiplexed scenario cell.
    It is pure collection: the emulation's physics are identical either way.
    """

    duration: float = DEFAULT_TRACE_DURATION
    warmup: float = 15.0
    loss_rate: float = 0.0
    queue_byte_limit: Optional[int] = None
    per_flow: bool = False

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must be within [0, duration)")


def run_scheme_on_link(
    scheme: Union[str, SchemeSpec],
    link: Union[str, LinkSpec],
    config: Optional[RunConfig] = None,
) -> SchemeResult:
    """Run ``scheme`` over ``link`` and return its measured metrics.

    Args:
        scheme: a scheme name from the registry or an explicit spec.
        link: a link name (e.g. ``"Verizon LTE downlink"``) or spec.
        config: run parameters; defaults mirror the evaluation settings.
    """
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    link_spec = get_link(link) if isinstance(link, str) else link
    cfg = config if config is not None else RunConfig()

    sender, receiver = spec.factory()
    sim = cellsim_for_link(
        sender,
        receiver,
        link_spec,
        duration=cfg.duration,
        loss_rate=cfg.loss_rate,
        use_codel=spec.use_codel,
        queue_byte_limit=cfg.queue_byte_limit,
    )
    sim.run(cfg.duration)
    return collect_metrics(sim, spec.name, link_spec.name, cfg)


#: 16 entries of a ~120 kB LTE trace's bytes bound the memo at about 2 MB
_BASELINES = Memo(max_entries=16)


def _trace_baselines(
    trace_bytes: bytes, propagation_delay: float, start: float, end: float
) -> Tuple[float, float]:
    """(link capacity in bit/s, omniscient 95% delay) of one trace and window.

    Both are pure functions of the trace, and a grid's cells share a handful
    of traces, so they are memoised per process.  The key is the trace's
    *content* (its float64 bytes; ``link_trace`` hands every cell a fresh
    copy, so identity would never hit).
    """

    def build() -> Tuple[float, float]:
        trace = np.frombuffer(trace_bytes, dtype=np.float64).tolist()
        capacity = link_capacity_bps(trace, start, end)
        base_delay = omniscient_delay(
            trace, propagation_delay=propagation_delay, start_time=start, end_time=end
        )
        return capacity, base_delay

    return _BASELINES.get((trace_bytes, propagation_delay, start, end), build)


def collect_metrics(
    sim: Cellsim,
    scheme_name: str,
    link_name: str,
    config: RunConfig,
) -> SchemeResult:
    """Compute the paper's metrics from a finished emulation.

    With ``config.per_flow`` set and a receiver that keeps per-flow logs
    (:class:`~repro.simulation.mux.MultiplexProtocol`, whose log the tunnel
    egress also feeds), the result additionally carries one
    :class:`~repro.metrics.flows.FlowMetrics` per client flow.

    The trace-only baselines — link capacity and the omniscient delay bound
    — come from :func:`_trace_baselines`, computed once per process for each
    distinct (trace, propagation delay, window) instead of once per cell.
    """
    start = config.warmup
    end = config.duration

    received_log = sim.receiver_host.received_log
    throughput = average_throughput_bps(received_log, start, end)

    arrivals = arrivals_from_log(received_log)
    delay_95 = end_to_end_delay_95(arrivals, start, end)

    capacity, base_delay = _trace_baselines(
        np.asarray(sim.forward_trace, dtype=np.float64).tobytes(),
        sim.path.config.propagation_delay,
        start,
        end,
    )
    inflicted = self_inflicted_delay(delay_95, base_delay)

    flows = None
    if config.per_flow:
        flow_logs = getattr(sim.receiver_host.protocol, "received_by_flow", None)
        if flow_logs is not None:
            flows = flow_metrics_from_logs(flow_logs, start, end) or None
        if flows is not None:
            # Downlink-first contract (repro.metrics.flows): the measured
            # numbers come from the receiver side; when the sender side is
            # also a mux, its log has already seen the feedback direction,
            # so tally those deliveries into the diagnostic uplink counters.
            uplink_logs = getattr(sim.sender_host.protocol, "received_by_flow", None)
            if uplink_logs is not None:
                attach_uplink_deliveries(flows, uplink_logs, start, end)

    return SchemeResult(
        scheme=scheme_name,
        link=link_name,
        throughput_bps=throughput,
        delay_95_s=delay_95,
        self_inflicted_delay_s=inflicted,
        utilization=utilization(throughput, capacity),
        capacity_bps=capacity,
        omniscient_delay_95_s=base_delay,
        extra={
            "packets_delivered": float(len(received_log)),
            "forward_queue_drops": float(getattr(sim.path.forward.queue, "drops", 0)),
            "forward_loss_drops": float(sim.path.forward.packets_lost),
        },
        flows=flows,
    )
