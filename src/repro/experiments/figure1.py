"""Figure 1: Skype and Sprout time series on the Verizon LTE downlink.

The paper's opening figure shows, over a ~60 second section of the Verizon
LTE downlink trace, the link capacity, each scheme's achieved throughput,
and each scheme's per-packet delay: Skype overshoots on rate drops and
builds multi-second standing queues, while Sprout tracks the capacity and
keeps delay near its 100 ms target.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cellsim.cellsim import cellsim_for_link
from repro.experiments.parallel import Task, run_tasks
from repro.experiments.registry import get_scheme
from repro.traces.analysis import capacity_timeseries
from repro.traces.networks import get_link, link_trace


@dataclass
class SchemeTimeseries:
    """Per-scheme series: throughput per second and per-packet delay."""

    scheme: str
    times: np.ndarray
    throughput_kbps: np.ndarray
    delay_times: np.ndarray
    delay_ms: np.ndarray


@dataclass
class Figure1Data:
    """Everything needed to redraw Figure 1."""

    link: str
    capacity_times: np.ndarray
    capacity_kbps: np.ndarray
    schemes: Dict[str, SchemeTimeseries]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Mean throughput and 95th-percentile delay per scheme."""
        out: Dict[str, Dict[str, float]] = {}
        for name, series in self.schemes.items():
            out[name] = {
                "mean_throughput_kbps": float(np.mean(series.throughput_kbps)),
                "p95_delay_ms": float(np.percentile(series.delay_ms, 95))
                if series.delay_ms.size
                else float("nan"),
            }
        return out


def _scheme_timeseries(
    scheme_name: str,
    link_name: str,
    duration: float,
    bin_width: float,
) -> SchemeTimeseries:
    spec = get_scheme(scheme_name)
    link = get_link(link_name)
    sender, receiver = spec.factory()
    sim = cellsim_for_link(sender, receiver, link, duration=duration, use_codel=spec.use_codel)
    sim.run(duration)

    arrivals: List[Tuple[float, float, int]] = []
    for arrival_time, packet in sim.receiver_host.received_log:
        if packet.sent_at is None:
            continue
        arrivals.append((arrival_time, packet.sent_at, packet.size))

    edges = np.arange(0.0, duration + bin_width, bin_width)
    centers = (edges[:-1] + edges[1:]) / 2.0
    throughput = np.zeros(len(centers))
    for arrival_time, _, size in arrivals:
        index = min(int(arrival_time / bin_width), len(centers) - 1)
        throughput[index] += size * 8.0 / bin_width / 1000.0

    delay_times = np.array([a for a, _, _ in arrivals])
    delay_ms = np.array([(a - s) * 1000.0 for a, s, _ in arrivals])
    return SchemeTimeseries(
        scheme=scheme_name,
        times=centers,
        throughput_kbps=throughput,
        delay_times=delay_times,
        delay_ms=delay_ms,
    )


#: the link and the two schemes of the paper's opening figure
FIGURE1_LINK = "Verizon LTE downlink"
FIGURE1_SCHEMES = ("Skype", "Sprout")


def figure1_tasks(
    link_name: str = FIGURE1_LINK,
    schemes: Sequence[str] = FIGURE1_SCHEMES,
    duration: float = 60.0,
    bin_width: float = 1.0,
) -> List[Task]:
    """One time-series emulation per scheme, as pool tasks."""
    return [
        partial(_scheme_timeseries, scheme, link_name, duration, bin_width)
        for scheme in schemes
    ]


def assemble_figure1(
    series: Sequence[SchemeTimeseries],
    link_name: str = FIGURE1_LINK,
    duration: float = 60.0,
    bin_width: float = 1.0,
) -> Figure1Data:
    """Figure 1 from the results of :func:`figure1_tasks` plus the link's capacity."""
    link = get_link(link_name)
    capacity_times, capacity_kbps = capacity_timeseries(
        link_trace(link, duration), bin_width=bin_width
    )
    return Figure1Data(
        link=link.name,
        capacity_times=capacity_times,
        capacity_kbps=capacity_kbps,
        schemes={one.scheme: one for one in series},
    )


def run_figure1(
    link_name: str = FIGURE1_LINK,
    schemes: Sequence[str] = FIGURE1_SCHEMES,
    duration: float = 60.0,
    bin_width: float = 1.0,
    jobs: Optional[int] = None,
) -> Figure1Data:
    """Regenerate the data behind Figure 1 (always over the full window)."""
    tasks = figure1_tasks(link_name, schemes, duration, bin_width)
    return assemble_figure1(run_tasks(tasks, jobs=jobs), link_name, duration, bin_width)


def render_figure1(data: Figure1Data) -> str:
    """Plain-text rendering of the Figure 1 comparison."""
    lines = [f"Figure 1 — {data.link}", ""]
    lines.append(
        f"{'scheme':12s} {'mean tput (kbps)':>18s} {'95th pct delay (ms)':>21s}"
    )
    for name, stats in data.summary().items():
        lines.append(
            f"{name:12s} {stats['mean_throughput_kbps']:18.0f} "
            f"{stats['p95_delay_ms']:21.0f}"
        )
    lines.append("")
    lines.append(f"link capacity: mean {np.mean(data.capacity_kbps):.0f} kbps, "
                 f"peak {np.max(data.capacity_kbps):.0f} kbps")
    return "\n".join(lines)
