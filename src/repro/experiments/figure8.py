"""Figure 8: average utilization vs. average self-inflicted delay.

The paper compares Sprout and Sprout-EWMA (end-to-end) against Cubic and
Cubic-over-CoDel (which needs in-network deployment), averaged across the
eight links: CoDel sharply reduces Cubic's delay at modest throughput cost,
Sprout achieves even lower delay purely end-to-end, and Sprout-EWMA gets
within a few percent of Cubic-CoDel's delay with substantially more
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.figure7 import run_figure7
from repro.experiments.runner import RunConfig
from repro.metrics.summary import SchemeResult, average_by_scheme

#: the four schemes the paper places on Figure 8
FIGURE8_SCHEMES = ("Sprout", "Sprout-EWMA", "Cubic", "Cubic-CoDel")


@dataclass
class Figure8Data:
    """Per-scheme averages over all measured links."""

    results: List[SchemeResult]
    averages: Dict[str, Dict[str, float]]

    def utilization_percent(self, scheme: str) -> float:
        return 100.0 * self.averages[scheme]["mean_utilization"]

    def mean_delay_ms(self, scheme: str) -> float:
        return 1000.0 * self.averages[scheme]["mean_self_inflicted_delay_s"]


def run_figure8(
    links: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
    results: Optional[List[SchemeResult]] = None,
    jobs: Optional[int] = None,
) -> Figure8Data:
    """Regenerate Figure 8.

    Pass ``results`` (e.g. from a Figure 7 run that already covered these
    schemes) to avoid re-running the emulations.
    """
    if results is None:
        results = run_figure7(FIGURE8_SCHEMES, links, config, jobs=jobs).results
    wanted = [r for r in results if r.scheme in FIGURE8_SCHEMES]
    return Figure8Data(results=wanted, averages=average_by_scheme(wanted))


def render_figure8(data: Figure8Data) -> str:
    """Plain-text rendering of the utilization/delay averages."""
    lines = ["Figure 8 — average utilization vs average self-inflicted delay", ""]
    lines.append(f"{'scheme':14s} {'utilization %':>14s} {'delay (ms)':>12s}")
    for scheme in FIGURE8_SCHEMES:
        if scheme not in data.averages:
            continue
        lines.append(
            f"{scheme:14s} {data.utilization_percent(scheme):14.1f} "
            f"{data.mean_delay_ms(scheme):12.0f}"
        )
    return "\n".join(lines)
