"""Figure 7: throughput vs. self-inflicted delay on every measured link.

The paper's main result figure: eight charts (four networks, both
directions), each placing every scheme by its average throughput and 95%
self-inflicted delay.  Up and to the right is better.  This module runs the
full measurement matrix and groups results per link so they can be rendered
(or plotted by downstream users).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.parallel import Cell, ProgressCallback, run_cells
from repro.experiments.registry import FIGURE7_SCHEMES
from repro.experiments.runner import RunConfig
from repro.metrics.summary import SchemeResult
from repro.traces.networks import link_names


@dataclass
class Figure7Data:
    """Per-link results for every scheme in the comparison."""

    results: List[SchemeResult] = field(default_factory=list)

    def by_link(self) -> Dict[str, List[SchemeResult]]:
        grouped: Dict[str, List[SchemeResult]] = {}
        for result in self.results:
            grouped.setdefault(result.link, []).append(result)
        return grouped

    def for_link(self, link: str) -> List[SchemeResult]:
        return [r for r in self.results if r.link == link]

    def best_delay_scheme(self, link: str) -> Optional[str]:
        """The scheme with the lowest self-inflicted delay on ``link``."""
        rows = self.for_link(link)
        if not rows:
            return None
        return min(rows, key=lambda r: r.self_inflicted_delay_s).scheme


def figure7_cells(
    schemes: Optional[Sequence[str]] = None,
    links: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
) -> List[Cell]:
    """The measurement matrix as cells, scheme-major and link-minor."""
    scheme_list = list(schemes) if schemes is not None else list(FIGURE7_SCHEMES)
    link_list = list(links) if links is not None else link_names()
    return [(scheme, link, config) for scheme in scheme_list for link in link_list]


def run_figure7(
    schemes: Optional[Sequence[str]] = None,
    links: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
    progress: Optional[ProgressCallback] = None,
    jobs: Optional[int] = None,
) -> Figure7Data:
    """Run the Figure 7 measurement matrix.

    Args:
        schemes: schemes to measure; the paper's nine by default.
        links: links to measure; all eight modelled links by default.
        config: run parameters (trace duration, warm-up, ...).
        progress: optional callback invoked with each finished result.
        jobs: worker processes for the matrix (``None``/1 = serial, 0 = one
            per CPU); results are identical regardless.
    """
    cells = figure7_cells(schemes, links, config)
    return Figure7Data(results=run_cells(cells, progress=progress, jobs=jobs))


def render_figure7(data: Figure7Data) -> str:
    """Plain-text rendering: one block per link, schemes sorted by delay."""
    lines: List[str] = ["Figure 7 — throughput vs self-inflicted delay", ""]
    for link, rows in data.by_link().items():
        lines.append(link)
        lines.append(f"  {'scheme':16s} {'tput (kbps)':>12s} {'delay (ms)':>12s}")
        for row in sorted(rows, key=lambda r: r.self_inflicted_delay_s):
            lines.append(
                f"  {row.scheme:16s} {row.throughput_kbps:12.0f} "
                f"{row.self_inflicted_delay_ms:12.0f}"
            )
        lines.append("")
    return "\n".join(lines)
