"""Figure 9: the effect of Sprout's confidence parameter (Section 5.5).

Sprout's receiver normally forecasts the bytes deliverable with 95%
confidence.  Lowering the confidence trades delay for throughput; the paper
sweeps 95/75/50/25/5% on the T-Mobile 3G (UMTS) uplink and shows the
resulting frontier, together with the other schemes for context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core.connection import SproutConfig
from repro.experiments.parallel import Cell, run_cells
from repro.experiments.registry import sprout_with_confidence
from repro.experiments.runner import RunConfig
from repro.metrics.summary import SchemeResult

#: the link the paper sweeps on
FIGURE9_LINK = "T-Mobile 3G (UMTS) uplink"

#: the confidence values swept in the paper
DEFAULT_CONFIDENCES = (0.95, 0.75, 0.50, 0.25, 0.05)

#: the other schemes placed on the figure for context
FIGURE9_CONTEXT = ("Sprout-EWMA", "Cubic", "Vegas", "Skype")


@dataclass
class Figure9Data:
    """Sweep results plus any context schemes measured on the same link."""

    link: str
    sweep: Dict[float, SchemeResult]
    context: List[SchemeResult]

    def frontier(self) -> List[SchemeResult]:
        """Sweep results ordered from most to least cautious."""
        return [self.sweep[c] for c in sorted(self.sweep, reverse=True)]


def figure9_cells(
    link_name: str = FIGURE9_LINK,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    context_schemes: Sequence[str] = FIGURE9_CONTEXT,
    config: Optional[RunConfig] = None,
) -> List[Cell]:
    """Figure 9's cells: one per swept confidence, then the context schemes.

    The default-confidence point is declared as the registry ``Sprout``: the
    same endpoints under another label, so a batch that also holds the
    Figure 7 matrix runs that cell once (:func:`assemble_figure9` puts the
    ``Sprout (95%)`` label back).
    """
    default = SproutConfig().confidence
    sweep = [
        "Sprout" if confidence == default else sprout_with_confidence(confidence)
        for confidence in confidences
    ]
    return [(scheme, link_name, config) for scheme in (*sweep, *context_schemes)]


def assemble_figure9(
    results: Sequence[SchemeResult],
    link_name: str = FIGURE9_LINK,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
) -> Figure9Data:
    """Figure 9 from the results of :func:`figure9_cells`, in cell order."""
    sweep = {
        confidence: replace(result, scheme=sprout_with_confidence(confidence).name)
        for confidence, result in zip(confidences, results)
    }
    return Figure9Data(
        link=link_name, sweep=sweep, context=list(results[len(confidences) :])
    )


def run_figure9(
    link_name: str = FIGURE9_LINK,
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
    context_schemes: Sequence[str] = FIGURE9_CONTEXT,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
) -> Figure9Data:
    """Regenerate the confidence-parameter sweep of Figure 9."""
    cells = figure9_cells(link_name, confidences, context_schemes, config)
    return assemble_figure9(run_cells(cells, jobs=jobs), link_name, confidences)


def render_figure9(data: Figure9Data) -> str:
    """Plain-text rendering of the throughput/delay frontier."""
    lines = [f"Figure 9 — confidence parameter sweep on {data.link}", ""]
    lines.append(f"{'scheme':18s} {'tput (kbps)':>12s} {'delay (ms)':>12s}")
    for result in data.frontier():
        lines.append(
            f"{result.scheme:18s} {result.throughput_kbps:12.0f} "
            f"{result.self_inflicted_delay_ms:12.0f}"
        )
    for result in data.context:
        lines.append(
            f"{result.scheme:18s} {result.throughput_kbps:12.0f} "
            f"{result.self_inflicted_delay_ms:12.0f}"
        )
    return "\n".join(lines)
