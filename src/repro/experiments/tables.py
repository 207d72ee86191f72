"""The paper's tables: the two introduction tables, §5.6 loss resilience,
and §5.7 competing traffic.

Each generator either runs the required emulations itself or accepts a list
of already-measured :class:`SchemeResult` rows (so a single Figure 7 matrix
run can feed the introduction tables without repeating work).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.competing import CompetingComparison, run_competing_comparison
from repro.experiments.figure7 import run_figure7
from repro.experiments.parallel import Cell, run_cells
from repro.experiments.registry import INTRO_TABLE_SCHEMES
from repro.experiments.runner import RunConfig
from repro.metrics.summary import (
    RelativeComparison,
    SchemeResult,
    relative_to_reference,
)


# --------------------------------------------------------------------------
# Introduction table 1: every scheme vs Sprout
# --------------------------------------------------------------------------

def intro_table(
    results: Optional[List[SchemeResult]] = None,
    links: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
) -> List[RelativeComparison]:
    """Average speedup and delay reduction of Sprout vs every other scheme.

    Mirrors the first table of the paper's introduction: for each scheme,
    how many times more throughput Sprout achieved and how many times larger
    the scheme's self-inflicted delay was, averaged over all measured links.
    """
    if results is None:
        results = run_figure7(INTRO_TABLE_SCHEMES, links, config, jobs=jobs).results
    return relative_to_reference(results, reference="Sprout")


def render_intro_table(comparisons: List[RelativeComparison]) -> str:
    lines = ["Introduction table — relative to Sprout", ""]
    lines.append(
        f"{'scheme':16s} {'avg speedup vs scheme':>22s} {'delay reduction':>16s} "
        f"{'(avg delay s)':>14s}"
    )
    for row in sorted(comparisons, key=lambda c: c.scheme != "Sprout"):
        lines.append(
            f"{row.scheme:16s} {row.speedup:22.2f} {row.delay_reduction:16.1f} "
            f"{row.mean_delay_s:14.2f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Introduction table 2: Sprout-EWMA comparison
# --------------------------------------------------------------------------

#: the schemes of the introduction's second table
EWMA_TABLE_SCHEMES = ("Sprout-EWMA", "Sprout", "Cubic", "Cubic-CoDel")


def ewma_table(
    results: Optional[List[SchemeResult]] = None,
    links: Optional[Sequence[str]] = None,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
) -> List[RelativeComparison]:
    """The introduction's second table, relative to Sprout-EWMA."""
    if results is None:
        results = run_figure7(EWMA_TABLE_SCHEMES, links, config, jobs=jobs).results
    wanted = [r for r in results if r.scheme in EWMA_TABLE_SCHEMES]
    return relative_to_reference(wanted, reference="Sprout-EWMA")


def render_ewma_table(comparisons: List[RelativeComparison]) -> str:
    lines = ["Introduction table — relative to Sprout-EWMA", ""]
    lines.append(
        f"{'scheme':16s} {'avg speedup vs scheme':>22s} {'delay reduction':>16s} "
        f"{'(avg delay s)':>14s}"
    )
    for row in sorted(comparisons, key=lambda c: c.scheme != "Sprout-EWMA"):
        lines.append(
            f"{row.scheme:16s} {row.speedup:22.2f} {row.delay_reduction:16.1f} "
            f"{row.mean_delay_s:14.2f}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Section 5.6: loss resilience
# --------------------------------------------------------------------------

#: the loss rates evaluated by the paper (each direction independently)
LOSS_RATES = (0.0, 0.05, 0.10)

#: the two directions the paper measures under loss
LOSS_LINKS = ("Verizon LTE downlink", "Verizon LTE uplink")


@dataclass
class LossTableData:
    """Sprout's throughput/delay under Bernoulli loss, per direction."""

    rows: Dict[str, Dict[float, SchemeResult]]


def loss_table_cells(
    scheme: str = "Sprout",
    links: Sequence[str] = LOSS_LINKS,
    loss_rates: Sequence[float] = LOSS_RATES,
    config: Optional[RunConfig] = None,
) -> List[Cell]:
    """The Section 5.6 cells, link-major: every loss rate on every link."""
    cfg = config if config is not None else RunConfig()
    return [
        (scheme, link, replace(cfg, loss_rate=rate))
        for link in links
        for rate in loss_rates
    ]


def assemble_loss_table(
    results: Sequence[SchemeResult],
    links: Sequence[str] = LOSS_LINKS,
    loss_rates: Sequence[float] = LOSS_RATES,
) -> LossTableData:
    """The loss table from the results of :func:`loss_table_cells`, in cell order."""
    ordered = iter(results)
    return LossTableData(
        rows={link: {rate: next(ordered) for rate in loss_rates} for link in links}
    )


def loss_table(
    scheme: str = "Sprout",
    links: Sequence[str] = LOSS_LINKS,
    loss_rates: Sequence[float] = LOSS_RATES,
    config: Optional[RunConfig] = None,
    jobs: Optional[int] = None,
) -> LossTableData:
    """Regenerate the Section 5.6 loss-resilience table."""
    cells = loss_table_cells(scheme, links, loss_rates, config)
    return assemble_loss_table(run_cells(cells, jobs=jobs), links, loss_rates)


def render_loss_table(data: LossTableData) -> str:
    lines = ["Section 5.6 — Sprout under Bernoulli packet loss", ""]
    lines.append(f"{'link':26s} {'loss rate':>10s} {'tput (kbps)':>12s} {'delay (ms)':>12s}")
    for link, by_rate in data.rows.items():
        for rate in sorted(by_rate):
            result = by_rate[rate]
            lines.append(
                f"{link:26s} {rate * 100:9.0f}% {result.throughput_kbps:12.0f} "
                f"{result.self_inflicted_delay_ms:12.0f}"
            )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Section 5.7: competing traffic through SproutTunnel
# --------------------------------------------------------------------------

def tunnel_table(
    link_name: str = "Verizon LTE downlink",
    duration: float = 60.0,
    warmup: float = 10.0,
    jobs: Optional[int] = None,
) -> CompetingComparison:
    """Regenerate the Section 5.7 table (Cubic + Skype, direct vs tunnel)."""
    return run_competing_comparison(
        link_name, duration=duration, warmup=warmup, jobs=jobs
    )
