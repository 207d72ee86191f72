"""Assemble every experiment into a single textual report.

``python -m repro report`` (see :mod:`repro.cli`) runs the full reproduction
and writes a report containing each figure's and table's regenerated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.competing import render_competing
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure7 import Figure7Data, render_figure7, run_figure7
from repro.experiments.figure8 import render_figure8, run_figure8
from repro.experiments.figure9 import render_figure9, run_figure9
from repro.experiments.parallel import shared_pool
from repro.experiments.policy import ErrorPolicy
from repro.experiments.registry import INTRO_TABLE_SCHEMES
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import (
    GridSpec,
    render_grid,
    render_grid_frontiers,
    run_grid,
)
from repro.experiments.tables import (
    intro_table,
    loss_table,
    render_ewma_table,
    render_intro_table,
    render_loss_table,
    ewma_table,
    tunnel_table,
)


@dataclass
class ReportConfig:
    """Controls how much work the full report does."""

    duration: float = 60.0
    warmup: float = 10.0
    figure1_duration: float = 60.0
    figure2_duration: float = 300.0
    tunnel_duration: float = 60.0
    include_sections: Optional[List[str]] = None
    #: worker processes for matrix experiments (None/1 = serial, 0 = per CPU)
    jobs: Optional[int] = None
    #: optional scenario grids appended to the report; a grid of two or
    #: more axes is followed by its per-link frontier section
    #: (docs/sweeps.md, docs/scenarios.md)
    grids: Optional[List[GridSpec]] = None
    #: failure handling for the report's grid sections
    #: (docs/robustness.md); ``None`` keeps the fail-fast default
    error_policy: Optional[ErrorPolicy] = None
    #: analytic screening for the report's grid sections: ``None`` emulates
    #: every cell; a :class:`~repro.experiments.analytic.ScreenConfig` (or
    #: ``True`` for the defaults) emulates only cells near the predicted
    #: frontier and reports the rest as predictions (docs/analytic.md)
    screen: Optional[object] = None

    def run_config(self) -> RunConfig:
        return RunConfig(duration=self.duration, warmup=self.warmup)

    def wants(self, section: str) -> bool:
        return self.include_sections is None or section in self.include_sections


def generate_report(config: Optional[ReportConfig] = None, progress=print) -> str:
    """Run every experiment and return the combined textual report.

    The whole run shares **one** warmed worker pool (when ``jobs`` asks for
    parallelism): every matrix section and grid reuses it instead of paying
    worker start-up again.
    """
    cfg = config if config is not None else ReportConfig()
    with shared_pool(cfg.jobs):
        return _generate_report_sections(cfg, progress)


def _generate_report_sections(cfg: ReportConfig, progress) -> str:
    run_cfg = cfg.run_config()
    sections: List[str] = []

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    figure7_data: Optional[Figure7Data] = None
    if cfg.wants("figure7") or cfg.wants("tables") or cfg.wants("figure8"):
        note("running the Figure 7 measurement matrix (all schemes x all links)...")
        figure7_data = run_figure7(
            schemes=INTRO_TABLE_SCHEMES,
            config=run_cfg,
            progress=lambda r: note(f"  {r.link}: {r.scheme} done"),
            jobs=cfg.jobs,
        )

    if cfg.wants("figure1"):
        note("running Figure 1 (Skype vs Sprout time series)...")
        sections.append(render_figure1(run_figure1(duration=cfg.figure1_duration)))
    if cfg.wants("figure2"):
        note("running Figure 2 (interarrival distribution)...")
        sections.append(render_figure2(run_figure2(duration=cfg.figure2_duration)))
    if figure7_data is not None and cfg.wants("figure7"):
        sections.append(render_figure7(figure7_data))
    if figure7_data is not None and cfg.wants("figure8"):
        sections.append(render_figure8(run_figure8(results=figure7_data.results)))
    if cfg.wants("figure9"):
        note("running Figure 9 (confidence sweep)...")
        sections.append(render_figure9(run_figure9(config=run_cfg)))
    if figure7_data is not None and cfg.wants("tables"):
        sections.append(render_intro_table(intro_table(results=figure7_data.results)))
        sections.append(render_ewma_table(ewma_table(results=figure7_data.results)))
    if cfg.wants("loss"):
        note("running the Section 5.6 loss-resilience table...")
        sections.append(render_loss_table(loss_table(config=run_cfg)))
    if cfg.wants("tunnel"):
        note("running the Section 5.7 competing-traffic comparison...")
        sections.append(render_competing(tunnel_table(duration=cfg.tunnel_duration)))
    if cfg.grids and cfg.wants("grids"):
        for grid_spec in cfg.grids:
            axes = " × ".join(grid_spec.parameters)
            note(
                f"running the {axes} grid "
                f"({len(grid_spec.coordinates())} points)..."
            )
            data = run_grid(
                grid_spec,
                config=run_cfg,
                jobs=cfg.jobs,
                policy=cfg.error_policy,
                screen=cfg.screen,
            )
            sections.append(render_grid(data))
            if len(grid_spec.parameters) > 1:
                sections.append(render_grid_frontiers(data))

    return "\n\n" + "\n\n".join(sections) + "\n"
