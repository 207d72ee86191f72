"""Assemble every experiment into a single textual report.

``python -m repro report`` (see :mod:`repro.cli`) runs the full reproduction
and writes a report containing each figure's and table's regenerated data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments.competing import (
    assemble_competing,
    competing_cells,
    render_competing,
)
from repro.experiments.figure1 import assemble_figure1, figure1_tasks, render_figure1
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure7 import Figure7Data, figure7_cells, render_figure7
from repro.experiments.figure8 import render_figure8, run_figure8
from repro.experiments.figure9 import assemble_figure9, figure9_cells, render_figure9
from repro.experiments.parallel import Cell, run_cells, shared_pool, start_tasks
from repro.experiments.policy import ErrorPolicy, cell_key
from repro.experiments.registry import INTRO_TABLE_SCHEMES
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import (
    GridSpec,
    render_grid,
    render_grid_frontiers,
    run_grid,
)
from repro.experiments.tables import (
    assemble_loss_table,
    ewma_table,
    intro_table,
    loss_table_cells,
    render_ewma_table,
    render_intro_table,
    render_loss_table,
)
from repro.metrics.summary import SchemeResult

#: the Section 5.7 section's warm-up; ``tunnel_duration`` must exceed it
TUNNEL_WARMUP = 10.0

#: the names ``ReportConfig.include_sections`` may hold
SECTIONS = (
    "figure1", "figure2", "figure7", "figure8", "figure9",
    "tables", "loss", "tunnel", "grids",
)  # fmt: skip


@dataclass
class ReportConfig:
    """Controls how much work the full report does."""

    duration: float = 60.0
    warmup: float = 10.0
    figure1_duration: float = 60.0
    figure2_duration: float = 300.0
    tunnel_duration: float = 60.0
    include_sections: Optional[List[str]] = None
    #: worker processes for every section's emulations (None/1 = serial,
    #: 0 = per CPU)
    jobs: Optional[int] = None
    #: optional scenario grids appended to the report; a grid of two or
    #: more axes is followed by its per-link frontier section
    #: (docs/sweeps.md, docs/scenarios.md)
    grids: Optional[List[GridSpec]] = None
    #: failure handling for the report's grid sections
    #: (docs/robustness.md); ``None`` keeps the fail-fast default
    error_policy: Optional[ErrorPolicy] = None

    def __post_init__(self) -> None:
        for name in ("duration", "figure1_duration", "figure2_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 <= self.warmup < self.duration:
            raise ValueError(
                f"warmup must be within [0, duration={self.duration}), got {self.warmup}"
            )
        if self.tunnel_duration <= TUNNEL_WARMUP:
            raise ValueError(
                f"tunnel_duration must exceed the Section 5.7 warm-up of "
                f"{TUNNEL_WARMUP} s, got {self.tunnel_duration}"
            )
        unknown = [name for name in self.include_sections or () if name not in SECTIONS]
        if unknown:
            raise ValueError(
                f"include_sections must hold section names "
                f"({' '.join(SECTIONS)}), got {' '.join(map(repr, unknown))}"
            )

    def run_config(self) -> RunConfig:
        return RunConfig(duration=self.duration, warmup=self.warmup)

    def wants(self, section: str) -> bool:
        return self.include_sections is None or section in self.include_sections


def generate_report(config: Optional[ReportConfig] = None, progress=print) -> str:
    """Run every experiment and return the combined textual report.

    The run is *declare, run once, render*: every wanted section first names
    its emulations; all ``(scheme, link, config)`` cells — the Section 5.7
    pair, the Figure 7 matrix, Figure 9, the loss table — then go to the
    shared worker pool (when ``jobs`` asks for one) as **one** batch in
    which cells that coincide run once, behind the two emulations that are
    not cells (Figure 1's time series); the sections are rendered from the
    results in report order, so the text does not depend on ``jobs``
    (docs/performance.md "The report as one batch").
    """
    cfg = config if config is not None else ReportConfig()
    with shared_pool(cfg.jobs):
        return _generate_report_sections(cfg, progress)


def _run_once(
    cells: Sequence[Cell], progress, jobs: Optional[int]
) -> Callable[[Sequence[Cell]], List[SchemeResult]]:
    """Run each distinct cell of ``cells`` once, as one batch.

    Cells are the same when their :func:`~repro.experiments.policy.cell_key`
    is: same scheme, link and run parameters, hence the same result.  The
    returned function looks up the results of any sub-list of ``cells``.
    """
    distinct: Dict[str, Cell] = {}
    for cell in cells:
        distinct.setdefault(cell_key(cell), cell)
    results = dict(
        zip(distinct, run_cells(list(distinct.values()), progress=progress, jobs=jobs))
    )
    return lambda wanted: [results[cell_key(cell)] for cell in wanted]


def _generate_report_sections(cfg: ReportConfig, progress) -> str:
    run_cfg = cfg.run_config()

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    # Declare.  Figure 1's two emulations are not cells, so they are queued
    # now; Figure 2 is trace analysis and runs here, in the parent, while
    # the pool starts on them.
    figure1_series = figure2_data = None
    tunnel, figure9, loss, matrix = [], [], [], []
    if cfg.wants("figure1"):
        note("running Figure 1 (Skype vs Sprout time series)...")
        figure1_series = start_tasks(figure1_tasks(duration=cfg.figure1_duration))
    if cfg.wants("tunnel"):
        note("running the Section 5.7 competing-traffic comparison...")
        tunnel = competing_cells(duration=cfg.tunnel_duration, warmup=TUNNEL_WARMUP)
    if cfg.wants("figure2"):
        note("running Figure 2 (interarrival distribution)...")
        figure2_data = run_figure2(duration=cfg.figure2_duration)
    if cfg.wants("figure9"):
        note("running Figure 9 (confidence sweep)...")
        figure9 = figure9_cells(config=run_cfg)
    if cfg.wants("loss"):
        note("running the Section 5.6 loss-resilience table...")
        loss = loss_table_cells(config=run_cfg)
    if cfg.wants("figure7") or cfg.wants("tables") or cfg.wants("figure8"):
        note("running the Figure 7 measurement matrix (all schemes x all links)...")
        matrix = figure7_cells(schemes=INTRO_TABLE_SCHEMES, config=run_cfg)

    # Run once, the Section 5.7 pair first: they are the batch's longest
    # cells, and a pool that meets them last ends with one worker idle.
    results_of = _run_once(
        [*tunnel, *matrix, *figure9, *loss],
        progress=lambda r: note(f"  {r.link}: {r.scheme} done"),
        jobs=cfg.jobs,
    )

    # Render, in report order.
    sections: List[str] = []
    figure7_data = Figure7Data(results=results_of(matrix)) if matrix else None
    if figure1_series is not None:
        sections.append(
            render_figure1(
                assemble_figure1(figure1_series(), duration=cfg.figure1_duration)
            )
        )
    if figure2_data is not None:
        sections.append(render_figure2(figure2_data))
    if figure7_data is not None and cfg.wants("figure7"):
        sections.append(render_figure7(figure7_data))
    if figure7_data is not None and cfg.wants("figure8"):
        sections.append(render_figure8(run_figure8(results=figure7_data.results)))
    if figure9:
        sections.append(render_figure9(assemble_figure9(results_of(figure9))))
    if figure7_data is not None and cfg.wants("tables"):
        sections.append(render_intro_table(intro_table(results=figure7_data.results)))
        sections.append(render_ewma_table(ewma_table(results=figure7_data.results)))
    if loss:
        sections.append(render_loss_table(assemble_loss_table(results_of(loss))))
    if tunnel:
        sections.append(render_competing(assemble_competing(results_of(tunnel))))
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
            )
            sections.append(render_grid(data))
            if len(grid_spec.parameters) > 1:
                sections.append(render_grid_frontiers(data))

    return "\n\n" + "\n\n".join(sections) + "\n"
