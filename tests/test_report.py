"""``generate_report``: one deduplicated batch, byte-identical text.

``tests/fixtures/golden_report.txt`` is the full nine-section report at the
small configuration below, generated serially on the commit *before* the
report became one pooled batch.  The report must reproduce it byte for byte
whatever ``jobs`` is, and — counts, not clocks — must do so by running every
distinct cell exactly once.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments import report
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.figure9 import FIGURE9_LINK, render_figure9, run_figure9
from repro.experiments.competing import competing_cells, render_competing
from repro.experiments.parallel import shared_pool
from repro.experiments.policy import cell_key
from repro.experiments.registry import sprout_with_confidence
from repro.experiments.report import ReportConfig, generate_report
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.tables import loss_table, render_loss_table, tunnel_table

GOLDEN = (Path(__file__).parent / "fixtures" / "golden_report.txt").read_text(
    encoding="utf-8"
)

#: the configuration the golden text was generated at
SMALL = dict(
    duration=8.0,
    warmup=2.0,
    figure1_duration=8.0,
    figure2_duration=40.0,
    tunnel_duration=12.0,
)
RUN = RunConfig(duration=SMALL["duration"], warmup=SMALL["warmup"])

#: ``include_sections`` name -> the header(s) it prints, in report order
HEADERS = {
    "figure1": ("Figure 1 —",),
    "figure2": ("Figure 2 —",),
    "figure7": ("Figure 7 —",),
    "figure8": ("Figure 8 —",),
    "figure9": ("Figure 9 —",),
    "tables": (
        "Introduction table — relative to Sprout\n",
        "Introduction table — relative to Sprout-EWMA\n",
    ),
    "loss": ("Section 5.6 —",),
    "tunnel": ("Section 5.7 —",),
}

TOP_LEVEL_NOTES = [
    "running Figure 1 (Skype vs Sprout time series)...",
    "running the Section 5.7 competing-traffic comparison...",
    "running Figure 2 (interarrival distribution)...",
    "running Figure 9 (confidence sweep)...",
    "running the Section 5.6 loss-resilience table...",
    "running the Figure 7 measurement matrix (all schemes x all links)...",
]


def golden_sections() -> dict:
    """The golden text cut at its section headers: header -> section text."""
    headers = [header for group in HEADERS.values() for header in group]
    starts = [GOLDEN.index("\n\n" + header) + 2 for header in headers]
    ends = [start - 2 for start in starts[1:]] + [len(GOLDEN) - 1]
    return {h: GOLDEN[s:e] for h, s, e in zip(headers, starts, ends)}


def expected_text(include_sections) -> str:
    """What the report prints for a subset of the golden's sections."""
    sections = golden_sections()
    wanted = [
        sections[header]
        for name, group in HEADERS.items()
        if name in include_sections
        for header in group
    ]
    return "\n\n" + "\n\n".join(wanted) + "\n"


@pytest.fixture
def work(monkeypatch):
    """Everything ``generate_report`` hands out: cell batches, plain tasks, notes."""
    seen = SimpleNamespace(batches=[], tasks=[], notes=[])
    run_cells, start_tasks = report.run_cells, report.start_tasks

    def counting_run_cells(cells, **kwargs):
        seen.batches.append(list(cells))
        return run_cells(cells, **kwargs)

    def counting_start_tasks(tasks):
        seen.tasks.extend(tasks)
        return start_tasks(tasks)

    monkeypatch.setattr(report, "run_cells", counting_run_cells)
    monkeypatch.setattr(report, "start_tasks", counting_start_tasks)
    return seen


def cell_notes(work) -> list:
    return [note for note in work.notes if note.startswith("  ")]


def test_golden_text_cuts_back_into_its_nine_sections():
    assert expected_text(HEADERS) == GOLDEN
    assert len(golden_sections()) == 9


@pytest.mark.golden
@pytest.mark.parametrize("jobs", [None, 1, 2, "outer pool"])
def test_full_report_is_the_golden_text_from_one_deduplicated_batch(work, jobs):
    if jobs == "outer pool":
        with shared_pool(2):
            text = generate_report(ReportConfig(**SMALL), progress=work.notes.append)
    else:
        text = generate_report(
            ReportConfig(**SMALL, jobs=jobs), progress=work.notes.append
        )
    assert text == GOLDEN
    # The Section 5.7 pair, then 80 matrix + 9 Figure 9 + 6 loss-table cells
    # of which 88 are distinct: the matrix already holds Figure 9's 95% point
    # and four context schemes on its link, and the loss table's two 0% cells.
    (batch,) = work.batches
    assert len(batch) == len({cell_key(cell) for cell in batch}) == 2 + 88
    assert batch[:2] == competing_cells(
        duration=SMALL["tunnel_duration"], warmup=report.TUNNEL_WARMUP
    )
    assert len(cell_notes(work)) == 90
    assert [task.func.__name__ for task in work.tasks] == ["_scheme_timeseries"] * 2
    assert [n for n in work.notes if not n.startswith("  ")] == TOP_LEVEL_NOTES
    assert multiprocessing.active_children() == []


@pytest.mark.golden
@pytest.mark.parametrize(
    "include_sections, cells, tasks",
    [
        (["figure9"], 9, 0),
        (["loss"], 6, 0),
        (["figure1"], 0, 2),
        (["figure1", "tunnel"], 2, 2),
        # 80 + Figure 9's four lower confidences + the four lossy cells
        (["figure7", "figure9", "loss"], 88, 0),
    ],
    ids=["figure9", "loss", "plain-tasks-only", "figure1+tunnel", "matrix+figure9+loss"],
)
def test_a_subset_runs_only_its_own_cells(work, include_sections, cells, tasks):
    text = generate_report(
        ReportConfig(**SMALL, include_sections=include_sections),
        progress=work.notes.append,
    )
    assert text == expected_text(include_sections)
    assert sum(len(batch) for batch in work.batches) == cells
    assert len(cell_notes(work)) == cells
    assert len(work.tasks) == tasks


def test_figure9_default_point_is_the_registry_sprout_cell():
    """Why Figure 9 may borrow the matrix's cell: same endpoints, other label."""
    variant = run_scheme_on_link(sprout_with_confidence(0.95), FIGURE9_LINK, RUN)
    registry = run_scheme_on_link("Sprout", FIGURE9_LINK, RUN)
    assert variant == replace(registry, scheme="Sprout (95%)")


@pytest.mark.golden
@pytest.mark.parametrize("jobs", [None, 2])
def test_stand_alone_drivers_print_the_reports_sections(jobs):
    """``repro figure 1|9`` / ``repro table loss|tunnel`` share the report's path."""
    sections = golden_sections()
    assert render_figure9(run_figure9(config=RUN, jobs=jobs)) == sections["Figure 9 —"]
    assert render_loss_table(loss_table(config=RUN, jobs=jobs)) == sections["Section 5.6 —"]
    figure1 = run_figure1(duration=SMALL["figure1_duration"], jobs=jobs)
    assert render_figure1(figure1) == sections["Figure 1 —"]
    tunnel = tunnel_table(duration=SMALL["tunnel_duration"], jobs=jobs)
    assert render_competing(tunnel) == sections["Section 5.7 —"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [None, 2])
def test_a_failing_plain_task_propagates_and_leaves_no_worker(jobs):
    config = ReportConfig(**SMALL, jobs=jobs, include_sections=["figure1", "loss", "tunnel"])
    config.figure1_duration = 0.0  # past the constructor's check
    with pytest.raises(ValueError, match="duration must be positive"):
        generate_report(config, progress=None)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [None, 2])
def test_a_too_short_tunnel_window_fails_with_tasks_queued_and_leaves_no_worker(jobs):
    config = ReportConfig(**SMALL, jobs=jobs, include_sections=["figure1", "loss", "tunnel"])
    config.tunnel_duration = 8.0  # past the constructor's check: §5.7 warms up for 10 s
    with pytest.raises(ValueError, match="warmup must be within"):
        generate_report(config, progress=None)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "field, overrides",
    [
        ("duration", dict(duration=0.0)),
        ("warmup", dict(warmup=-1.0)),
        ("warmup", dict(duration=8.0, warmup=8.0)),
        ("figure1_duration", dict(figure1_duration=0.0)),
        ("figure2_duration", dict(figure2_duration=-5.0)),
        ("tunnel_duration", dict(tunnel_duration=8.0)),
        ("tunnel_duration", dict(tunnel_duration=10.0)),
    ],
)
def test_report_config_rejects_impossible_windows_by_name(field, overrides):
    with pytest.raises(ValueError, match=f"^{field} must"):
        ReportConfig(**overrides)


def test_report_config_rejects_unknown_section_names_with_the_valid_list():
    with pytest.raises(ValueError, match="^include_sections must .*figure7.*'figure_7'"):
        ReportConfig(include_sections=["figure7", "figure_7"])
    assert ReportConfig(include_sections=list(report.SECTIONS)).wants("grids")


def test_report_command_reports_a_bad_window_as_a_usage_error(capsys):
    from repro.cli import main

    assert main(["report", "--duration", "8"]) == 2  # the default warm-up is 10 s
    assert "report error: warmup must be within" in capsys.readouterr().err
