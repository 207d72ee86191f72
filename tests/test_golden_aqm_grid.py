"""Golden-fixture suite for the queue-management grid (aqm × qlimit).

Mirrors ``test_golden_matrix.py`` for the scenario-grid layer: the exact
schema-v2 CSV and JSON bytes of a small ``aqm × qlimit × flows × tunnelled``
grid — the paper's Section 5.4/5.7 crossover, with per-flow metrics — are checked in
under ``tests/fixtures/`` and must be reproduced bit-for-bit by the serial
runner, the ``jobs=2`` process-pool runner, and a shared warmed pool.  Any
drift in queue construction, CoDel decisions, per-flow accounting, or the
export encoding shows up here as an exact-compare failure.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.exports import (
    export_csv,
    export_json,
    export_rows,
    grid_data_from_json,
    parse_csv,
)
from repro.experiments.parallel import shared_pool
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import GridSpec, expand_grid, run_grid

pytestmark = pytest.mark.golden

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_CSV = FIXTURES / "golden_aqm_grid.csv"
GOLDEN_JSON = FIXTURES / "golden_aqm_grid.json"

#: the frozen grid: both disciplines x {deep buffer, 30 kB} x the paper's
#: two-flow competing mix, direct and through the Sprout tunnel, per-flow
#: metrics on.  The direct cells are what the queue acts on: the tunnel
#: keeps its queue too short for CoDel or the 30 kB limit to drop anything.
GOLDEN_SPEC = GridSpec(
    parameters=("aqm", "qlimit", "flows", "tunnelled"),
    values=((0.0, 1.0), (0.0, 30000.0), (2.0,), (0.0, 1.0)),
    schemes=("Sprout",),
    links=("AT&T LTE uplink",),
)
GOLDEN_CONFIG = RunConfig(duration=6.0, warmup=1.0, per_flow=True)


@pytest.fixture(scope="module")
def grid_data():
    return run_grid(GOLDEN_SPEC, config=GOLDEN_CONFIG, jobs=1)


def test_csv_export_matches_golden_fixture(grid_data):
    assert export_csv(grid_data) == GOLDEN_CSV.read_text()


def test_json_export_matches_golden_fixture(grid_data):
    assert export_json(grid_data) == GOLDEN_JSON.read_text()


def test_parallel_grid_reproduces_golden_exactly():
    data = run_grid(GOLDEN_SPEC, config=GOLDEN_CONFIG, jobs=2)
    assert export_csv(data) == GOLDEN_CSV.read_text()
    assert export_json(data) == GOLDEN_JSON.read_text()


def test_shared_pool_grid_reproduces_golden_exactly():
    with shared_pool(2):
        data = run_grid(GOLDEN_SPEC, config=GOLDEN_CONFIG)
    assert export_csv(data) == GOLDEN_CSV.read_text()
    assert export_json(data) == GOLDEN_JSON.read_text()


def test_grid_cells_bit_identical_to_serial_single_cells(grid_data):
    """The acceptance bar: every aqm × qlimit cell equals the same cell run
    serially by hand through ``run_scheme_on_link`` — per-flow rows included."""
    cells = expand_grid(GOLDEN_SPEC, GOLDEN_CONFIG)
    assert len(cells) == len(grid_data.points)
    for cell, point in zip(cells, grid_data.points):
        reference = run_scheme_on_link(*cell)
        (row,) = point.results
        assert row.as_dict() == reference.as_dict()
        assert row.flows is not None and len(row.flows) >= 2


def test_golden_fixture_round_trips(grid_data):
    rows = parse_csv(GOLDEN_CSV.read_text())
    assert rows == export_rows(grid_data)
    rebuilt = grid_data_from_json(GOLDEN_JSON.read_text())
    assert rebuilt.spec == grid_data.spec
    for mine, theirs in zip(grid_data.points, rebuilt.points):
        assert [r.as_dict() for r in mine.results] == [
            r.as_dict() for r in theirs.results
        ]


def test_aqm_actually_changes_the_physics(grid_data):
    """Guard against the axis silently not reaching the queue: CoDel points
    must differ from the drop-tail points measured on the same trace."""
    drop_tail = grid_data.slice("aqm", 0.0)
    codel = grid_data.slice("aqm", 1.0)
    drop_tail_rows = [r.as_dict() for p in drop_tail for r in p.results]
    codel_rows = [r.as_dict() for p in codel for r in p.results]
    assert drop_tail_rows != codel_rows
