"""Golden-trace regression suite for the measurement matrix.

``tests/fixtures/golden_matrix.json`` is a frozen-seed scheme × link matrix
result checked in at the time the trace cache and batched event loop were
introduced, produced by the plain serial runner.  Any code change that
perturbs a simulation bit — trace generation, event ordering, queueing,
metrics — shows up here as an exact-compare failure, under both the serial
runner and the process-pool runner, so the fast paths can never drift from
the reference physics unnoticed.

JSON floats round-trip exactly through ``repr`` (IEEE-754 doubles), so the
comparison really is bit-for-bit, not approximate.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.parallel import run_cells, shared_pool
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.traces.cache import global_cache

pytestmark = pytest.mark.golden

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_matrix.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def run_config(golden) -> RunConfig:
    return RunConfig(**golden["run_config"])


@pytest.fixture(scope="module")
def cells(golden, run_config) -> list:
    return [
        (scheme, link, run_config)
        for scheme in golden["schemes"]
        for link in golden["links"]
    ]


def test_fixture_shape(golden):
    assert golden["schemes"] and golden["links"]
    expected_cells = len(golden["schemes"]) * len(golden["links"])
    assert len(golden["results"]) == expected_cells
    for row in golden["results"]:
        assert set(row) >= {
            "scheme",
            "link",
            "throughput_bps",
            "delay_95_s",
            "self_inflicted_delay_s",
            "utilization",
        }


def test_serial_matrix_reproduces_golden_results_exactly(golden, cells):
    results = [run_scheme_on_link(*cell) for cell in cells]
    assert [r.as_dict() for r in results] == golden["results"]


def test_parallel_matrix_reproduces_golden_results_exactly(golden, cells):
    results = run_cells(cells, jobs=2)
    assert [r.as_dict() for r in results] == golden["results"]


def test_shared_pool_matrix_reproduces_golden_results_exactly(golden, cells):
    with shared_pool(2):
        results = run_cells(cells)
    assert [r.as_dict() for r in results] == golden["results"]


def test_golden_results_independent_of_trace_cache(golden, cells, monkeypatch):
    """With the cache disabled entirely, the physics must not move."""
    cache = global_cache()
    monkeypatch.setattr(cache, "enabled", False)
    results = run_cells(cells, jobs=1)
    assert [r.as_dict() for r in results] == golden["results"]
