"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Several
of them (Figure 7, Figure 8, both introduction tables) are different views
of the same measurement matrix — every scheme over every link — so that
matrix is run once per benchmark session and shared.

The benchmark durations are deliberately shorter than the paper's
~17-minute traces (60 s per run by default) so the whole harness finishes in
a few minutes; the qualitative comparisons are stable at this length.  Set
``REPRO_BENCH_DURATION`` to use longer traces.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.figure7 import Figure7Data, run_figure7
from repro.experiments.registry import INTRO_TABLE_SCHEMES
from repro.experiments.runner import RunConfig

#: trace length (seconds) used by every benchmark run
BENCH_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "60"))
#: warm-up excluded from metrics
BENCH_WARMUP = min(10.0, BENCH_DURATION / 4.0)
#: worker processes for the shared measurement matrix (1 = serial; the
#: results are identical either way, so parallelism is purely a time saver)
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(os.cpu_count() or 1)))


def pytest_collection_modifyitems(items) -> None:
    """Mark every benchmark as ``perf`` so ``-m "not perf"`` skips them."""
    for item in items:
        if "benchmarks" in str(item.fspath):
            item.add_marker(pytest.mark.perf)


@pytest.fixture(scope="session")
def bench_config() -> RunConfig:
    """Run configuration shared by all benchmarks."""
    return RunConfig(duration=BENCH_DURATION, warmup=BENCH_WARMUP)


@pytest.fixture(scope="session")
def measurement_matrix(bench_config) -> Figure7Data:
    """Every intro-table scheme over every modelled link, measured once."""
    return run_figure7(schemes=INTRO_TABLE_SCHEMES, config=bench_config, jobs=BENCH_JOBS)
