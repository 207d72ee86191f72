"""Tests for the parallel experiment matrix runner.

The key property is bit-identical equivalence with the serial runner: the
parallel path must return the same ``SchemeResult`` rows, in the same
(scheme-major, link-minor) order, with exactly equal metrics.
"""

from __future__ import annotations

import pickle
from functools import partial

import pytest

from repro.baselines.base import AckingReceiver
from repro.baselines.vegas import VegasSender
from repro.experiments.parallel import _poolable, default_jobs, run_cells
from repro.experiments.registry import SchemeSpec, get_scheme
from repro.experiments.runner import RunConfig, run_scheme_on_link

SCHEMES_2 = ["Vegas", "Skype"]
LINKS_2 = ["AT&T LTE uplink", "Verizon LTE uplink"]


def matrix_cells(schemes, links, config):
    """The scheme-major, link-minor matrix as explicit cells."""
    return [(scheme, link, config) for scheme in schemes for link in links]


@pytest.fixture(scope="module")
def tiny_config() -> RunConfig:
    return RunConfig(duration=10.0, warmup=2.0)


@pytest.fixture(scope="module")
def serial_results(tiny_config):
    return [
        run_scheme_on_link(scheme, link, tiny_config)
        for scheme in SCHEMES_2
        for link in LINKS_2
    ]


def test_parallel_matches_serial_bit_identically(tiny_config, serial_results):
    parallel_results = run_cells(matrix_cells(SCHEMES_2, LINKS_2, tiny_config), jobs=4)
    assert len(parallel_results) == len(serial_results)
    for serial, parallel in zip(serial_results, parallel_results):
        # Same cell in the same position, and exactly equal metrics.
        assert (parallel.scheme, parallel.link) == (serial.scheme, serial.link)
        assert parallel.as_dict() == serial.as_dict()


def test_parallel_forwards_progress_per_result(tiny_config):
    seen = []
    results = run_cells(
        matrix_cells(SCHEMES_2, LINKS_2, tiny_config), progress=seen.append, jobs=2
    )
    assert len(seen) == len(results) == 4
    # Completion order may differ from matrix order, but the same cells
    # must be reported.
    assert sorted((r.scheme, r.link) for r in seen) == sorted(
        (r.scheme, r.link) for r in results
    )


def test_jobs_one_is_the_serial_path(tiny_config, serial_results):
    results = run_cells(matrix_cells(SCHEMES_2, LINKS_2, tiny_config), jobs=1)
    assert [r.as_dict() for r in results] == [r.as_dict() for r in serial_results]


def test_unpicklable_scheme_runs_locally(tiny_config):
    ad_hoc = SchemeSpec(
        name="Vegas (ad hoc)",
        factory=lambda: (VegasSender(), AckingReceiver()),
    )
    with pytest.raises(Exception):
        pickle.dumps(ad_hoc)
    results = run_cells(
        matrix_cells([ad_hoc, "Vegas"], LINKS_2[:1], tiny_config), jobs=2
    )
    assert [r.scheme for r in results] == ["Vegas (ad hoc)", "Vegas"]
    reference = run_scheme_on_link("Vegas", LINKS_2[0], tiny_config)
    assert results[0].throughput_bps == reference.throughput_bps
    assert results[1].as_dict() == reference.as_dict()


def test_poolable_sends_registry_specs_by_name():
    spec = get_scheme("Vegas")
    assert _poolable(spec) == "Vegas"
    assert _poolable("anything") == "anything"
    assert _poolable(SchemeSpec(name="x", factory=lambda: None)) is None


def test_jobs_validation(tiny_config):
    with pytest.raises(ValueError):
        run_cells(matrix_cells(SCHEMES_2, LINKS_2, tiny_config), jobs=-1)


def test_default_jobs_positive():
    assert default_jobs() >= 1


def test_shared_pool_exit_shuts_down_rebuilt_pool():
    """Kill→rebuild→context-exit leaves no orphaned worker processes.

    The fault-tolerant scheduler may kill and replace the shared pool in
    place mid-batch (``_PoolHost.rebuild``); the ``shared_pool()`` context
    exit must then shut down the *current* swapped-in pool, not the dead
    original it opened.
    """
    import time as _time

    from repro.experiments.parallel import _PoolHost, active_pool, shared_pool

    with shared_pool(2) as original:
        assert active_pool() is original
        host = _PoolHost(original, workers=2, shared=True)
        host.rebuild()
        replacement = host.pool
        assert replacement is not original
        # The swap is visible module-wide: later batches get the live pool.
        assert active_pool() is replacement
        # The replacement genuinely works.
        assert replacement.submit(int, "7").result(timeout=60) == 7
        workers = list(replacement._processes.values())
        assert workers
    # Context exit: no shared pool remains, the replacement is shut down
    # (no new work accepted) and its workers are reaped, not orphaned.
    assert active_pool() is None
    with pytest.raises(RuntimeError):
        replacement.submit(int, "8")
    deadline = _time.time() + 30
    for process in workers:
        process.join(max(0.0, deadline - _time.time()))
        assert not process.is_alive()


# ------------------------------------------------------------ plain tasks

TASKS = [partial(pow, 2, 5), partial(divmod, 7, 2), partial(int, "11")]


@pytest.mark.parametrize("jobs", [None, 1, 2])
def test_run_tasks_returns_results_in_task_order(jobs):
    from repro.experiments.parallel import run_tasks

    assert run_tasks(TASKS, jobs=jobs) == [32, (3, 1), 11]


def test_started_tasks_survive_a_batch_on_the_same_pool():
    import multiprocessing

    from repro.experiments.parallel import run_cells, shared_pool, start_tasks

    with shared_pool(2):
        collect = start_tasks(TASKS)
        # A batch on the same pool runs behind them, not instead of them.
        (cell,) = run_cells([("Vegas", LINKS_2[0], RunConfig(duration=6.0, warmup=1.0))])
        assert cell.scheme == "Vegas"
        assert collect() == [32, (3, 1), 11]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", [None, 2])
def test_a_failing_task_raises_from_the_collector_and_leaves_no_worker(jobs):
    import multiprocessing

    from repro.experiments.parallel import run_tasks

    with pytest.raises(ValueError, match="invalid literal"):
        run_tasks([partial(pow, 2, 5), partial(int, "eleven"), partial(pow, 2, 6)], jobs=jobs)
    assert multiprocessing.active_children() == []


# ------------------------------------------------- models built on demand
#
# Counts, not clocks: a cell builds the model its own Sprout needs, in the
# process that runs it; the parent of a pooled batch builds none, and no
# cell without a model makes a worker build one.

import hashlib
import multiprocessing
import os
import threading
from concurrent.futures import Future

from repro.core.connection import SproutConfig
from repro.core.rate_model import (
    RateModel,
    RateModelParams,
    clear_shared_models,
    model_cache,
)
from repro.experiments.exports import export_csv
from repro.experiments.parallel import active_pool, run_cells, shared_pool
from repro.experiments.policy import CellError, ErrorPolicy
from repro.experiments.registry import sprout_variant
from repro.experiments.sweeps import GridSpec, expand_grid, run_grid
from repro.metrics.summary import SchemeResult

#: a Sprout with a 32-bin model, swept over sigma
SMALL_SPROUT = sprout_variant(
    "Sprout-32", SproutConfig(model_params=RateModelParams(num_bins=32))
)
SIGMAS = (120.0, 160.0, 240.0)
MODEL_GRID = GridSpec(("sigma",), (SIGMAS,), (SMALL_SPROUT,), tuple(LINKS_2))
GRID_CONFIG = RunConfig(duration=4.0, warmup=1.0)
COLLECT = ErrorPolicy(on_error="collect")


def _grid_keys(sigmas=SIGMAS):
    return [f"{sigma:g}" for sigma in sigmas]


def _digest(data) -> str:
    # The CSV export: the JSON one wants registry scheme names in the spec.
    return hashlib.sha256(export_csv(data).encode("utf-8")).hexdigest()


@pytest.fixture
def build_log(tmp_path, monkeypatch):
    """Every ``_build_artifact`` call of the process tree, one line each.

    Patched before any pool exists, so forked workers inherit the wrapper,
    and with no model held in this process, so they inherit none either;
    one short ``O_APPEND`` write per build keeps concurrent lines whole.
    """
    clear_shared_models()
    model_cache().clear()
    path = tmp_path / "builds.log"
    path.touch()
    real = RateModel._build_artifact

    def logged(self):
        with open(path, "a") as handle:
            handle.write(f"{self.params.sigma:g}\n")
        if self.params.sigma in logged.poisoned:
            raise RuntimeError(f"poisoned build: sigma={self.params.sigma:g}")
        if self.params.sigma in logged.lethal_in_workers:
            if multiprocessing.parent_process() is not None:
                os._exit(1)
        return real(self)

    logged.poisoned = set()
    logged.lethal_in_workers = set()
    logged.keys = lambda: path.read_text().split()
    monkeypatch.setattr(RateModel, "_build_artifact", logged)
    yield logged
    clear_shared_models()
    model_cache().clear()


@pytest.fixture(scope="module")
def serial_grid_digest():
    return _digest(run_grid(MODEL_GRID, config=GRID_CONFIG, jobs=1))


def test_workers_build_their_own_models_and_the_parent_none(build_log, serial_grid_digest):
    """There is no disk tier to carry an artifact between processes: every
    worker builds what its own cells need, and the parent builds nothing."""
    cache = model_cache()
    parent_lookups = cache.stats.as_dict()
    data = run_grid(MODEL_GRID, config=GRID_CONFIG, jobs=2)
    assert _digest(data) == serial_grid_digest
    assert cache.stats.as_dict() == parent_lookups
    assert set(build_log.keys()) == set(_grid_keys())


def test_failed_build_surfaces_as_its_own_cells_errors(build_log):
    """A model that cannot be built fails exactly the cells that need it."""
    build_log.poisoned.add(160.0)
    with pytest.raises(RuntimeError, match="poisoned build: sigma=160"):
        run_grid(MODEL_GRID, config=GRID_CONFIG, jobs=2)

    data = run_grid(MODEL_GRID, config=GRID_CONFIG, jobs=2, policy=COLLECT)
    for point in data.points:
        for outcome in point.results:
            if point.coordinates == (160.0,):
                assert isinstance(outcome, CellError)
                assert outcome.error_type == "RuntimeError"
                assert "sigma=160" in outcome.message
            else:
                assert isinstance(outcome, SchemeResult)


@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_error_mid_batch_cancels_outstanding_cells(tiny_config, error):
    """An error in the parent mid-batch cancels the queued cells, reaps the
    batch's own pool and leaves a shared pool usable."""

    def explode():
        raise error("mid-batch")

    # The unpicklable cell runs in the parent right after the first window
    # (four cells on two workers) is submitted; eight more are queued.
    cells = matrix_cells(["Vegas", "Skype"] * 3, LINKS_2, tiny_config) + [
        (SchemeSpec(name="exploding", factory=explode), LINKS_2[0], tiny_config)
    ]
    threads_before = set(threading.enumerate())
    with pytest.raises(error, match="mid-batch"):
        run_cells(cells, jobs=2)
    assert multiprocessing.active_children() == []
    assert set(threading.enumerate()) <= threads_before

    with shared_pool(2):
        with pytest.raises(error, match="mid-batch"):
            run_cells(cells, jobs=2)
        assert active_pool().submit(int, "7").result(timeout=60) == 7
    assert multiprocessing.active_children() == []


def test_pooled_tcp_grid_builds_and_loads_no_model(build_log, tiny_config):
    """No cell reads a rate model, so no worker may build one."""
    cells = matrix_cells(["Cubic", "Vegas"], LINKS_2, tiny_config)
    run_cells(cells, jobs=2)
    with shared_pool(2):
        run_cells(cells)
    assert build_log.keys() == []


@pytest.mark.fault
@pytest.mark.parametrize("max_pool_rebuilds", [8, 0], ids=["rebuild", "serial-drain"])
def test_build_that_kills_its_worker_loses_no_cell(build_log, max_pool_rebuilds):
    """The first cell's model build takes its worker (and so the pool) down.
    With rebuilds to spend, the other cells run on the new pool and the
    lethal cell ends up quarantined to the parent; with none, the batch
    drains serially.  Either way every cell completes, bit-identical to the
    undisturbed serial run."""
    sigmas = (100.0, 120.0, 140.0, 160.0, 180.0, 240.0)
    wide = GridSpec(("sigma",), (sigmas,), (SMALL_SPROUT,), tuple(LINKS_2[:1]))
    cells = [("Vegas", LINKS_2[0], GRID_CONFIG)] + expand_grid(wide, GRID_CONFIG)
    reference = run_cells(cells, jobs=1)
    clear_shared_models()
    model_cache().clear()

    build_log.lethal_in_workers.add(100.0)
    policy = ErrorPolicy(on_error="collect", max_pool_rebuilds=max_pool_rebuilds)
    outcomes = run_cells(cells, jobs=2, policy=policy)
    assert [o.as_dict() for o in outcomes] == [r.as_dict() for r in reference]
    assert set(build_log.keys()) == set(_grid_keys(sigmas))
    assert multiprocessing.active_children() == []


# ------------------------------------------------- one engine, derived window
#
# Counts, not clocks: the scheduler runs against a stub executor that
# completes one task, inline, each time the engine waits.


class RecordingPool:
    """Counts what the engine keeps in flight; runs tasks when it waits."""

    def __init__(self):
        self.in_flight = []
        self.submitted = 0
        self.peak = 0

    def submit(self, fn, *args):
        future = Future()
        self.in_flight.append((future, fn, args))
        self.submitted += 1
        self.peak = max(self.peak, len(self.in_flight))
        return future

    def wait(self, futures, timeout=None, return_when=None):
        future, fn, args = self.in_flight.pop(0)
        try:
            future.set_result(fn(*args))
        except Exception as error:
            future.set_exception(error)
        return {future}, set(futures) - {future}


@pytest.fixture
def engine(monkeypatch):
    """``run(cells, policy)`` on a two-worker stub pool -> ``(pool, calls)``."""
    from repro.experiments import parallel

    def run(cells, policy):
        pool = RecordingPool()
        calls = []  # (cell index, tasks submitted so far) at each cell start

        def fake_cell(scheme, link, config, attempt=1, index=None):
            calls.append((index, pool.submitted))
            return SchemeResult(
                scheme=str(index),
                link=link,
                throughput_bps=0.0,
                delay_95_s=0.0,
                self_inflicted_delay_s=0.0,
                utilization=0.0,
            )

        monkeypatch.setattr(parallel, "_run_cell", fake_cell)
        monkeypatch.setattr(parallel, "wait", pool.wait)
        outcomes = {}
        parallel._run_indices_fault_tolerant(
            parallel._PoolHost(pool, workers=2, shared=True),
            cells,
            range(len(cells)),
            policy,
            outcomes.__setitem__,
        )
        assert sorted(outcomes) == list(range(len(cells)))
        return pool, calls

    return run


@pytest.mark.parametrize(
    "policy, window",
    [
        (ErrorPolicy(), 4),
        (ErrorPolicy(cell_timeout=60.0), 2),
        (COLLECT, 2),
        (ErrorPolicy(on_error="retry"), 2),
        (ErrorPolicy(on_error="collect", cell_timeout=60.0), 2),
    ],
    ids=["fail_fast", "fail_fast-timeout", "collect", "retry", "collect-timeout"],
)
def test_in_flight_window_is_derived_from_the_policy(engine, policy, window):
    """One task per worker wherever a deadline or a suspect list depends on
    it; a second queued behind each worker for plain fail-fast."""
    pool, _ = engine([("Vegas", LINKS_2[0], None)] * 12, policy)
    assert pool.submitted == 12
    assert pool.peak == window


@pytest.mark.parametrize("policy", [ErrorPolicy(), COLLECT], ids=["fail_fast", "collect"])
def test_unpicklable_cells_run_once_the_first_window_is_submitted(engine, policy):
    ad_hoc = SchemeSpec(name="ad hoc", factory=lambda: None)
    cells = [(ad_hoc, LINKS_2[0], None)] + [("Vegas", LINKS_2[0], None)] * 6
    pool, calls = engine(cells, policy)
    assert pool.submitted == 6  # the unpicklable cell never went to the pool
    # It ran first of all (nothing completes before the engine waits), with
    # a full window of pool work already out to overlap it.
    assert calls[0] == (0, pool.peak)
    assert pool.peak >= 2
