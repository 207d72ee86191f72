"""Tests for the batched cross-cell engine (docs/performance.md Layer 4).

Three layers of guarantees, mirroring how the engine is built:

* kernel bitwise identity — ``RateModel.batched_tick`` and
  ``RateModel.batched_cumulative_quantile`` must return rows *bitwise*
  equal to the per-cell methods, because the engine's whole correctness
  story rests on installs matching the serial computation exactly;
* forecaster install contract — an installed step only applies when the
  tick arrives with the predicted observation; any mismatch falls back to
  the serial computation (counted, never wrong);
* engine equivalence — ``run_cells(backend="batched")`` reproduces the
  serial engine bit-for-bit on the golden measurement matrix (Sprout cells
  batch, Vegas/Skype fall back per-cell), with the trace and model caches
  on or off, and composes with the ErrorPolicy fault paths.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.forecaster import BayesianForecaster
from repro.core.rate_model import clear_shared_models, model_cache, shared_rate_model
from repro.experiments.batched import _eligible_spec, _run_group, _try_build
from repro.experiments.parallel import BACKENDS, run_cells
from repro.experiments.policy import CellError, ErrorPolicy
from repro.experiments.registry import get_scheme, scheme_names
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import GridSpec, run_grid
from repro.traces.cache import global_cache

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_matrix.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def golden_cells(golden):
    config = RunConfig(**golden["run_config"])
    return [
        (scheme, link, config)
        for scheme in golden["schemes"]
        for link in golden["links"]
    ]


# ------------------------------------------------------- kernel bit identity


def _random_beliefs(n: int, bins: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    beliefs = rng.random((n, bins))
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    return beliefs


def test_batched_tick_bitwise_equals_serial_update():
    model = shared_rate_model()
    beliefs = _random_beliefs(7, model.params.num_bins, seed=11)
    packets = [None, 0.0, 3.0, 17.5, None, 140.0, 9.0]
    censored = [False, False, True, False, False, False, True]
    batched = model.batched_tick(beliefs, packets, censored)
    for i in range(len(packets)):
        if packets[i] is None:
            expected = model.evolve(beliefs[i])
        else:
            expected = model.update(beliefs[i], packets[i], censored=censored[i])
        assert np.array_equal(batched[i], expected), f"row {i} diverged"


def test_batched_tick_does_not_mutate_input():
    model = shared_rate_model()
    beliefs = _random_beliefs(3, model.params.num_bins, seed=12)
    before = beliefs.copy()
    model.batched_tick(beliefs, [None, 2.0, 8.0], [False, False, False])
    assert np.array_equal(beliefs, before)


def test_batched_cumulative_quantile_bitwise_equals_serial():
    model = shared_rate_model()
    beliefs = _random_beliefs(9, model.params.num_bins, seed=13)
    percentiles = [0.05] * 7 + [0.5, 0.95]
    batched = model.batched_cumulative_quantile(beliefs, percentiles)
    for i, percentile in enumerate(percentiles):
        expected = model.cumulative_quantile(beliefs[i], percentile)
        assert np.array_equal(batched[i], expected), f"row {i} diverged"


# -------------------------------------------------- forecaster install hook


def test_install_step_consumed_on_matching_tick():
    model = shared_rate_model()
    serial = BayesianForecaster(model=model)
    installed = BayesianForecaster(model=model)
    for observed in (3000.0, None, 15000.0):
        serial.tick(observed)
        packets = None if observed is None else observed / installed.mtu_bytes
        row = model.batched_tick(
            installed.belief[None, :], [packets], [False]
        )[0]
        installed.install_step(observed, False, row)
        installed.tick(observed)
    assert installed.batched_steps == 3
    assert installed.batched_fallbacks == 0
    assert np.array_equal(installed.belief, serial.belief)
    assert np.array_equal(installed.forecast(), serial.forecast())


def test_install_step_mismatch_falls_back_to_serial_math():
    model = shared_rate_model()
    reference = BayesianForecaster(model=model)
    forecaster = BayesianForecaster(model=model)
    reference.tick(4500.0)
    # Predict one observation, deliver another: the stale install must be
    # discarded and the tick recomputed serially.
    wrong_row = model.batched_tick(forecaster.belief[None, :], [1.0], [False])[0]
    forecaster.install_step(1500.0, False, wrong_row)
    forecaster.tick(4500.0)
    assert forecaster.batched_fallbacks == 1
    assert forecaster.batched_steps == 0
    assert np.array_equal(forecaster.belief, reference.belief)


# ------------------------------------------------------ eligibility screens


def test_only_plain_sprout_is_eligible():
    assert _eligible_spec(get_scheme("Sprout"))
    assert not _eligible_spec(get_scheme("Sprout-EWMA"))
    assert not _eligible_spec(get_scheme("Vegas"))
    assert not _eligible_spec(get_scheme("Skype"))
    codel_like = [
        name for name in scheme_names() if get_scheme(name).use_codel
    ]
    for name in codel_like:
        assert not _eligible_spec(get_scheme(name)), name


def test_try_build_rejects_ineligible_and_builds_sprout():
    config = RunConfig(duration=4.0, warmup=1.0)
    assert _try_build(0, "Vegas", "AT&T LTE uplink", config) is None
    cell = _try_build(0, "Sprout", "AT&T LTE uplink", config)
    assert cell is not None
    assert cell.scheme_name == "Sprout"
    assert isinstance(cell.forecaster, BayesianForecaster)


# ----------------------------------------------------- engine equivalence


def test_backend_name_is_validated():
    config = RunConfig(duration=4.0, warmup=1.0)
    with pytest.raises(ValueError, match="backend"):
        run_cells([("Sprout", "AT&T LTE uplink", config)], backend="bogus")
    assert "batched" in BACKENDS


def test_batched_backend_reproduces_golden_matrix_exactly(golden, golden_cells):
    """The acceptance bar: batched == serial on the golden fixture.

    The matrix mixes one batchable scheme (Sprout) with two fallback
    schemes (Vegas, Skype), so this exercises grouping, lockstep stepping,
    and the per-cell fallback in one run.
    """
    results = run_cells(golden_cells, backend="batched")
    assert [r.as_dict() for r in results] == golden["results"]


def test_batched_backend_matches_golden_with_caches_off(golden, golden_cells, monkeypatch):
    """Same fixture with the trace cache and model cache both disabled."""
    monkeypatch.setattr(global_cache(), "enabled", False)
    monkeypatch.setattr(model_cache(), "enabled", False)
    clear_shared_models()
    try:
        results = run_cells(golden_cells, backend="batched")
    finally:
        clear_shared_models()
    assert [r.as_dict() for r in results] == golden["results"]


def test_batched_grid_matches_serial_grid():
    """A loss × scale Sprout grid: every cell batches, none fall back."""
    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0, 0.01), (1.0, 0.6)),
        schemes=("Sprout",),
        links=("AT&T LTE uplink",),
    )
    config = RunConfig(duration=4.0, warmup=1.0)
    serial = run_grid(spec, config=config, jobs=1)
    batched = run_grid(spec, config=config, backend="batched")
    assert [r.as_dict() for p in batched.points for r in p.results] == [
        r.as_dict() for p in serial.points for r in p.results
    ]


def test_lockstep_driver_installs_every_tick():
    """White-box: on a plain Sprout cell the driver predicts every tick.

    A mis-prediction would only cost speed, but a healthy driver installs
    every receiver tick and never falls back; pin that so a regression in
    the pause/peek/install protocol is visible, not silently slow.
    """
    config = RunConfig(duration=4.0, warmup=1.0)
    cell = _try_build(0, "Sprout", "AT&T LTE uplink", config)
    assert cell is not None
    outcomes = []
    _run_group(
        [cell],
        record_success=lambda c: outcomes.append("ok"),
        record_failure=lambda c, e: outcomes.append(e),
    )
    assert outcomes == ["ok"]
    assert cell.forecaster.ticks_processed > 0
    assert cell.forecaster.batched_steps == cell.forecaster.ticks_processed
    assert cell.forecaster.batched_fallbacks == 0


# -------------------------------------------------- ErrorPolicy composition


@pytest.fixture()
def crash_index_one(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC", json.dumps([{"kind": "crash", "index": 1}])
    )


LOSS_CELLS = [
    ("Sprout", "AT&T LTE uplink", RunConfig(duration=4.0, warmup=1.0, loss_rate=loss))
    for loss in (0.0, 0.005, 0.01)
]


def test_batched_collect_records_cell_error_in_place(monkeypatch):
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC", json.dumps([{"kind": "crash", "index": 1}])
    )
    policy = ErrorPolicy(on_error="collect")
    results = run_cells(LOSS_CELLS, policy=policy, backend="batched")
    assert isinstance(results[1], CellError)
    assert results[1].error_type == "InjectedFault"
    monkeypatch.delenv("REPRO_FAULT_SPEC")
    clean = run_cells(LOSS_CELLS, backend="batched")
    assert results[0].as_dict() == clean[0].as_dict()
    assert results[2].as_dict() == clean[2].as_dict()


def test_batched_fail_fast_raises(crash_index_one):
    from repro.testing.faults import InjectedFault

    with pytest.raises(InjectedFault):
        run_cells(LOSS_CELLS, backend="batched")


def test_batched_retry_recovers_transient_crash(monkeypatch):
    # times=1: the fault fires on attempt 1 only; the serial retry (attempt
    # 2) runs clean, so the cell must come back with the correct metrics.
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC",
        json.dumps([{"kind": "crash", "index": 1, "times": 1}]),
    )
    policy = ErrorPolicy(on_error="retry", retries=1)
    results = run_cells(LOSS_CELLS, policy=policy, backend="batched")
    monkeypatch.delenv("REPRO_FAULT_SPEC")
    clean = run_cells(LOSS_CELLS, backend="batched")
    assert [r.as_dict() for r in results] == [r.as_dict() for r in clean]


def test_cell_timeout_routes_to_pooled_engine():
    """The in-process driver cannot preempt a cell; run_cells must hand
    timeout batches to the pooled fault-tolerant engine instead."""
    policy = ErrorPolicy(on_error="collect", cell_timeout=60.0)
    timed = run_cells(LOSS_CELLS, policy=policy, backend="batched")
    plain = run_cells(LOSS_CELLS, backend="batched")
    assert [r.as_dict() for r in timed] == [r.as_dict() for r in plain]
