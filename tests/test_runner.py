"""Tests for the experiment runner and its metric collection."""

import math

import numpy as np
import pytest

from repro.baselines.omniscient import omniscient_delay
from repro.cellsim.cellsim import build_cellsim, traces_for_link
from repro.experiments import runner
from repro.experiments.parallel import run_cells
from repro.experiments.registry import get_scheme
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import get_sweep_parameter
from repro.experiments.tables import loss_table
from repro.metrics.throughput import link_capacity_bps
from repro.traces.networks import get_link, link_trace


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(duration=0.0)
    with pytest.raises(ValueError):
        RunConfig(duration=10.0, warmup=10.0)
    with pytest.raises(ValueError):
        RunConfig(duration=10.0, warmup=-1.0)


def test_result_fields_are_consistent(sprout_lte_result):
    result = sprout_lte_result
    assert result.scheme == "Sprout"
    assert result.link == "Verizon LTE downlink"
    assert result.throughput_bps > 0
    assert not math.isnan(result.delay_95_s)
    assert result.self_inflicted_delay_s >= 0
    assert 0.0 <= result.utilization <= 1.0
    assert result.capacity_bps >= result.throughput_bps
    assert result.extra["packets_delivered"] > 0


def test_unknown_scheme_or_link_raise():
    with pytest.raises(KeyError):
        run_scheme_on_link("NotAScheme", "Verizon LTE downlink")
    with pytest.raises(KeyError):
        run_scheme_on_link("Sprout", "Not A Link")


def test_runs_are_deterministic(short_run_config):
    first = run_scheme_on_link("Vegas", "AT&T LTE uplink", short_run_config)
    second = run_scheme_on_link("Vegas", "AT&T LTE uplink", short_run_config)
    assert first.throughput_bps == pytest.approx(second.throughput_bps)
    assert first.self_inflicted_delay_s == pytest.approx(second.self_inflicted_delay_s)


def test_serial_cells_cover_all_pairs_in_order(short_run_config):
    pairs = [
        (scheme, link)
        for scheme in ("Vegas", "Skype")
        for link in ("AT&T LTE uplink", "T-Mobile 3G (UMTS) downlink")
    ]
    results = run_cells([(scheme, link, short_run_config) for scheme, link in pairs])
    assert [(r.scheme, r.link) for r in results] == pairs


def test_serial_cells_progress_callback(short_run_config):
    seen = []
    run_cells([("Vegas", "AT&T LTE uplink", short_run_config)], progress=seen.append)
    assert len(seen) == 1
    assert seen[0].scheme == "Vegas"


def test_loss_sweep_reduces_sprout_throughput(short_run_config):
    results = loss_table(
        "Sprout-EWMA", ["Verizon LTE downlink"], [0.0, 0.10], config=short_run_config
    ).rows["Verizon LTE downlink"]
    assert set(results) == {0.0, 0.10}
    assert results[0.10].throughput_bps < results[0.0].throughput_bps
    # Even at 10% loss the transfer keeps making useful progress.
    assert results[0.10].throughput_bps > 0.2 * results[0.0].throughput_bps


# ----------------------------------------------------- trace-baseline memo


@pytest.fixture
def omniscient_calls(monkeypatch):
    """An empty baseline memo and a log of the ``omniscient_delay`` calls behind it."""
    calls = []
    real = runner.omniscient_delay

    def counting(trace, **kwargs):
        calls.append(kwargs)
        return real(trace, **kwargs)

    runner._BASELINES.clear()
    monkeypatch.setattr(runner, "omniscient_delay", counting)
    yield calls
    runner._BASELINES.clear()


MEMO_LINK = "AT&T LTE uplink"
MEMO_CONFIG = RunConfig(duration=6.0, warmup=1.0)


def test_cells_on_one_trace_and_window_share_one_baseline(omniscient_calls):
    schemes = ("Vegas", "Skype", "LEDBAT", "Vegas")
    results = run_cells([(scheme, MEMO_LINK, MEMO_CONFIG) for scheme in schemes])
    assert len(omniscient_calls) == 1
    assert len({(r.capacity_bps, r.omniscient_delay_95_s) for r in results}) == 1
    # The memoised values are the ones computed straight from the trace.
    trace = link_trace(get_link(MEMO_LINK), MEMO_CONFIG.duration)
    assert results[-1].capacity_bps == link_capacity_bps(trace, 1.0, 6.0)
    assert results[-1].omniscient_delay_95_s == omniscient_delay(
        trace, propagation_delay=0.02, start_time=1.0, end_time=6.0
    )
    # ... and a memo hit changes no field of a result.
    assert results[3] == results[0]


def test_propagation_window_and_trace_each_get_their_own_baseline(omniscient_calls):
    base = ("Vegas", MEMO_LINK, MEMO_CONFIG)
    cells = [
        base,
        get_sweep_parameter("rtt").expand(*base, 0.1),
        get_sweep_parameter("scale").expand(*base, 0.5),
        ("Vegas", MEMO_LINK, RunConfig(duration=6.0, warmup=2.0)),
    ]
    results = run_cells(cells + cells)
    assert len(omniscient_calls) == 4
    assert len(runner._BASELINES) == 4
    assert [c["propagation_delay"] for c in omniscient_calls] == [0.02, 0.05, 0.02, 0.02]
    assert results[4:] == results[:4]
    baselines = {(r.capacity_bps, r.omniscient_delay_95_s) for r in results}
    assert len(baselines) == 4


def test_baseline_memo_is_keyed_on_trace_content(omniscient_calls):
    def collect(forward_trace):
        spec = get_scheme("Vegas")
        sim = build_cellsim(*spec.factory(), forward_trace, reverse_trace)
        sim.run(MEMO_CONFIG.duration)
        return runner.collect_metrics(sim, spec.name, MEMO_LINK, MEMO_CONFIG)

    forward_trace, reverse_trace = traces_for_link(get_link(MEMO_LINK), MEMO_CONFIG.duration)
    collect(forward_trace)
    collect(list(forward_trace))  # an equal copy hits
    assert len(omniscient_calls) == 1
    mutated = list(forward_trace)
    mutated[len(mutated) // 2] = math.nextafter(mutated[len(mutated) // 2], 0.0)
    collect(mutated)  # one opportunity moved by one ulp: a different trace
    assert len(omniscient_calls) == 2


def test_baseline_memo_is_bounded(omniscient_calls):
    cap = runner._BASELINES.max_entries
    assert cap < 20
    for n in range(20):
        trace = [0.01 * (n + 1) * k for k in range(1, 40)]
        memoised = runner._trace_baselines(
            np.asarray(trace, dtype=np.float64).tobytes(), 0.02, 0.0, 5.0
        )
        assert memoised == (
            link_capacity_bps(trace, 0.0, 5.0),
            omniscient_delay(trace, propagation_delay=0.02, start_time=0.0, end_time=5.0),
        )
        assert len(runner._BASELINES) <= cap
    assert len(omniscient_calls) == 20
    assert len(runner._BASELINES) == cap
