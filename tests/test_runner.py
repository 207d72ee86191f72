"""Tests for the experiment runner and its metric collection."""

import math

import pytest

from repro.experiments.parallel import run_cells
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.tables import loss_table


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
