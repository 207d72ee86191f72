"""Tests for the figure-regeneration harnesses (small configurations)."""

import numpy as np
import pytest

from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure7 import Figure7Data, render_figure7, run_figure7
from repro.experiments.figure8 import render_figure8, run_figure8
from repro.experiments.figure9 import render_figure9, run_figure9
from repro.experiments.runner import RunConfig
from repro.metrics.summary import SchemeResult


@pytest.fixture(scope="module")
def tiny_config():
    return RunConfig(duration=15.0, warmup=5.0)


class TestFigure1:
    @pytest.fixture(scope="class")
    def data(self):
        return run_figure1(duration=20.0, schemes=("Skype", "Sprout-EWMA"))

    def test_capacity_series_covers_duration(self, data):
        assert data.capacity_times[-1] <= 20.0
        assert np.all(data.capacity_kbps >= 0)

    def test_each_scheme_has_series(self, data):
        assert set(data.schemes) == {"Skype", "Sprout-EWMA"}
        for series in data.schemes.values():
            assert series.throughput_kbps.shape == data.capacity_times.shape
            assert len(series.delay_ms) > 0

    def test_summary_and_render(self, data):
        summary = data.summary()
        assert "Skype" in summary
        text = render_figure1(data)
        assert "Figure 1" in text and "Skype" in text


class TestFigure2:
    @pytest.fixture(scope="class")
    def data(self):
        return run_figure2(duration=200.0)

    def test_survival_curve_is_monotone_decreasing(self, data):
        assert np.all(np.diff(data.survival_percent) <= 1e-9)
        assert data.survival_percent[0] > data.survival_percent[-1]

    def test_bulk_of_interarrivals_are_short(self, data):
        # The overwhelming majority of interarrivals are below 20 ms, as in
        # the paper's measurement (99.99% within 20 ms there).
        idx = int(np.searchsorted(data.thresholds, 0.020))
        assert data.survival_percent[idx] < 5.0

    def test_tail_exponent_reported(self, data):
        assert data.tail_exponent > 1.0 or np.isnan(data.tail_exponent)
        text = render_figure2(data)
        assert "power-law" in text

    def test_saturator_variant_runs(self):
        data = run_figure2(duration=30.0, use_saturator=True)
        assert data.stats.count > 0


class TestFigure7:
    @pytest.fixture(scope="class")
    def data(self, tiny_config):
        return run_figure7(
            schemes=("Sprout-EWMA", "Vegas"),
            links=("AT&T LTE uplink", "AT&T LTE downlink"),
            config=tiny_config,
        )

    def test_matrix_shape(self, data):
        assert len(data.results) == 4
        assert set(data.by_link()) == {"AT&T LTE uplink", "AT&T LTE downlink"}

    def test_for_link(self, data):
        rows = data.for_link("AT&T LTE uplink")
        assert {r.scheme for r in rows} == {"Sprout-EWMA", "Vegas"}

    def test_render(self, data):
        text = render_figure7(data)
        assert "AT&T LTE uplink" in text and "Vegas" in text


class TestFigure8:
    def test_reuses_existing_results(self):
        results = [
            SchemeResult("Sprout", "l1", 1e6, 0.1, 0.05, 0.5),
            SchemeResult("Cubic", "l1", 2e6, 2.0, 1.9, 0.9),
            SchemeResult("Vegas", "l1", 1e6, 0.3, 0.25, 0.6),  # not in Figure 8
        ]
        data = run_figure8(results=results)
        assert set(data.averages) == {"Sprout", "Cubic"}
        assert data.utilization_percent("Cubic") == pytest.approx(90.0)
        assert data.mean_delay_ms("Sprout") == pytest.approx(50.0)
        assert "Cubic" in render_figure8(data)


class TestFigure9:
    @pytest.fixture(scope="class")
    def data(self, tiny_config):
        return run_figure9(
            confidences=(0.95, 0.25),
            context_schemes=("Sprout-EWMA",),
            config=tiny_config,
        )

    def test_sweep_contains_requested_confidences(self, data):
        assert set(data.sweep) == {0.95, 0.25}
        assert data.frontier()[0].scheme == "Sprout (95%)"

    def test_lower_confidence_not_slower(self, data):
        cautious = data.sweep[0.95]
        bold = data.sweep[0.25]
        assert bold.throughput_bps >= 0.8 * cautious.throughput_bps

    def test_render(self, data):
        text = render_figure9(data)
        assert "confidence" in text.lower()
        assert "Sprout (95%)" in text
