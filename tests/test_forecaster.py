"""Tests for the Bayesian and EWMA forecasters."""

import time

import numpy as np
import pytest

from repro.core.forecaster import BayesianForecaster, EWMAForecaster


class TestBayesianForecaster:
    def test_defaults_match_paper(self):
        forecaster = BayesianForecaster()
        assert forecaster.confidence == 0.95
        assert forecaster.percentile == pytest.approx(0.05)
        assert forecaster.tick_duration == pytest.approx(0.020)
        assert forecaster.forecast_ticks == 8

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            BayesianForecaster(confidence=0.0)
        with pytest.raises(ValueError):
            BayesianForecaster(confidence=1.0)

    def test_tracks_steady_rate(self):
        rng = np.random.default_rng(0)
        forecaster = BayesianForecaster()
        true_rate_pps = 400.0
        for _ in range(300):
            packets = rng.poisson(true_rate_pps * 0.02)
            forecaster.tick(packets * 1500.0)
        estimate_pps = forecaster.estimated_rate_bytes_per_sec() / 1500.0
        assert estimate_pps == pytest.approx(true_rate_pps, rel=0.15)

    def test_forecast_is_cumulative_bytes(self):
        rng = np.random.default_rng(1)
        forecaster = BayesianForecaster()
        for _ in range(300):
            forecaster.tick(rng.poisson(8.0) * 1500.0)
        forecast = forecaster.forecast()
        assert len(forecast) == 8
        assert np.all(np.diff(forecast) >= 0)
        assert forecast[-1] > 0
        # Cautious: below the expected 8 packets/tick * 8 ticks.
        assert forecast[-1] < 8 * 8 * 1500

    def test_skipping_observations_diffuses_but_keeps_probability(self):
        forecaster = BayesianForecaster()
        for _ in range(100):
            forecaster.tick(6 * 1500.0)
        before = forecaster.estimated_rate_bytes_per_sec()
        for _ in range(20):
            forecaster.tick(None)
        after = forecaster.estimated_rate_bytes_per_sec()
        assert forecaster.belief.sum() == pytest.approx(1.0)
        # Without observations the estimate drifts but does not collapse.
        assert after > 0.3 * before

    def test_observing_zero_detects_outage(self):
        forecaster = BayesianForecaster()
        for _ in range(100):
            forecaster.tick(6 * 1500.0)
        for _ in range(25):
            forecaster.tick(0.0)
        assert forecaster.estimated_rate_bytes_per_sec() / 1500.0 < 50.0
        assert np.all(forecaster.forecast()[:2] < 2 * 1500)

    def test_censored_tick_does_not_drag_estimate_down(self):
        forecaster = BayesianForecaster()
        for _ in range(200):
            forecaster.tick(8 * 1500.0)
        before = forecaster.estimated_rate_bytes_per_sec()
        for _ in range(20):
            forecaster.tick(1 * 1500.0, at_least=True)
        after = forecaster.estimated_rate_bytes_per_sec()
        assert after > 0.7 * before

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            BayesianForecaster().tick(-1.0)

    def test_counters(self):
        forecaster = BayesianForecaster()
        forecaster.tick(1500.0)
        forecaster.tick(None)
        forecaster.tick(0.0)
        assert forecaster.ticks_processed == 3
        assert forecaster.observations == 2

    def test_rate_distribution_is_a_copy(self):
        forecaster = BayesianForecaster()
        dist = forecaster.rate_distribution()
        dist[:] = 0.0
        assert forecaster.belief.sum() == pytest.approx(1.0)

    def test_sustains_the_per_tick_loop_far_above_real_time(self, rate_model):
        """A catastrophic-regression floor, not a measurement: the receiver's
        20 ms loop (one update, one cautious forecast) under saturator-like
        traffic.  The repo benchmark's ``forecaster.*`` rows carry the
        numbers; this floor sits several times under any of them."""
        forecaster = BayesianForecaster(model=rate_model)
        rng = np.random.default_rng(20130419)
        # An integer number of MTU-sized packets per tick around 400
        # packets/s, the regime of the paper's cellular traces.
        observations = rng.poisson(8.0, size=4200) * 1500.0
        for observed in observations[:200]:  # converge the belief
            forecaster.tick(observed)
            forecaster.forecast()
        start = time.perf_counter()
        for observed in observations[200:]:
            forecaster.tick(observed)
            forecaster.forecast()
        assert 4000 / (time.perf_counter() - start) > 1500


class TestEWMAForecaster:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EWMAForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            EWMAForecaster(alpha=1.5)
        with pytest.raises(ValueError):
            EWMAForecaster(tick_duration=0.0)
        with pytest.raises(ValueError):
            EWMAForecaster(forecast_ticks=0)

    def test_first_observation_initialises_estimate(self):
        forecaster = EWMAForecaster()
        forecaster.tick(3000.0)
        assert forecaster.bytes_per_tick == 3000.0

    def test_converges_to_steady_rate(self):
        forecaster = EWMAForecaster(alpha=0.125)
        for _ in range(200):
            forecaster.tick(4500.0)
        assert forecaster.bytes_per_tick == pytest.approx(4500.0, rel=0.01)
        assert forecaster.estimated_rate_bytes_per_sec() == pytest.approx(225000.0, rel=0.01)

    def test_forecast_extrapolates_linearly_without_caution(self):
        forecaster = EWMAForecaster()
        for _ in range(100):
            forecaster.tick(3000.0)
        forecast = forecaster.forecast()
        assert np.allclose(forecast, 3000.0 * np.arange(1, 9), rtol=0.01)

    def test_skipped_ticks_do_not_change_estimate(self):
        forecaster = EWMAForecaster()
        forecaster.tick(3000.0)
        forecaster.tick(None)
        assert forecaster.bytes_per_tick == 3000.0

    def test_censored_lower_observation_ignored(self):
        forecaster = EWMAForecaster()
        for _ in range(50):
            forecaster.tick(6000.0)
        forecaster.tick(100.0, at_least=True)
        assert forecaster.bytes_per_tick == pytest.approx(6000.0, rel=0.01)

    def test_censored_higher_observation_still_raises_estimate(self):
        forecaster = EWMAForecaster()
        forecaster.tick(1000.0)
        forecaster.tick(5000.0, at_least=True)
        assert forecaster.bytes_per_tick > 1000.0

    def test_reacts_to_rate_drop_slower_than_sudden(self):
        forecaster = EWMAForecaster(alpha=0.125)
        for _ in range(100):
            forecaster.tick(6000.0)
        forecaster.tick(0.0)
        # A single zero only nudges the low-pass filter (Section 5.3's point
        # about EWMA not responding immediately to sudden rate reductions).
        assert forecaster.bytes_per_tick > 5000.0


class TestTickFromWallClock:
    """The wall-clock adapter that drives 20 ms ticks from real elapsed time."""

    def _ticker(self, tick=0.020, max_catchup=8):
        from repro.core.forecaster import TickFromWallClock

        return TickFromWallClock(tick, max_catchup=max_catchup)

    def test_first_call_anchors_the_lattice(self):
        ticker = self._ticker()
        assert ticker.due_ticks(10.0) == 0  # anchoring consumes the call
        assert ticker.due_ticks(10.019) == 0
        assert ticker.due_ticks(10.021) == 1

    def test_ticks_accumulate_with_elapsed_time(self):
        ticker = self._ticker()
        ticker.due_ticks(0.0)
        assert ticker.due_ticks(0.100) == 5
        assert ticker.due_ticks(0.100) == 0  # already consumed
        assert ticker.due_ticks(0.140) == 2
        assert ticker.ticks_fired == 7

    def test_catchup_is_bounded_after_a_stall(self):
        ticker = self._ticker(max_catchup=8)
        ticker.due_ticks(0.0)
        # A 1-second GC pause owes 50 ticks; only 8 fire, the rest are
        # dropped (counted) so the protocol never spirals through a burst
        # of stale ticks.
        assert ticker.due_ticks(1.0) == 8
        assert ticker.ticks_skipped == 42
        assert ticker.due_ticks(1.02) == 1

    def test_next_deadline_tracks_the_lattice(self):
        ticker = self._ticker()
        assert ticker.next_deadline() is None  # not anchored yet
        ticker.due_ticks(5.0)
        assert ticker.next_deadline() == pytest.approx(5.020)
        ticker.due_ticks(5.050)  # fires 2
        assert ticker.next_deadline() == pytest.approx(5.060)
