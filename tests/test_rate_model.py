"""Tests for the discretized doubly-stochastic rate model."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monte_carlo import monte_carlo_cdfs
from repro.core.rate_model import RateModel, RateModelParams, shared_rate_model
from repro.experiments.analytic import sprout_forecast_moments


def test_default_parameters_match_paper(rate_model):
    params = rate_model.params
    assert params.num_bins == 256
    assert params.max_rate == 1000.0
    assert params.tick == pytest.approx(0.020)
    assert params.sigma == 200.0
    assert params.outage_escape_rate == 1.0
    assert params.forecast_ticks == 8


def test_parameter_validation():
    with pytest.raises(ValueError):
        RateModelParams(num_bins=1)
    with pytest.raises(ValueError):
        RateModelParams(tick=0.0)
    with pytest.raises(ValueError):
        RateModelParams(max_rate=1000.0, tick=1.0)  # 1000 packets per tick
    with pytest.raises(ValueError):
        RateModelParams(sigma=-1.0)
    with pytest.raises(ValueError):
        RateModelParams(forecast_ticks=0)


def test_rate_grid_spans_zero_to_max(rate_model):
    assert rate_model.rates[0] == 0.0
    assert rate_model.rates[-1] == 1000.0
    assert len(rate_model.rates) == 256


def test_transition_matrix_rows_sum_to_one(rate_model):
    sums = rate_model.transition.sum(axis=1)
    assert np.allclose(sums, 1.0)
    assert np.all(rate_model.transition >= 0.0)


def test_outage_state_is_sticky(rate_model):
    # From the outage bin, staying put is far more likely than from any
    # neighbouring bin (the lambda_z bias of Section 3.1).
    stay_from_outage = rate_model.transition[0, 0]
    stay_from_next = rate_model.transition[1, 1]
    assert stay_from_outage > 0.9
    assert stay_from_outage > 3 * stay_from_next


def test_uniform_prior_sums_to_one(rate_model):
    prior = rate_model.uniform_prior()
    assert prior.sum() == pytest.approx(1.0)
    assert np.all(prior == prior[0])


def test_evolution_preserves_probability(rate_model):
    belief = rate_model.uniform_prior()
    for _ in range(10):
        belief = rate_model.evolve(belief)
        assert belief.sum() == pytest.approx(1.0)


def test_evolution_spreads_a_point_mass(rate_model):
    belief = np.zeros(256)
    belief[128] = 1.0
    evolved = rate_model.evolve(belief)
    assert evolved[128] < 1.0
    assert (evolved > 0).sum() > 5


def test_observation_likelihood_peaks_near_observed_rate(rate_model):
    # Observing 6 packets in a 20 ms tick suggests roughly 300 packets/s.
    likelihood = rate_model.observation_likelihood(6.0)
    best = rate_model.rates[int(np.argmax(likelihood))]
    assert 250 <= best <= 350


def test_observation_of_zero_favours_outage(rate_model):
    likelihood = rate_model.observation_likelihood(0.0)
    assert likelihood[0] == pytest.approx(1.0)
    assert likelihood[-1] < likelihood[0]


def test_zero_rate_cannot_produce_packets(rate_model):
    likelihood = rate_model.observation_likelihood(3.0)
    assert likelihood[0] == 0.0


def test_negative_observation_rejected(rate_model):
    with pytest.raises(ValueError):
        rate_model.observation_likelihood(-1.0)


def test_update_concentrates_belief_on_true_rate(rate_model):
    rng = np.random.default_rng(0)
    belief = rate_model.uniform_prior()
    true_rate = 400.0
    for _ in range(200):
        observed = rng.poisson(true_rate * rate_model.params.tick)
        belief = rate_model.update(belief, float(observed))
    estimate = rate_model.expected_rate(belief)
    assert estimate == pytest.approx(true_rate, rel=0.15)


def test_censored_update_never_reduces_rate_estimate(rate_model):
    belief = rate_model.uniform_prior()
    for _ in range(50):
        belief = rate_model.update(belief, 8.0)  # exact obs: ~400 pkt/s
    before = rate_model.expected_rate(belief)
    # A sender-limited tick showing only 1 packet must not drag the belief
    # down the way an exact observation of 1 packet would.
    censored = rate_model.update(belief, 1.0, censored=True)
    exact = rate_model.update(belief, 1.0, censored=False)
    assert rate_model.expected_rate(censored) > rate_model.expected_rate(exact)
    assert rate_model.expected_rate(censored) == pytest.approx(before, rel=0.2)


def test_censored_likelihood_rules_out_slower_rates(rate_model):
    likelihood = rate_model.censored_likelihood(6.0)
    # Rates far below the observed drain are (almost) ruled out; rates above
    # remain fully plausible.
    slow = likelihood[np.searchsorted(rate_model.rates, 50.0)]
    fast = likelihood[np.searchsorted(rate_model.rates, 800.0)]
    assert slow < 0.05
    assert fast > 0.95


def test_update_survives_enormous_observation(rate_model):
    belief = rate_model.uniform_prior()
    updated = rate_model.update(belief, 1e6)
    assert np.isfinite(updated).all()
    assert updated.sum() == pytest.approx(1.0)


def test_forecast_monotone_and_scaled_with_rate(rate_model):
    low = np.zeros(256)
    low[np.searchsorted(rate_model.rates, 150.0)] = 1.0
    high = np.zeros(256)
    high[np.searchsorted(rate_model.rates, 800.0)] = 1.0

    low_forecast = rate_model.cumulative_quantile(low, 0.05)
    high_forecast = rate_model.cumulative_quantile(high, 0.05)

    assert np.all(np.diff(low_forecast) >= 0)
    assert np.all(np.diff(high_forecast) >= 0)
    assert high_forecast[-1] > low_forecast[-1]


def test_forecast_is_cautious_below_the_mean(rate_model):
    belief = np.zeros(256)
    rate = 500.0
    belief[np.searchsorted(rate_model.rates, rate)] = 1.0
    forecast = rate_model.cumulative_quantile(belief, 0.05)
    expected_mean = rate * rate_model.params.tick * rate_model.params.forecast_ticks
    assert forecast[-1] < expected_mean
    assert forecast[-1] > 0.4 * expected_mean


def test_lower_percentile_means_more_caution(rate_model):
    belief = np.zeros(256)
    belief[np.searchsorted(rate_model.rates, 400.0)] = 1.0
    cautious = rate_model.cumulative_quantile(belief, 0.05)
    median = rate_model.cumulative_quantile(belief, 0.50)
    bold = rate_model.cumulative_quantile(belief, 0.95)
    assert cautious[-1] <= median[-1] <= bold[-1]
    assert cautious[-1] < bold[-1]


def test_forecast_percentile_validation(rate_model):
    belief = rate_model.uniform_prior()
    with pytest.raises(ValueError):
        rate_model.cumulative_quantile(belief, 0.0)
    with pytest.raises(ValueError):
        rate_model.cumulative_quantile(belief, 1.0)
    with pytest.raises(ValueError):
        rate_model.cumulative_quantile(belief, 0.05, num_ticks=9)


def test_shared_model_is_memoised():
    assert shared_rate_model() is shared_rate_model()


def test_custom_model_small_grid_builds_quickly():
    params = RateModelParams(num_bins=32, max_rate=500.0, forecast_ticks=4)
    model = RateModel(params)
    assert model.transition.shape == (32, 32)
    forecast = model.cumulative_quantile(model.uniform_prior(), 0.05)
    assert len(forecast) == 4


# ------------------------------------------------- the forecast tables (§3.3)
#
# The tables are the model's own distribution evolved exactly, so they are
# held to the model itself: to what a CDF is, to the orderings the chain
# implies, to its closed-form moments, and to a sampler of the same dynamics.


def _assert_tables_are_ordered_cdfs(tables: np.ndarray) -> None:
    """Zero tolerance: each row is a CDF (non-decreasing in ``n``, ending at
    exactly 1), and the tables are non-increasing in the horizon ``j`` and
    in the start bin ``i`` — more ticks and a faster start deliver more."""
    assert tables.dtype == np.float32
    assert np.all(tables[:, :, -1] == 1.0)
    assert not np.any(np.diff(tables, axis=2) < 0)
    assert not np.any(np.diff(tables, axis=0) > 0)
    assert not np.any(np.diff(tables, axis=1) > 0)
    # No entry is a sub-2**-24 tail: those are stored as exactly 0.
    assert not np.any((tables > 0) & (tables < 2.0**-24))


@settings(max_examples=25, deadline=None)
@given(
    num_bins=st.integers(min_value=2, max_value=256),
    max_rate=st.floats(min_value=50.0, max_value=1500.0),
    tick=st.floats(min_value=0.005, max_value=0.05),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=600.0)),
    outage_escape_rate=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=20.0)),
    forecast_ticks=st.integers(min_value=1, max_value=8),
)
@example(num_bins=256, max_rate=1000.0, tick=0.02, sigma=0.0, outage_escape_rate=1.0, forecast_ticks=8)
@example(num_bins=256, max_rate=1000.0, tick=0.02, sigma=200.0, outage_escape_rate=0.0, forecast_ticks=8)
@example(num_bins=32, max_rate=1000.0, tick=0.02, sigma=200.0, outage_escape_rate=1.0, forecast_ticks=8)
@example(num_bins=256, max_rate=1000.0, tick=0.04, sigma=200.0, outage_escape_rate=1.0, forecast_ticks=8)
def test_tables_are_ordered_cdfs(**fields):
    model = RateModel(RateModelParams(**fields))
    _assert_tables_are_ordered_cdfs(model.cumulative_cdfs)


def test_default_tables_are_ordered_cdfs(rate_model):
    _assert_tables_are_ordered_cdfs(rate_model.cumulative_cdfs)


def test_interior_tables_have_the_models_moments(rate_model):
    """Away from the grid's edges the chain is a discretely sampled Brownian
    rate, so ``n`` ticks from rate ``r`` deliver ``r tau n`` packets on
    average, with variance ``r tau n + sigma^2 tau^3 n(n+1)(2n+1)/6`` —
    the closed form of :func:`sprout_forecast_moments` plus its
    discrete-tick correction ``sigma^2 tau^3 (n^2/2 + n/6)``."""
    params = rate_model.params
    tau, sigma = params.tick, params.sigma
    interior = slice(64, 193)
    counts = np.arange(rate_model._max_count + 1)
    for j, tables in enumerate(rate_model.cumulative_cdfs):
        n = j + 1
        cdf = tables[interior].astype(np.float64)
        pmf = np.diff(cdf, axis=1, prepend=0.0)
        mean = pmf @ counts
        variance = pmf @ counts**2 - mean**2
        for rate, got_mean, got_variance in zip(rate_model.rates[interior], mean, variance):
            want_mean, want_variance = sprout_forecast_moments(rate, params, n)
            want_variance += sigma**2 * tau**3 * (n * n / 2.0 + n / 6.0)
            assert got_mean == pytest.approx(want_mean, rel=1e-4)
            assert got_variance == pytest.approx(want_variance, rel=1e-2)


def test_tables_converge_to_the_monte_carlo_sampler():
    """The old sampler of the same dynamics converges on the tables: every
    row outside the near-outage bins lies inside the Bonferroni-corrected
    DKW band, and the sup-norm shrinks as the paths grow.  Near outage the
    two differ by design: the sampler snaps rates in ``[0, spacing/2)`` to
    the outage state while the chain gives bin 0 a whole bin of Gaussian
    mass, and the tables side with the chain the belief evolves with."""
    params = RateModelParams(num_bins=64, max_rate=500.0, forecast_ticks=4)
    model = RateModel(params)
    one_tick = params.sigma * math.sqrt(params.tick)
    first = int(math.ceil(2.0 * one_tick / model.rates[1]))  # two one-tick sigmas
    kept = model.cumulative_cdfs[:, first:]
    rows = kept.shape[0] * kept.shape[1]
    sup_norms = []
    for paths in (1000, 4000, 16000):
        sampled = monte_carlo_cdfs(model, paths=paths)[:, first:]
        distance = np.abs(sampled - kept).max(axis=2)
        band = math.sqrt(math.log(2.0 * rows / 0.05) / (2.0 * paths))
        assert np.all(distance <= band), (paths, float(distance.max()), band)
        sup_norms.append(float(distance.max()))
    assert sup_norms == sorted(sup_norms, reverse=True)
