"""Tests for the inference fast path.

Covers the three equivalences the optimisation relies on:

* the production (bracket + window) forecast quantile matches the
  per-horizon reference loop exactly, and reproduces byte for byte the
  forecasts recorded at the commit before its dispatch-floor rewrite —
  on the Monte-Carlo tables of that commit, so the kernel and the tables
  are pinned separately;
* cached likelihood vectors are bit-identical to uncached computation,
  including the outage bin's special cases;
* the lazy forecast cache only recomputes when the belief changed.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from monte_carlo import model_with_tables, monte_carlo_cdfs
from repro.core.forecaster import BayesianForecaster
from repro.core.rate_model import RateModel, RateModelParams


def _random_beliefs(num_bins: int, count: int, seed: int = 20130419):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        belief = rng.random(num_bins)
        yield belief / belief.sum()


def _concentrated_beliefs(num_bins: int, count: int, seed: int = 7):
    """Gaussian-bump posteriors, some with extra outage-bin mass."""
    rng = np.random.default_rng(seed)
    grid = np.arange(num_bins)
    for i in range(count):
        center = rng.integers(0, num_bins)
        width = rng.uniform(1.0, num_bins / 8.0)
        belief = np.exp(-0.5 * ((grid - center) / width) ** 2)
        if i % 3 == 0:
            belief[0] += belief.sum() * rng.uniform(0.0, 1.0)
        yield belief / belief.sum()


def _point_mass(num_bins: int, index: int) -> np.ndarray:
    belief = np.zeros(num_bins)
    belief[index] = 1.0
    return belief


@pytest.fixture(scope="module")
def slow_tick_model() -> RateModel:
    """A 40 ms-tick model: another ``_max_count`` and coarse width."""
    return RateModel(RateModelParams(tick=0.040))


class TestForecastEquivalence:
    @pytest.mark.parametrize("percentile", [0.05, 0.25, 0.5, 0.95])
    def test_default_path_matches_loop(self, rate_model, percentile):
        beliefs = list(_random_beliefs(rate_model.params.num_bins, 50))
        beliefs += list(_concentrated_beliefs(rate_model.params.num_bins, 50))
        for belief in beliefs:
            loop = rate_model._cumulative_quantile_loop(belief, percentile)
            fast = rate_model.cumulative_quantile(belief, percentile)
            np.testing.assert_allclose(fast, loop, atol=1e-12)

    def test_equivalence_holds_for_partial_horizons(self, rate_model):
        belief = next(_random_beliefs(rate_model.params.num_bins, 1))
        for ticks in range(1, rate_model.params.forecast_ticks + 1):
            loop = rate_model._cumulative_quantile_loop(belief, 0.05, num_ticks=ticks)
            fast = rate_model.cumulative_quantile(belief, 0.05, num_ticks=ticks)
            assert len(fast) == ticks
            np.testing.assert_allclose(fast, loop, atol=1e-12)

    def test_equivalence_on_small_nondefault_model(self):
        params = RateModelParams(num_bins=32, max_rate=500.0, forecast_ticks=4)
        model = RateModel(params)
        for belief in _random_beliefs(32, 25):
            loop = model._cumulative_quantile_loop(belief, 0.05)
            fast = model.cumulative_quantile(belief, 0.05)
            np.testing.assert_allclose(fast, loop, atol=1e-12)


    @pytest.mark.parametrize("model_name", ["rate_model", "slow_tick_model"])
    def test_edge_beliefs_match_loop_exactly(self, request, model_name):
        """The cases random draws rarely reach: bracket 0, the short top
        window, extreme percentiles — at every partial horizon."""
        model = request.getfixturevalue(model_name)
        bins = model.params.num_bins
        beliefs = [
            _point_mass(bins, 0),
            _point_mass(bins, bins - 1),
            model.uniform_prior(),
        ]
        for belief in beliefs:
            for percentile in (0.001, 0.05, 0.5, 0.999):
                for ticks in range(1, model.params.forecast_ticks + 1):
                    loop = model._cumulative_quantile_loop(belief, percentile, ticks)
                    fast = model.cumulative_quantile(belief, percentile, ticks)
                    assert np.array_equal(fast, loop), (percentile, ticks)
        # The edge beliefs really sit in the edge brackets.
        assert model.cumulative_quantile(beliefs[0], 0.5)[-1] == 0
        top = model.cumulative_quantile(beliefs[1], 0.999)[-1]
        assert top > model._quantile_windows[-2][0]

    @pytest.mark.parametrize("model_name", ["rate_model", "slow_tick_model"])
    def test_kernel_matches_spec_on_a_belief_sweep(self, request, model_name):
        """A sweep wide enough to reach mixtures within one ulp of the
        percentile, where two BLAS summation orders would split the kernel
        from its spec (the spec once mixed the row layout and disagreed
        here on both models)."""
        model = request.getfixturevalue(model_name)
        bins = model.params.num_bins
        beliefs = list(_random_beliefs(bins, 500)) + list(_concentrated_beliefs(bins, 500))
        split = []
        for index, belief in enumerate(beliefs):
            for percentile in (0.001, 0.05, 0.25, 0.5, 0.95):
                for ticks in (1, 3, 8):
                    loop = model._cumulative_quantile_loop(belief, percentile, ticks)
                    fast = model.cumulative_quantile(belief, percentile, ticks)
                    if not np.array_equal(fast, loop):
                        split.append((index, percentile, ticks))
        assert split == []

    @pytest.mark.parametrize("ticks", [1, 5, 8])
    def test_result_is_a_fresh_writable_float64_array(self, rate_model, ticks):
        belief = rate_model.uniform_prior()
        first = rate_model.cumulative_quantile(belief, 0.05, num_ticks=ticks)
        assert first.dtype == np.float64 and first.shape == (ticks,)
        assert first.flags.writeable and first.flags.owndata
        first *= 1500  # callers scale it in place
        again = rate_model.cumulative_quantile(belief, 0.05, num_ticks=ticks)
        assert np.array_equal(again * 1500, first)

    @pytest.mark.parametrize("model_name", ["rate_model", "slow_tick_model"])
    def test_window_table_equals_the_bracket_formula(self, request, model_name):
        """Window ``k`` is the run of fine columns between coarse columns
        ``k - 1`` and ``k``: the exact row-slices of ``_cdf_cols[j]`` the
        kernel has always mixed, for every bracket the count can return."""
        model = request.getfixturevalue(model_name)
        stride, max_count = model._quantile_stride, model._max_count
        assert model._coarse_cols == -(-(max_count + 1) // stride)
        assert len(model._quantile_windows) == model._coarse_cols + 1
        for k, (lo, stop) in enumerate(model._quantile_windows):
            assert lo == max(0, (k - 1) * stride + 1)
            hi = min(k * stride, max_count) if k > 0 else 0
            assert stop == hi + 1
        assert len(model._cdf_col_blocks) == model.params.forecast_ticks
        for j, block in enumerate(model._cdf_col_blocks):
            assert np.shares_memory(block, model._cdf_cols[j])
            assert block.shape == (max_count + 1, model.params.num_bins)


#: sha256 of the default model's forecast tables at the parent of the
#: exact-table build: the Monte-Carlo sampler (``tests/monte_carlo.py``) at
#: its old seed and 4 000 paths
PARENT_TABLES_DIGEST = "076cc945c72659a0da197a0d6bd1df83b60731f4ad4c4b413ddfc8dc05af950f"

#: sha256 of 2 000 concatenated ``forecast()`` results per confidence,
#: recorded at the parent of the dispatch-floor rewrite (commit b2d1f93)
#: before any source line changed, on the Monte-Carlo tables above.  They
#: pin the kernel; nothing may move them.
PARENT_FORECAST_DIGESTS = {
    0.95: "e4187b0b07994068afe31fe3e17fb0a81e5a4b7cd6491643f54db3c6f7b5329a",
    0.75: "f6394b34d9f386929bceffe0575cc8c46ab889eeffe0145f83f1f4cd831755e3",
    0.5: "9b1ef1b4e4569b4543e5221b8b76cf93216d7b90dc7ecc3c930bfb6b3f04d684",
    0.25: "187626bad424aca867747471cc999e8e21244baa8ec4a99a324316f4025f1aff",
    0.05: "384dbe77db2a1b2d0674d4d5e006e9ee47b8affe983c24448adf54d0d556f371",
}

#: the same 2 000 ticks on the production (exact) tables.  They pin the
#: tables; a change that knowingly moves the tables re-records them.
EXACT_FORECAST_DIGESTS = {
    0.95: "7ddccb9bdbc4167d626ac43e1b27a4055a89a9d7e36ea0650c18bcad349564d4",
    0.75: "82649624a955136e291ca9029100595b812388976bc91437b5ac247cf702975e",
    0.5: "eb8812892aeb50036eae9cf4bf9417eb7c67100364030aec01e902a7ee808b79",
    0.25: "e2300df4929d5daffd4782f178857b59f4c7f7f98ce5487aa42db6b0309ba55d",
    0.05: "b77010bb7b80e691b4ae0e099850b4765032fcced3f1e373d31f94e7974453ad",
}


@pytest.fixture(scope="module")
def monte_carlo_model() -> RateModel:
    """The default model on the parent's Monte-Carlo tables."""
    params = RateModelParams()
    tables = monte_carlo_cdfs(RateModel(params))
    assert hashlib.sha256(tables.tobytes()).hexdigest() == PARENT_TABLES_DIGEST
    return model_with_tables(params, tables)


def _forecast_digest(model: RateModel, confidence: float) -> str:
    """One forecaster, 2 000 seeded ticks of a wandering rate with outages:
    exact, censored, skipped and annihilating observations mixed, the
    forecast read after every tick (it spans 0 to ~170 packets, so every
    coarse bracket in use is crossed)."""
    mtu = model.params.mtu_bytes
    rng = np.random.default_rng(22)
    forecaster = BayesianForecaster(confidence, model=model)
    digest = hashlib.sha256()
    rate = 5.0
    for _ in range(2000):
        rate = min(max(rate + rng.normal(0.0, 1.5), 0.0), 22.0)
        if rng.random() < 0.01:
            rate = 0.0
        whole = int(rng.poisson(rate)) * mtu
        partial = int(rng.integers(0, 2)) * int(rng.integers(0, mtu))
        arrived = float(whole + partial)
        draw = rng.random()
        if draw < 0.10:
            forecaster.tick(None)
        elif draw < 0.30:
            forecaster.tick(arrived, at_least=True)
        elif draw < 0.32:
            forecaster.tick(1e7)  # annihilates every bin: evolved prior kept
        else:
            forecaster.tick(arrived)
        digest.update(forecaster.forecast().tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("confidence", sorted(PARENT_FORECAST_DIGESTS))
def test_forecasts_reproduce_the_parent_commit(monte_carlo_model, confidence):
    """Binds the kernel to the parent's output, not to its siblings here."""
    assert _forecast_digest(monte_carlo_model, confidence) == PARENT_FORECAST_DIGESTS[confidence]


@pytest.mark.parametrize("confidence", sorted(EXACT_FORECAST_DIGESTS))
def test_forecasts_on_the_exact_tables(rate_model, confidence):
    """Binds the production tables, through the pinned kernel."""
    assert _forecast_digest(rate_model, confidence) == EXACT_FORECAST_DIGESTS[confidence]


class TestLikelihoodCache:
    @pytest.mark.parametrize("packets", [0.0, 1.0, 3.0, 8.0, 20.0])
    def test_observation_cache_exact_for_integer_counts(self, rate_model, packets):
        cached = rate_model.observation_likelihood(packets)
        uncached = rate_model._compute_likelihood(packets, censored=False)
        assert np.array_equal(cached, uncached)
        # Repeated lookups serve the identical (shared, read-only) vector.
        assert rate_model.observation_likelihood(packets) is cached

    @pytest.mark.parametrize("packets", [0.5, 0.1, 7.25, 751.0 / 1500.0])
    def test_observation_cache_exact_for_fractional_counts(self, rate_model, packets):
        cached_or_direct = rate_model.observation_likelihood(packets)
        uncached = rate_model._compute_likelihood(packets, censored=False)
        assert np.array_equal(cached_or_direct, uncached)

    @pytest.mark.parametrize("packets", [0.0, 1.0, 0.5, 6.0, 2.0 / 3.0])
    def test_censored_cache_exact(self, rate_model, packets):
        cached_or_direct = rate_model.censored_likelihood(packets)
        uncached = rate_model._compute_likelihood(packets, censored=True)
        assert np.array_equal(cached_or_direct, uncached)

    def test_outage_bin_special_cases(self, rate_model):
        # Exact observation: the outage bin can only ever produce zero.
        assert rate_model.observation_likelihood(0.0)[0] == 1.0
        assert rate_model.observation_likelihood(1.0)[0] == 0.0
        assert rate_model.observation_likelihood(0.5)[0] == 0.0
        # Censored: zero is a vacuous bound (all ones); any positive bound
        # rules the outage bin out entirely.
        assert np.all(rate_model.censored_likelihood(0.0) == 1.0)
        assert rate_model.censored_likelihood(1.0)[0] == 0.0
        assert rate_model.censored_likelihood(0.5)[0] == 0.0

    def test_cached_vectors_are_read_only(self, rate_model):
        cached = rate_model.observation_likelihood(4.0)
        with pytest.raises(ValueError):
            cached[0] = 123.0

    def test_off_grid_observations_bypass_the_cache(self, rate_model):
        # An observation not representable at 1-byte resolution must be
        # computed directly (and therefore stay writable).
        off_grid = 1e-5
        likelihood = rate_model.observation_likelihood(off_grid)
        assert likelihood.flags.writeable
        assert np.array_equal(
            likelihood, rate_model._compute_likelihood(off_grid, censored=False)
        )

    def test_negative_observations_still_rejected(self, rate_model):
        with pytest.raises(ValueError):
            rate_model.observation_likelihood(-1.0)
        with pytest.raises(ValueError):
            rate_model.censored_likelihood(-0.5)


class TestLazyForecast:
    def test_forecast_reused_until_next_tick(self, rate_model):
        forecaster = BayesianForecaster(model=rate_model)
        forecaster.tick(3000.0)
        calls = 0
        original = rate_model.cumulative_quantile

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        try:
            rate_model.cumulative_quantile = counting  # type: ignore[method-assign]
            first = forecaster.forecast()
            second = forecaster.forecast()
            assert calls == 1
            np.testing.assert_array_equal(first, second)
            forecaster.tick(3000.0)
            third = forecaster.forecast()
            assert calls == 2
            assert third.shape == first.shape
        finally:
            del rate_model.cumulative_quantile

    def test_forecast_returns_independent_copies(self, rate_model):
        forecaster = BayesianForecaster(model=rate_model)
        forecaster.tick(3000.0)
        first = forecaster.forecast()
        first[:] = -1.0
        second = forecaster.forecast()
        assert np.all(second >= 0.0)

    def test_observation_free_tick_invalidates_the_cache(self, rate_model):
        forecaster = BayesianForecaster(model=rate_model)
        forecaster.tick(6000.0)
        before = forecaster.forecast()
        for _ in range(20):
            forecaster.tick(None)
        after = forecaster.forecast()
        # Twenty unobserved ticks spread the belief; the cached forecast
        # must not be served stale.
        assert not np.array_equal(before, after)


def test_empirical_cdf_technique_matches_sort_searchsorted():
    """bincount+cumsum per row == the sort+searchsorted formulation."""
    rng = np.random.default_rng(3)
    rows, paths, grid = 17, 400, 31
    clipped = rng.integers(0, grid, size=(rows, paths))
    offsets = np.arange(rows)[:, None] * grid
    histogram = np.bincount((clipped + offsets).ravel(), minlength=rows * grid)
    fast = histogram.reshape(rows, grid).cumsum(axis=1) / paths
    count_grid = np.arange(grid)
    slow = np.apply_along_axis(
        np.searchsorted, 1, np.sort(clipped, axis=1), count_grid, side="right"
    ) / paths
    np.testing.assert_array_equal(fast, slow)
