"""Correctness of the one rate-model memo behind :func:`shared_rate_model`.

``RateModel(params)`` always builds; memoised and freshly built models are
**bit-identical** (same array values, dtypes, everything the forecast can
observe); a memo hit hands back the one shared instance, whose arrays are
frozen; and the memo does not thrash on sweeps wider than the old
hard-wired eight entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rate_model import (
    RateModel,
    RateModelParams,
    clear_shared_models,
    model_cache,
    shared_rate_model,
)

#: small, fast-to-build, *non-default* parameters used throughout
SMALL = RateModelParams(num_bins=16, max_rate=200.0, sigma=120.0, forecast_ticks=3)

#: the arrays (by RateModel attribute) one artifact must restore exactly
ARRAY_ATTRS = ("transition", "cumulative_cdfs", "_cdf_cols", "_cdf_coarse")


@pytest.fixture
def scoped_cache():
    """The process-wide model memo, empty and with fresh counters."""
    from repro.cache import CacheStats

    cache = model_cache()
    saved = (cache.enabled, cache.stats)
    cache.enabled = True
    cache.stats = CacheStats()  # fresh counters per test
    cache.clear()
    yield cache
    cache.enabled, cache.stats = saved
    cache.clear()


def _assert_models_bit_identical(a: RateModel, b: RateModel) -> None:
    for name in ARRAY_ATTRS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    belief = a.uniform_prior()
    assert np.array_equal(
        a.cumulative_quantile(belief, 0.05), b.cumulative_quantile(belief, 0.05)
    )


# ------------------------------------------------------------- bit-identity


def test_cache_on_and_off_builds_are_bit_identical(scoped_cache):
    """The acceptance bar, on a non-default parameter set."""
    scoped_cache.enabled = False
    fresh = shared_rate_model(SMALL)
    scoped_cache.enabled = True
    stored = shared_rate_model(SMALL)  # miss: builds and publishes
    hit = shared_rate_model(SMALL)  # memory hit
    assert scoped_cache.stats.as_dict() == {"memory_hits": 1, "disk_hits": 0, "misses": 1}
    assert hit is stored
    for model in (stored, RateModel(SMALL)):
        _assert_models_bit_identical(fresh, model)


def test_memory_hits_share_the_frozen_arrays(scoped_cache):
    first = shared_rate_model(SMALL)
    second = shared_rate_model(SMALL)
    assert second.transition is first.transition  # shared, not copied
    assert RateModel(SMALL).transition is not first.transition  # a plain build
    with pytest.raises(ValueError):
        first.transition[0, 0] = 0.5  # read-only: cross-model poisoning impossible


def test_disabled_cache_writes_nothing(scoped_cache):
    scoped_cache.enabled = False
    first, second = shared_rate_model(SMALL), shared_rate_model(SMALL)
    assert first.transition is not second.transition  # built twice, kept nowhere
    assert scoped_cache.stats.as_dict() == {"memory_hits": 0, "disk_hits": 0, "misses": 0}
    scoped_cache.enabled = True
    shared_rate_model(SMALL)
    assert scoped_cache.stats.misses == 1  # nothing was stored while disabled


# ------------------------------------------- shared_rate_model regression


def test_shared_model_capacity_survives_wide_sweeps():
    """Regression: >8 distinct swept params no longer evict and rebuild."""
    clear_shared_models()
    try:
        from dataclasses import replace

        swept = [replace(SMALL, sigma=100.0 + i) for i in range(10)]
        models = [shared_rate_model(params) for params in swept]
        # The old lru_cache(maxsize=8) would have evicted the first two by
        # now; every instance must still be the memoised one.
        for params, model in zip(swept, models):
            assert shared_rate_model(params) is model
    finally:
        clear_shared_models()


def test_shared_model_capacity_is_configurable(monkeypatch):
    from dataclasses import replace

    monkeypatch.setattr(model_cache(), "max_entries", 2)
    clear_shared_models()
    try:
        one, two, three = (replace(SMALL, sigma=150.0 + i) for i in range(3))
        first = shared_rate_model(one)
        second = shared_rate_model(two)
        third = shared_rate_model(three)
        # Capacity 2: the least-recently-used entry was evicted ...
        assert shared_rate_model(three) is third
        assert shared_rate_model(two) is second
        assert shared_rate_model(one) is not first
        # ... and its rebuild is bit-identical.
        _assert_models_bit_identical(first, shared_rate_model(one))
    finally:
        clear_shared_models()


def test_shared_default_model_is_memoised():
    assert shared_rate_model() is shared_rate_model()
