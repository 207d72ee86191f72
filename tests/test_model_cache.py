"""Correctness of the in-process model-artifact cache.

Cached and uncached model builds are **bit-identical** (same array values,
dtypes, everything the forecast can observe); the memory layer shares one
frozen set of arrays between every model with the same parameters; and the
:func:`shared_rate_model` memoiser no longer thrashes on sweeps wider than
the old hard-wired eight entries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rate_model import (
    DEFAULT_MODEL_ARTIFACTS,
    RateModel,
    RateModelParams,
    _model_cache_from_env,
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
    """The process-wide model cache, empty and with fresh counters."""
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
    fresh = RateModel(SMALL)
    scoped_cache.enabled = True
    stored = RateModel(SMALL)  # miss: builds and publishes
    hit = RateModel(SMALL)  # memory hit
    assert scoped_cache.stats.as_dict() == {"memory_hits": 1, "disk_hits": 0, "misses": 1}
    assert not scoped_cache.use_disk  # a model is never written anywhere
    for cached in (stored, hit):
        _assert_models_bit_identical(fresh, cached)


def test_memory_hits_share_the_frozen_arrays(scoped_cache):
    first = RateModel(SMALL)
    second = RateModel(SMALL)
    assert second.transition is first.transition  # shared, not copied
    with pytest.raises(ValueError):
        first.transition[0, 0] = 0.5  # read-only: cross-model poisoning impossible


def test_from_env_tolerates_malformed_max(monkeypatch, caplog):
    """Unparseable or non-positive knobs warn and use the default — never an
    import-time crash and never a silent clamp to 1 (which looked like a
    mysterious perf cliff)."""
    import logging

    for bad in ("banana", "0", "-5"):
        caplog.clear()
        monkeypatch.setenv("REPRO_MODEL_CACHE_MAX", bad)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            built = _model_cache_from_env()
        assert built.max_entries == DEFAULT_MODEL_ARTIFACTS
        assert "REPRO_MODEL_CACHE_MAX" in caplog.text  # names the culprit
    # An unset (or empty) knob is not a misconfiguration: no warning.
    caplog.clear()
    monkeypatch.delenv("REPRO_MODEL_CACHE_MAX", raising=False)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        built = _model_cache_from_env()
    assert built.max_entries == DEFAULT_MODEL_ARTIFACTS
    assert caplog.text == ""


def test_shared_model_capacity_warns_and_defaults_on_bad_env(monkeypatch, caplog):
    """REPRO_SHARED_MODEL_MAX goes through the same warn-and-default parse."""
    import logging

    from repro.core.rate_model import DEFAULT_SHARED_MODELS, shared_model_capacity

    for bad in ("garbage", "-3", "0"):
        caplog.clear()
        monkeypatch.setenv("REPRO_SHARED_MODEL_MAX", bad)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            assert shared_model_capacity() == DEFAULT_SHARED_MODELS
        assert "REPRO_SHARED_MODEL_MAX" in caplog.text
    monkeypatch.setenv("REPRO_SHARED_MODEL_MAX", "5")
    assert shared_model_capacity() == 5


def test_disabled_cache_writes_nothing(scoped_cache):
    scoped_cache.enabled = False
    first, second = RateModel(SMALL), RateModel(SMALL)
    assert first.transition is not second.transition  # built twice, kept nowhere
    assert scoped_cache.stats.as_dict() == {"memory_hits": 0, "disk_hits": 0, "misses": 0}
    scoped_cache.enabled = True
    RateModel(SMALL)
    assert scoped_cache.stats.misses == 1  # nothing was stored while disabled


# ------------------------------------------- shared_rate_model regression


def test_shared_model_capacity_survives_wide_sweeps(monkeypatch):
    """Regression: >8 distinct swept params no longer evict and rebuild."""
    monkeypatch.delenv("REPRO_SHARED_MODEL_MAX", raising=False)
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

    monkeypatch.setenv("REPRO_SHARED_MODEL_MAX", "2")
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
        # ... and nonsense values fall back to the default capacity.
        monkeypatch.setenv("REPRO_SHARED_MODEL_MAX", "banana")
        assert shared_rate_model(one) is shared_rate_model(one)
    finally:
        clear_shared_models()


def test_shared_default_model_is_memoised():
    assert shared_rate_model() is shared_rate_model()
