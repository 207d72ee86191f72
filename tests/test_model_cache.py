"""Correctness and robustness of the model-artifact cache.

The contract mirrors the trace cache's: cached and uncached model builds
are **bit-identical** (same array values, dtypes, everything the forecast
can observe); no reader — thread or worker process — can ever observe a
partially written ``.npz`` (atomic ``os.replace`` publication); corrupted
or truncated disk entries are treated as misses and healed by a clean
rebuild; and the :func:`shared_rate_model` memoiser no longer thrashes on
sweeps wider than the old hard-wired eight entries.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os

import numpy as np
import pytest

from repro.core.rate_model import (
    DEFAULT_MODEL_ARTIFACTS,
    ModelArtifactCache,
    RateModel,
    RateModelParams,
    clear_shared_models,
    default_model_cache_dir,
    model_cache,
    model_cache_directory,
    model_key,
    shared_rate_model,
)

#: small, fast-to-build, *non-default* parameters used throughout
SMALL = RateModelParams(num_bins=16, max_rate=200.0, sigma=120.0, forecast_ticks=3)
PATHS = 150

#: the arrays (by RateModel attribute) one artifact must restore exactly
ARRAY_ATTRS = ("transition", "cumulative_cdfs", "_cdf_cols", "_cdf_coarse")


@pytest.fixture
def scoped_cache(tmp_path):
    """The process-wide model cache, pointed at a private tmp dir."""
    from repro.cache import CacheStats

    cache = model_cache()
    saved = (cache.directory, cache.use_disk, cache.enabled, cache.stats)
    cache.directory = str(tmp_path)
    cache.use_disk = True
    cache.enabled = True
    cache.stats = CacheStats()  # fresh counters per test
    cache.clear()
    yield cache
    cache.directory, cache.use_disk, cache.enabled, cache.stats = saved
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
    fresh = RateModel(SMALL, PATHS)
    scoped_cache.enabled = True
    stored = RateModel(SMALL, PATHS)  # miss: builds and writes the .npz
    hit = RateModel(SMALL, PATHS)  # memory hit
    scoped_cache.clear()
    disk = RateModel(SMALL, PATHS)  # disk hit
    assert scoped_cache.stats.misses == 1
    assert scoped_cache.stats.memory_hits == 1
    assert scoped_cache.stats.disk_hits == 1
    for cached in (stored, hit, disk):
        _assert_models_bit_identical(fresh, cached)


def test_memory_hits_share_the_frozen_arrays(scoped_cache):
    first = RateModel(SMALL, PATHS)
    second = RateModel(SMALL, PATHS)
    assert second.transition is first.transition  # shared, not copied
    with pytest.raises(ValueError):
        first.transition[0, 0] = 0.5  # read-only: cross-model poisoning impossible


# ---------------------------------------------------------------- the key


def test_model_key_covers_params_paths_and_version():
    base = model_key(SMALL, PATHS)
    assert len(base) == 64  # sha256 hex
    assert model_key(SMALL, PATHS) == base
    from dataclasses import replace

    assert model_key(replace(SMALL, sigma=121.0), PATHS) != base
    assert model_key(replace(SMALL, tick=0.021), PATHS) != base
    assert model_key(SMALL, PATHS + 1) != base
    # One source for the default ensemble size: the key a bare RateModel(params)
    # stores under is the key the pool scheduler asks ``contains`` about.
    from repro.core.rate_model import DEFAULT_FORECAST_PATHS

    assert model_key(SMALL) == model_key(SMALL, DEFAULT_FORECAST_PATHS)
    assert RateModel.__init__.__defaults__ == (None, DEFAULT_FORECAST_PATHS)


# ------------------------------------------------------------- disk layer


def test_default_cache_dir_honours_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_MODEL_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_model_cache_dir() == str(tmp_path / "elsewhere")


def test_model_cache_directory_context_restores_everything(tmp_path):
    cache = model_cache()
    directory_before = cache.directory
    env_before = os.environ.get("REPRO_MODEL_CACHE_DIR")
    with model_cache_directory(str(tmp_path)) as scoped:
        assert scoped is cache
        assert cache.directory == str(tmp_path)
        assert os.environ["REPRO_MODEL_CACHE_DIR"] == str(tmp_path)
    # Regression: the cache itself (not just the env var) is restored, so
    # a later build cannot silently write into a deleted temp directory.
    assert cache.directory == directory_before
    assert os.environ.get("REPRO_MODEL_CACHE_DIR") == env_before


def test_from_env_tolerates_malformed_max(monkeypatch, caplog):
    """Unparseable or non-positive knobs warn and use the default — never an
    import-time crash and never a silent clamp to 1 (which looked like a
    mysterious perf cliff)."""
    import logging

    for bad in ("banana", "0", "-5"):
        caplog.clear()
        monkeypatch.setenv("REPRO_MODEL_CACHE_MAX", bad)
        with caplog.at_level(logging.WARNING, logger="repro.cache"):
            built = ModelArtifactCache.from_env(
                "REPRO_MODEL_CACHE", default_max=DEFAULT_MODEL_ARTIFACTS
            )
        assert built.max_entries == DEFAULT_MODEL_ARTIFACTS
        assert "REPRO_MODEL_CACHE_MAX" in caplog.text  # names the culprit
    # An unset (or empty) knob is not a misconfiguration: no warning.
    caplog.clear()
    monkeypatch.delenv("REPRO_MODEL_CACHE_MAX", raising=False)
    with caplog.at_level(logging.WARNING, logger="repro.cache"):
        built = ModelArtifactCache.from_env(
            "REPRO_MODEL_CACHE", default_max=DEFAULT_MODEL_ARTIFACTS
        )
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


def test_truncated_artifact_falls_back_to_a_clean_rebuild(scoped_cache, tmp_path):
    reference = RateModel(SMALL, PATHS)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
    payload = path.read_bytes()
    path.write_bytes(payload[: len(payload) // 2])  # a torn write, simulated
    scoped_cache.clear()
    rebuilt = RateModel(SMALL, PATHS)
    assert scoped_cache.stats.misses == 2  # fell back to a rebuild
    _assert_models_bit_identical(reference, rebuilt)
    # The rebuild healed the disk entry for the next cold reader.
    cold = ModelArtifactCache(directory=str(tmp_path))
    scoped_cache.clear()
    assert cold.read_artifact(str(path))["transition"].shape == (16, 16)


def test_garbage_artifact_falls_back_to_a_clean_rebuild(scoped_cache, tmp_path):
    reference = RateModel(SMALL, PATHS)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
    path.write_bytes(b"not a zip archive at all")
    scoped_cache.clear()
    rebuilt = RateModel(SMALL, PATHS)
    assert scoped_cache.stats.misses == 2
    _assert_models_bit_identical(reference, rebuilt)


def test_artifact_with_missing_arrays_is_rejected(scoped_cache, tmp_path):
    RateModel(SMALL, PATHS)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
    np.savez(path, transition=np.zeros((2, 2)))  # foreign/stale content
    scoped_cache.clear()
    model = RateModel(SMALL, PATHS)  # rejected -> rebuilt, not a 2x2 matrix
    assert model.transition.shape == (16, 16)
    assert scoped_cache.stats.misses == 2


def test_v1_shaped_artifact_under_a_v2_key_is_rebuilt(scoped_cache, tmp_path):
    """A superset of the fields is as foreign as a subset: format 1 stored
    one more layout of the tensor, and such a file must not load."""
    built = RateModel(SMALL, PATHS)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
    v1 = {name.lstrip("_"): getattr(built, name) for name in ARRAY_ATTRS}
    v1["flat_cdfs"] = np.zeros((SMALL.num_bins, 4), dtype=np.float32)
    np.savez(path, **v1)
    scoped_cache.clear()
    _assert_models_bit_identical(RateModel(SMALL, PATHS), built)
    assert scoped_cache.stats.misses == 2  # treated as corrupt, rebuilt
    with np.load(path) as healed:
        assert "flat_cdfs" not in healed.files


def test_disabled_cache_writes_nothing(scoped_cache, tmp_path):
    scoped_cache.enabled = False
    RateModel(SMALL, PATHS)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- contains


def test_contains_reports_memory_or_disk_without_touching_stats(scoped_cache, tmp_path):
    key = model_key(SMALL, PATHS)
    assert not scoped_cache.contains(key)  # absent
    RateModel(SMALL, PATHS)
    before = scoped_cache.stats.as_dict()
    assert scoped_cache.contains(key)  # memory (and disk)
    scoped_cache.clear()
    assert scoped_cache.contains(key)  # disk file only
    scoped_cache.use_disk = False
    assert not scoped_cache.contains(key)  # the file is out of reach
    RateModel(SMALL, PATHS)
    assert scoped_cache.contains(key)  # memory only
    before["misses"] += 1
    assert scoped_cache.stats.as_dict() == before
    scoped_cache.enabled = False
    assert not scoped_cache.contains(key)  # a disabled cache holds nothing


def test_contains_is_a_hint_a_truncated_file_still_heals(scoped_cache, tmp_path):
    """The pool scheduler trusts ``contains``; ``get`` must absorb a bad file."""
    reference = RateModel(SMALL, PATHS)
    (path,) = [p for p in tmp_path.iterdir() if p.suffix == ".npz"]
    path.write_bytes(path.read_bytes()[:100])
    scoped_cache.clear()
    assert scoped_cache.contains(model_key(SMALL, PATHS))  # the file is not read
    _assert_models_bit_identical(reference, RateModel(SMALL, PATHS))
    assert scoped_cache.stats.misses == 2  # rebuilt, not trusted


# ------------------------------------------------------------- concurrency


def _racing_build(args):
    directory, index = args
    # Each worker re-points the process-wide cache at the shared tmp dir
    # with a cold memory layer, so every one of them races the same .npz.
    from repro.core.rate_model import configure_model_cache

    configure_model_cache(directory=directory, use_disk=True, enabled=True)
    model = RateModel(SMALL, PATHS)
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.transition).tobytes())
    digest.update(np.ascontiguousarray(model.cumulative_cdfs).tobytes())
    return (index, digest.hexdigest())


def test_concurrent_processes_racing_one_key_see_whole_artifacts(tmp_path):
    """Atomic replace: racing writers, no torn reads, one published file."""
    cache = model_cache()
    saved_enabled = cache.enabled
    cache.enabled = False
    try:
        reference = RateModel(SMALL, PATHS)  # built outside any cache
    finally:
        cache.enabled = saved_enabled
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(reference.transition).tobytes())
    digest.update(np.ascontiguousarray(reference.cumulative_cdfs).tobytes())
    expected = digest.hexdigest()

    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(
            pool.map(_racing_build, [(str(tmp_path), i) for i in range(4)])
        )
    assert [d for _, d in outcomes] == [expected] * 4
    # Exactly one published file, whatever the race's winner order was.
    names = [p.name for p in tmp_path.iterdir()]
    assert names == [f"{model_key(SMALL, PATHS)}.npz"]


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
