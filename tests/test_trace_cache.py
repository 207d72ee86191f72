"""Correctness of the trace memo (repro.traces.cache) and the memo behind it.

The contract: memoised and uncached callers get bit-identical traces; a hit
hands back a defensive copy (mutating a returned trace cannot poison later
callers); no concurrent reader can observe a partially built entry (entries
are published whole under a lock); and nothing is ever written to disk.
Synthesis itself is pinned bit for bit on every registry link.
"""

from __future__ import annotations

import hashlib
import tempfile
import threading

import numpy as np
import pytest

from repro.cache import CacheStats, Memo
from repro.traces.cache import global_cache, trace_key
from repro.traces.channel import ChannelConfig
from repro.traces.networks import get_link, link_names, link_trace
from repro.traces.synthetic import generate_trace

CONFIG = ChannelConfig(mean_rate=50.0, volatility=20.0)
DURATION = 5.0
SEED = 42


def synthesise(memo: Memo, config=CONFIG, duration=DURATION, seed=SEED):
    """What ``link_trace`` does, against a private memo."""
    return memo.get(
        trace_key(config, duration, seed),
        lambda: tuple(generate_trace(config, duration, seed=seed)),
    )


@pytest.fixture
def memo() -> Memo:
    return Memo(max_entries=64)


@pytest.fixture
def scoped_global_cache():
    """The process-wide trace memo, empty and with fresh counters."""
    cache = global_cache()
    saved, cache.stats = cache.stats, CacheStats()
    cache.clear()
    yield cache
    cache.clear()
    cache.stats = saved


def test_cached_trace_is_bit_identical_to_direct_generation(memo):
    direct = generate_trace(CONFIG, DURATION, seed=SEED)
    assert list(synthesise(memo)) == direct
    assert list(synthesise(memo)) == direct  # and again from the memo
    assert memo.stats.as_dict() == {"memory_hits": 1, "disk_hits": 0, "misses": 1}


def test_disabled_cache_still_returns_identical_traces(memo):
    memo.enabled = False
    assert list(synthesise(memo)) == generate_trace(CONFIG, DURATION, seed=SEED)
    assert len(memo) == 0  # nothing kept
    assert memo.stats.as_dict() == {"memory_hits": 0, "disk_hits": 0, "misses": 0}


def test_cache_hit_layers_are_counted(scoped_global_cache):
    link = get_link("AT&T LTE uplink")
    link_trace(link, duration=3.0)
    link_trace(link, duration=3.0)
    assert scoped_global_cache.stats.as_dict() == {"memory_hits": 1, "disk_hits": 0, "misses": 1}


def test_link_trace_returns_a_defensive_copy():
    link = get_link("AT&T LTE uplink")
    first = link_trace(link, duration=5.0)
    first_copy = list(first)
    first.clear()  # vandalise the returned list
    second = link_trace(link, duration=5.0)
    assert second == first_copy
    assert second is not first


def test_cache_trace_objects_are_immutable_tuples(memo):
    trace = synthesise(memo)
    assert isinstance(trace, tuple)
    with pytest.raises((TypeError, AttributeError)):
        trace[0] = -1.0  # type: ignore[index]


def test_key_covers_every_channel_field_not_the_link_name():
    base = trace_key(CONFIG, DURATION, SEED)
    assert trace_key(CONFIG, DURATION, SEED) == base
    assert len(base) == 64  # sha256 hex
    bumped = ChannelConfig(mean_rate=50.0, volatility=20.0, outage_rate=0.05)
    assert trace_key(bumped, DURATION, SEED) != base
    assert trace_key(CONFIG, DURATION + 1.0, SEED) != base
    assert trace_key(CONFIG, DURATION, SEED + 1) != base


def test_concurrent_threads_never_observe_partial_entries(memo):
    reference = generate_trace(CONFIG, DURATION, seed=SEED)
    results = []
    errors = []
    gate = threading.Barrier(8)

    def hammer() -> None:
        try:
            gate.wait()
            for _ in range(5):
                results.append(synthesise(memo))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(results) == 40
    for trace in results:
        assert list(trace) == reference
    # Racing builders may each build, but every caller gets the first
    # published copy.
    assert len({id(trace) for trace in results}) == 1


def test_memory_layer_is_lru_bounded():
    memo = Memo(max_entries=2)
    configs = [
        ChannelConfig(mean_rate=30.0 + 10.0 * i, volatility=10.0) for i in range(3)
    ]
    for config in configs:
        synthesise(memo, config, 2.0)
    assert len(memo) == 2  # oldest entry evicted
    # The evicted trace is rebuilt, identical.
    assert list(synthesise(memo, configs[0], 2.0)) == generate_trace(
        configs[0], 2.0, seed=SEED
    )
    assert memo.stats.misses == 4
    with pytest.raises(ValueError):
        Memo(max_entries=0)


def test_link_traces_write_nothing_to_disk(scoped_global_cache, tmp_path, monkeypatch):
    """The memo is memory-only: no temp-dir entry appears, whatever TMPDIR is."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    link_trace(get_link("AT&T LTE uplink"), duration=3.0)
    assert list(tmp_path.iterdir()) == []


#: sha256 of the float64 bytes of each registry link's 120 s trace, and of
#: its ``seed_offset=1`` realisation, recorded with the numpy-scalar
#: synthesis that the Python-float one replaced.  A change to the channel
#: model, its RNG stream or the arithmetic of synthesis shows here before it
#: shows in any golden metric.
PINNED_TRACES = {
    "Verizon LTE downlink": (
        "6b69ff6e489848472a9f7dbcebcde7128947a5e6742670a537d417da2dd0e49b",
        "76a7cc755e97122e546c4ee74b383e983ba6e0f7f6a702795a5c612d4062e07f",
    ),
    "Verizon LTE uplink": (
        "74fb87dc55ac2e68850e61a996af450fc6a09a4fdc42d8b0cd6580e1b247630b",
        "09fb53572827fc99743e83532961bab778c84618c7b2c4e18481c855a95e8da4",
    ),
    "Verizon 3G (1xEV-DO) downlink": (
        "bfbd76a570b0d4c3bdfaf3e6c5ff0225de0e369c38e1153db30ec317b1689e35",
        "714461816f8f737519ccf11ec855b34b661e34906b8b7601f2c927540c7f7547",
    ),
    "Verizon 3G (1xEV-DO) uplink": (
        "5a8b365935581c88210baeb2ad91f1dbb198d37eccffd53b4db72165223854c6",
        "6ab8b58250e2a57692cc3e4b2383fc99761fe745b024ec5223e55cc6a397d858",
    ),
    "AT&T LTE downlink": (
        "25cb400cb00b19edcb2a129b016f6d38104b01a3b9961fe68133582c667d2286",
        "9291c8d4d0f3d9ff6e51b912fc27babfd7f84d30749f851ce64cf18dd08d5856",
    ),
    "AT&T LTE uplink": (
        "9c495dd33e7db776852602e43a6b1a4e90d7a94f5b42dbd2331347449812298d",
        "fb9818af28af0b3477385d5db666ac53500a43f6bf83250c801e956f290361ed",
    ),
    "T-Mobile 3G (UMTS) downlink": (
        "1b7a516416688a24b6443878a5eaf4aaad90923a2bd32d8056c35d15d8c86660",
        "d5d4ef505cfad74fac33ca0307c1410e849d293d963d0697b3aae0926498c8b8",
    ),
    "T-Mobile 3G (UMTS) uplink": (
        "eb84b1d3718b05e22beab4bc0cd1c25f595d0b76ffedd0bb19782f033a1054ee",
        "cd4503c9686932f936d3c379c95b298c6ae5071509d197ff7a62c8c32c50f4b6",
    ),
}


def test_registry_traces_are_pinned_bit_for_bit():
    assert sorted(PINNED_TRACES) == sorted(link_names())
    for name, digests in PINNED_TRACES.items():
        link = get_link(name)
        for seed_offset, digest in enumerate(digests):
            trace = generate_trace(link.config, 120.0, seed=int(link.seed) + seed_offset)
            assert all(type(t) is float for t in trace), (name, seed_offset)
            actual = hashlib.sha256(np.asarray(trace, dtype=np.float64).tobytes()).hexdigest()
            assert actual == digest, (name, seed_offset)
