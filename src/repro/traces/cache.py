"""Process-safe memoised cache of synthetic delivery traces.

Every cell of a scheme × link matrix replays the same deterministic trace,
and before this module each cell regenerated it from scratch — in every
worker process.  :class:`TraceCache` memoises ``(channel config, duration,
seed) -> trace`` through the generic two-level keyed-artifact store of
:mod:`repro.cache` (this cache is where that design was proven before it
was extracted): a locked in-process table holding each trace as an
immutable tuple, plus an optional on-disk layer shared between worker
processes (atomic ``os.replace`` publication, so a concurrent reader sees
either the complete file or no file at all; unreadable or truncated files
are treated as misses and regenerated).

Keys are content hashes of the full channel configuration — not the link's
registry name — so a sweep-modified link (say, double the outage rate) can
never collide with the pristine registry entry.  Generation is exactly
:func:`repro.traces.synthetic.generate_trace`, so cached and uncached
callers get bit-identical traces; ``tests/test_trace_cache.py`` enforces
this, along with the defensive-copy contract of :func:`link_trace`.

Knobs (also see docs/sweeps.md):

* ``REPRO_TRACE_CACHE=0`` disables the cache entirely (every call
  regenerates, the seed behaviour);
* ``REPRO_TRACE_CACHE_DISK=0`` keeps the in-process layer but skips disk;
* ``REPRO_TRACE_CACHE_DIR`` relocates the disk layer (default: a
  per-user directory under the system temp dir);
* ``REPRO_TRACE_CACHE_MAX`` bounds the in-process layer.

The model-artifact cache (:mod:`repro.core.rate_model`,
docs/performance.md "Layer 3") rides the same generic store, memory only:
a model builds in tens of milliseconds, so it has no disk layer and only
``REPRO_MODEL_CACHE`` and ``REPRO_MODEL_CACHE_MAX``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cache import ArtifactCache, CacheStats, content_key, default_cache_directory
from repro.traces.channel import ChannelConfig
from repro.traces.synthetic import generate_trace

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "DEFAULT_MAX_ENTRIES",
    "TraceCache",
    "cached_trace",
    "configure",
    "default_cache_dir",
    "global_cache",
    "trace_key",
]

#: bump when trace generation changes so stale disk entries are orphaned
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> str:
    """The default on-disk location: per-user, under the system temp dir."""
    return default_cache_directory("REPRO_TRACE_CACHE_DIR", "repro-trace-cache")


def trace_key(config: ChannelConfig, duration: float, seed: int) -> str:
    """Content hash identifying one deterministic trace realisation."""
    fields = tuple(
        (f.name, repr(getattr(config, f.name))) for f in dataclasses.fields(config)
    )
    return content_key((CACHE_FORMAT_VERSION, fields, float(duration), int(seed)))


#: in-process entries kept per cache (the seed's lru_cache held 64); a 120 s
#: LTE trace is ~1.4 MB as a tuple, so this bounds the layer at ~90 MB even
#: for sweeps that mint a distinct channel config per cell
DEFAULT_MAX_ENTRIES = 64


@dataclass
class TraceCache(ArtifactCache):
    """Two-level (memory, disk) memoiser for synthetic delivery traces.

    All machinery — locked publication, LRU bound, atomic disk writes,
    corrupt-entry fallback — lives in :class:`repro.cache.ArtifactCache`;
    this class supplies only the trace codec (``.npy`` files of float64
    delivery times) and the trace-flavoured key/lookup API.
    """

    max_entries: int = DEFAULT_MAX_ENTRIES

    suffix = ".npy"

    # ------------------------------------------------------------- the codec

    def default_directory(self) -> str:
        return default_cache_dir()

    def write_artifact(self, handle, trace: Tuple[float, ...]) -> None:
        np.save(handle, np.asarray(trace, dtype=np.float64))

    def read_artifact(self, path: str) -> Tuple[float, ...]:
        return tuple(float(t) for t in np.load(path, allow_pickle=False))

    # ---------------------------------------------------------------- lookup

    def trace(self, config: ChannelConfig, duration: float, seed: int) -> Tuple[float, ...]:
        """The delivery trace for ``(config, duration, seed)``, memoised.

        Returns an immutable tuple; callers that need a mutable trace copy
        it (see :func:`link_trace`).
        """
        if not self.enabled:
            return tuple(generate_trace(config, duration, seed=seed))
        key = trace_key(config, duration, seed)
        return self.get(key, lambda: tuple(generate_trace(config, duration, seed=seed)))


#: the process-wide cache used by :func:`repro.traces.networks.link_trace`
_GLOBAL_CACHE = TraceCache.from_env("REPRO_TRACE_CACHE", default_max=DEFAULT_MAX_ENTRIES)


def global_cache() -> TraceCache:
    """The process-wide trace cache."""
    return _GLOBAL_CACHE


def configure(
    directory: Optional[str] = None,
    use_disk: Optional[bool] = None,
    enabled: Optional[bool] = None,
) -> TraceCache:
    """Reconfigure the process-wide cache (used by tests and the CLI).

    Any argument left as ``None`` keeps its current value.  The in-process
    layer is cleared so stale entries cannot outlive a reconfiguration.
    """
    return _GLOBAL_CACHE.configure(
        directory=directory, use_disk=use_disk, enabled=enabled
    )


def cached_trace(config: ChannelConfig, duration: float, seed: int) -> List[float]:
    """A defensively-copied delivery trace for an explicit channel config."""
    return list(_GLOBAL_CACHE.trace(config, duration, seed))
