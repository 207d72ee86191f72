"""Generic two-level (in-memory + on-disk) keyed-artifact cache.

This is the proven design of the shared trace cache, extracted so every
deterministic precomputation in the repo — synthetic delivery traces, the
rate model's forecast tables, whatever comes next — memoises through one
audited code path instead of re-growing its own.  :class:`ArtifactCache` provides the machinery; a concrete cache
subclasses it and supplies only the artifact codec (how a value is written
to / read from one file) and the default disk location:

* an **in-process** table guarded by a lock, so a concurrent reader can
  never observe a partially built entry (an entry is published only after
  it is fully built), LRU-bounded by ``max_entries``;
* an optional **on-disk** layer shared between worker processes of a run
  (and across runs on the same machine).  Files are written to a temporary
  name and published with :func:`os.replace`, which is atomic on POSIX: a
  concurrent reader sees either the complete file or no file at all, never
  a torn one.  Unreadable, truncated, or foreign files are treated as
  misses and rebuilt (which also heals the disk entry for the next
  reader); an unwritable or full disk degrades to memory-only caching.

Keys are caller-supplied: content hashes where there is a disk layer (they
name the files), any hashable value for a memory-only cache such as the
rate model's.  Values must be treated as
immutable by every caller, because the memory layer hands the same object
to all of them.  Builds are deterministic, so concurrent writers racing the
same key all produce the identical artifact and "last writer wins" is
harmless.  ``tests/test_trace_cache.py`` and ``tests/test_model_cache.py``
lock the two caches (and thereby this machinery) down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

#: in-process entries kept per cache unless the subclass says otherwise
DEFAULT_MAX_ENTRIES = 64

_LOG = logging.getLogger("repro.cache")


def env_positive_int(name: str, default: int) -> int:
    """Read a positive-integer env knob, warning and defaulting on bad input.

    Cache-sizing knobs (``REPRO_MODEL_CACHE_MAX``, ``REPRO_SHARED_MODEL_MAX``,
    ...) are read at import or on hot paths, so a typo must never crash — but
    it must not silently clamp either: ``REPRO_MODEL_CACHE_MAX=-5`` clamping
    to 1 looks like a mysterious perf cliff.  Unparseable or non-positive
    values log one warning naming the variable and fall back to ``default``.
    An unset/empty variable is not a misconfiguration and returns ``default``
    silently.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        _LOG.warning(
            "ignoring unparseable %s=%r; using default %d", name, raw, default
        )
        return default
    if value < 1:
        _LOG.warning(
            "ignoring non-positive %s=%d; using default %d", name, value, default
        )
        return default
    return value


def default_cache_directory(env_var: str, name: str) -> str:
    """Per-user default disk location, overridable through ``env_var``.

    Shared by every concrete cache's :meth:`ArtifactCache.default_directory`
    so the resolution rules (env override, per-uid temp-dir fallback) exist
    once.
    """
    override = os.environ.get(env_var)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"{name}-{uid}")


def content_key(payload: object) -> str:
    """The standard key form: sha256 hex digest of ``repr(payload)``.

    Callers build ``payload`` from every input the artifact depends on
    (including a format version, so a codec change orphans stale entries).
    """
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Counters exposed for tests and the benchmark record."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class ArtifactCache:
    """Two-level (memory, disk) memoiser for keyed immutable artifacts.

    Subclasses provide the codec and location by overriding
    :meth:`default_directory`, :meth:`write_artifact`,
    :meth:`read_artifact`, and the ``suffix`` class attribute.  With
    ``use_disk=False`` none of those is ever called, so the base class
    itself is a memory-only cache.

    Attributes:
        directory: disk-layer location; ``None`` asks the subclass's
            :meth:`default_directory` (typically an env-var-overridable
            per-user directory under the system temp dir).
        use_disk: keep the in-process layer but skip disk when ``False``.
        enabled: bypass the cache entirely when ``False`` — every
            :meth:`get` calls its builder, nothing is stored.
        max_entries: LRU bound of the in-process layer (disk entries are
            never evicted).
        stats: per-layer hit/miss counters.
    """

    directory: Optional[str] = None
    use_disk: bool = True
    enabled: bool = True
    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: CacheStats = field(default_factory=CacheStats)

    #: filename suffix of disk entries (override alongside the codec)
    suffix = ".bin"

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._disk_write_disabled = False

    @classmethod
    def from_env(cls, prefix: str, default_max: int = DEFAULT_MAX_ENTRIES):
        """Build a cache from the standard env-knob triple.

        ``<prefix>=0`` disables the cache, ``<prefix>_DISK=0`` skips the
        disk layer, ``<prefix>_MAX`` bounds the in-process layer.  (The
        ``<prefix>_DIR`` knob is read by the subclass's
        :meth:`default_directory`.)  A malformed or non-positive ``_MAX``
        value logs a warning and falls back to ``default_max`` rather than
        failing the package import or silently clamping
        (:func:`env_positive_int`).
        """
        return cls(
            enabled=os.environ.get(prefix, "1") != "0",
            use_disk=os.environ.get(f"{prefix}_DISK", "1") != "0",
            max_entries=env_positive_int(f"{prefix}_MAX", default_max),
        )

    def configure(
        self,
        directory: Optional[str] = None,
        use_disk: Optional[bool] = None,
        enabled: Optional[bool] = None,
        max_entries: Optional[int] = None,
    ) -> "ArtifactCache":
        """Reconfigure the cache's knobs; ``None`` keeps the current value.

        The in-process layer is cleared so stale entries cannot outlive a
        reconfiguration.  Returns ``self`` for chaining.
        """
        if directory is not None:
            self.directory = directory
        if use_disk is not None:
            self.use_disk = use_disk
        if enabled is not None:
            self.enabled = enabled
        if max_entries is not None:
            if max_entries < 1:
                raise ValueError("max_entries must be at least 1")
            self.max_entries = max_entries
        self._disk_write_disabled = False
        self.clear()
        return self

    # -------------------------------------------------------------- the codec

    def default_directory(self) -> str:
        """Disk location used when :attr:`directory` is ``None``."""
        raise NotImplementedError

    def write_artifact(self, handle, value) -> None:
        """Serialise ``value`` into the open binary file ``handle``."""
        raise NotImplementedError

    def read_artifact(self, path: str):
        """Deserialise one artifact from ``path``.

        Must raise :class:`OSError` or :class:`ValueError` for missing,
        truncated, or foreign files — both are treated as cache misses.
        """
        raise NotImplementedError

    # ---------------------------------------------------------------- lookup

    def get(self, key: Hashable, build: Callable[[], Any]):
        """The artifact for ``key``, built by ``build()`` at most once here.

        Checks memory, then disk, then calls ``build()`` and publishes the
        result to both layers.  The returned object is shared between
        callers and must not be mutated.
        """
        if not self.enabled:
            return build()
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
        if cached is not None:
            return cached
        value = self._load(key)
        if value is not None:
            with self._lock:
                self.stats.disk_hits += 1
        else:
            with self._lock:
                self.stats.misses += 1
            value = build()
            self._store(key, value)
        with self._lock:
            # Publish only fully built values; last writer wins harmlessly
            # because every writer built the identical artifact.  LRU
            # eviction bounds the layer (disk entries are never evicted).
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
        return value

    def clear(self) -> None:
        """Drop the in-process layer (the disk layer is left alone)."""
        with self._lock:
            self._memory.clear()

    # ------------------------------------------------------------ disk layer

    def _path(self, key: str) -> Optional[str]:
        if not self.use_disk:
            return None
        directory = self.directory if self.directory is not None else self.default_directory()
        return os.path.join(directory, f"{key}{self.suffix}")

    def _load(self, key: str):
        path = self._path(key)
        if path is None:
            return None
        try:
            return self.read_artifact(path)
        except (OSError, ValueError):
            # Missing, truncated, or foreign file: rebuild.
            return None

    def _store(self, key: str, value) -> None:
        path = self._path(key)
        if path is None or self._disk_write_disabled:
            return
        try:
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    self.write_artifact(handle, value)
                # Atomic publish: readers see the whole file or none of it.
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            # A read-only or full disk (EACCES/ENOSPC/...) must not
            # propagate out of a model or trace build.  Log the first
            # failure, then stop attempting disk writes for this process —
            # reads stay on so a shared read-only cache directory keeps
            # serving hits.  ``configure()`` re-arms the write path.
            self._disk_write_disabled = True
            _LOG.warning(
                "%s: disk cache write failed (%s); disabling disk writes "
                "for this process (reads remain enabled)",
                type(self).__name__,
                error,
            )
