"""One in-process, LRU-bounded memo for deterministic artifacts.

Synthetic delivery traces, rate models and the trace-only metric baselines
are all pure functions of their inputs, and each is rebuilt in milliseconds,
so one small memo per kind of artifact is all the caching the repo does.
Nothing is written to disk and no environment variable configures it: each
process builds what its own cells need, and every bound is a per-instance
constant chosen where the memo is made.

An entry is published only after it is fully built, under a lock, so a
concurrent reader never sees a partial one; two threads racing the same key
both build, and the first to publish wins (builds are deterministic, so the
loser's artifact is an equal copy).  Values are shared between callers and
must be treated as immutable.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable


def content_key(payload: object) -> str:
    """The sha256 hex digest of ``repr(payload)``, for keys built from content."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Lookup counters; ``disk_hits`` is always 0 (the benchmark record reads it)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class Memo:
    """Keyed artifacts, each built at most once per process while it is held.

    ``enabled = False`` makes :meth:`get` call its builder every time and
    keep nothing (tests use it to run uncached).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self.enabled = True
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The artifact for ``key``, from the memo or from ``build()``."""
        if not self.enabled:
            return build()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.memory_hits += 1
                return self._entries[key]
            self.stats.misses += 1
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
