"""The process-wide memo of synthetic delivery traces.

Every cell of a scheme × link matrix replays a trace that is a pure function
of (channel configuration, duration, seed), so each process synthesises it
once and keeps it, as an immutable tuple, in a :class:`repro.cache.Memo`.
Keys hash the full channel configuration, not the link's registry name, so
a sweep-modified link (say, double the outage rate) can never collide with
the pristine registry entry.  :func:`repro.traces.networks.link_trace` hands
each caller a defensive copy.
"""

from __future__ import annotations

import dataclasses

from repro.cache import Memo, content_key
from repro.traces.channel import ChannelConfig

__all__ = ["global_cache", "trace_key"]

#: a 120 s LTE trace is ~1.4 MB as a tuple, so 64 entries bound the memo at
#: ~90 MB even for sweeps that mint a distinct channel config per cell
_TRACES = Memo(max_entries=64)


def trace_key(config: ChannelConfig, duration: float, seed: int) -> str:
    """Content hash identifying one deterministic trace realisation."""
    fields = tuple(
        (f.name, repr(getattr(config, f.name))) for f in dataclasses.fields(config)
    )
    return content_key((fields, float(duration), int(seed)))


def global_cache() -> Memo:
    """The process-wide trace memo."""
    return _TRACES
