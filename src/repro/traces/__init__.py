"""Cellular-link traces: generation, storage, and analysis.

The paper drives every experiment from packet-delivery traces recorded by a
"Saturator" on four commercial cellular networks.  Those traces are not
publicly reproducible, so this package provides a faithful synthetic
substitute (documented in DESIGN.md): a doubly-stochastic channel model with
Brownian rate drift and sticky outages — the same family of models Sprout
itself assumes — from which delivery-opportunity traces are generated, plus
readers/writers for the on-disk trace format, per-network presets matching
the paper's eight links, a Saturator implementation, and analysis helpers
used to regenerate Figure 2.
"""

from repro.traces.cache import global_cache
from repro.traces.channel import ChannelConfig, CellularChannel
from repro.traces.format import read_trace, write_trace, trace_duration
from repro.traces.synthetic import generate_trace
from repro.traces.networks import (
    DEFAULT_TRACE_DURATION,
    NETWORKS,
    LinkSpec,
    NetworkSpec,
    get_link,
    get_network,
    link_names,
    link_trace,
    network_names,
)
from repro.traces.saturator import Saturator, SaturatorConfig, record_trace_with_saturator
from repro.traces.analysis import (
    InterarrivalStats,
    capacity_timeseries,
    interarrival_stats,
    interarrival_times,
    interarrival_survival,
    fit_powerlaw_tail,
)

__all__ = [
    "global_cache",
    "ChannelConfig",
    "CellularChannel",
    "read_trace",
    "write_trace",
    "trace_duration",
    "generate_trace",
    "DEFAULT_TRACE_DURATION",
    "link_trace",
    "interarrival_stats",
    "NETWORKS",
    "LinkSpec",
    "NetworkSpec",
    "get_link",
    "get_network",
    "link_names",
    "network_names",
    "Saturator",
    "SaturatorConfig",
    "record_trace_with_saturator",
    "InterarrivalStats",
    "capacity_timeseries",
    "interarrival_times",
    "interarrival_survival",
    "fit_powerlaw_tail",
]
