"""Per-network channel presets matching the paper's eight measured links.

The paper's evaluation (Section 4.1) uses roughly 17-minute Saturator traces
of four commercial networks, each in both directions:

* Verizon LTE (downlink / uplink)
* Verizon 3G 1xEV-DO (downlink / uplink)
* AT&T LTE (downlink / uplink)
* T-Mobile 3G UMTS (downlink / uplink)

The original traces are not available, so each link is represented here by a
:class:`ChannelConfig` whose mean rate and variability are calibrated to the
throughput ranges visible in Figure 7 and the narrative of Section 2.2
(order-of-magnitude swings within a second on LTE, slower 3G links with
frequent deep fades, sticky multi-second outages).  Rates are in MTU-sized
packets per second; multiply by 12 for kbit/s.

All presets are deterministic: a given ``(link, duration, seed)`` triple
always yields the same trace, and traces are memoised so that repeated
experiments over the same link reuse identical delivery opportunities, which
is exactly what trace-driven evaluation requires (every scheme sees the same
link, Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.simulation.queues import QueueConfig
from repro.traces.cache import global_cache, trace_key
from repro.traces.channel import ChannelConfig
from repro.traces.synthetic import generate_trace

#: trace length used by default throughout the experiment harness (seconds).
#: The paper uses ~17 minute traces; 120 s keeps the full evaluation matrix
#: tractable in pure Python while spanning many rate swings and outages.
DEFAULT_TRACE_DURATION = 120.0


@dataclass(frozen=True)
class LinkSpec:
    """One direction of one cellular network.

    ``queue`` carries an optional bottleneck-queue configuration into the
    emulation (``None`` for the registry presets — the deep drop-tail buffer
    of the paper's carriers).  The ``aqm``/``qlimit`` sweep axes produce
    variants of a registry link with this field set; the trace memo keys on
    the channel config alone, so all queue variants of one link share the
    identical delivery trace, exactly as the paper's Section 5.4 comparison
    requires.

    ``propagation_delay`` is the one-way wire delay in seconds; ``None``
    uses the emulator's default (the paper's 20 ms each way).  The ``rtt``
    sweep axis sets it on a copy of the link spec, and — like the queue —
    it does not participate in the trace-cache key, so all RTT variants of
    one link see the identical delivery schedule.
    """

    network: str
    direction: str  # "downlink" or "uplink"
    config: ChannelConfig
    seed: int
    queue: Optional[QueueConfig] = None
    propagation_delay: Optional[float] = None

    @property
    def name(self) -> str:
        return f"{self.network} {self.direction}"

    @property
    def key(self) -> str:
        """Stable machine-readable identifier, e.g. ``verizon-lte-downlink``."""
        return (
            self.network.lower()
            .replace(" ", "-")
            .replace("(", "")
            .replace(")", "")
            .replace("&", "")
            + "-"
            + self.direction
        )


@dataclass(frozen=True)
class NetworkSpec:
    """A cellular network with its two directions."""

    name: str
    downlink: LinkSpec
    uplink: LinkSpec

    @property
    def links(self) -> Tuple[LinkSpec, LinkSpec]:
        return (self.downlink, self.uplink)


def _make_network(
    name: str,
    down_rate: float,
    down_volatility: float,
    up_rate: float,
    up_volatility: float,
    outage_rate: float,
    seed_base: int,
    fade_depth: float = 0.5,
    fade_period: float = 11.0,
) -> NetworkSpec:
    down = LinkSpec(
        network=name,
        direction="downlink",
        config=ChannelConfig(
            mean_rate=down_rate,
            volatility=down_volatility,
            outage_rate=outage_rate,
            fade_depth=fade_depth,
            fade_period=fade_period,
        ),
        seed=seed_base,
    )
    up = LinkSpec(
        network=name,
        direction="uplink",
        config=ChannelConfig(
            mean_rate=up_rate,
            volatility=up_volatility,
            outage_rate=outage_rate,
            fade_depth=fade_depth,
            fade_period=fade_period * 1.3,
        ),
        seed=seed_base + 1,
    )
    return NetworkSpec(name=name, downlink=down, uplink=up)


#: The four networks of the paper's evaluation, calibrated as described above.
NETWORKS: Dict[str, NetworkSpec] = {
    spec.name: spec
    for spec in (
        _make_network(
            "Verizon LTE",
            down_rate=450.0,
            down_volatility=220.0,
            up_rate=330.0,
            up_volatility=160.0,
            outage_rate=0.008,
            seed_base=1000,
            fade_depth=0.55,
            fade_period=9.0,
        ),
        _make_network(
            "Verizon 3G (1xEV-DO)",
            down_rate=55.0,
            down_volatility=28.0,
            up_rate=48.0,
            up_volatility=22.0,
            outage_rate=0.02,
            seed_base=2000,
            fade_depth=0.6,
            fade_period=14.0,
        ),
        _make_network(
            "AT&T LTE",
            down_rate=280.0,
            down_volatility=150.0,
            up_rate=80.0,
            up_volatility=40.0,
            outage_rate=0.012,
            seed_base=3000,
            fade_depth=0.5,
            fade_period=10.0,
        ),
        _make_network(
            "T-Mobile 3G (UMTS)",
            down_rate=140.0,
            down_volatility=70.0,
            up_rate=100.0,
            up_volatility=50.0,
            outage_rate=0.015,
            seed_base=4000,
            fade_depth=0.55,
            fade_period=13.0,
        ),
    )
}


def network_names() -> List[str]:
    """Names of all modelled networks, in the paper's presentation order."""
    return list(NETWORKS.keys())


def link_names() -> List[str]:
    """Names of all eight modelled links (network x direction)."""
    names: List[str] = []
    for spec in NETWORKS.values():
        names.append(spec.downlink.name)
        names.append(spec.uplink.name)
    return names


def get_network(name: str) -> NetworkSpec:
    """Look up a network by exact name.

    Raises:
        KeyError: with the list of valid names, if ``name`` is unknown.
    """
    try:
        return NETWORKS[name]
    except KeyError:
        raise KeyError(
            f"unknown network {name!r}; valid networks: {', '.join(NETWORKS)}"
        ) from None


def get_link(name: str) -> LinkSpec:
    """Look up a single link by ``"<network> <direction>"`` or by key."""
    for spec in NETWORKS.values():
        for link in spec.links:
            if name in (link.name, link.key):
                return link
    raise KeyError(f"unknown link {name!r}; valid links: {', '.join(link_names())}")


def link_trace(
    link: LinkSpec, duration: float = DEFAULT_TRACE_DURATION, seed_offset: int = 0
) -> List[float]:
    """Delivery-opportunity trace for ``link``, memoised for reuse.

    Memoisation goes through :mod:`repro.traces.cache`, keyed by the link's
    full channel configuration (not its name), so sweep-modified variants of
    a registry link get their own traces.  The returned list is a defensive
    copy — mutating it cannot corrupt the memo.

    ``seed_offset`` selects an alternative realisation of the same channel
    (used, e.g., to give the feedback direction of an experiment a trace that
    is statistically identical to but independent from the data direction).
    """
    config, duration, seed = link.config, float(duration), int(link.seed) + int(seed_offset)
    return list(
        global_cache().get(
            trace_key(config, duration, seed),
            lambda: tuple(generate_trace(config, duration, seed=seed)),
        )
    )
