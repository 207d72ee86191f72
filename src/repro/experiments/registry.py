"""Registry of the evaluation's schemes (the columns of Figure 7).

Each entry knows how to build a fresh (sender, receiver) protocol pair and
whether the scheme requires CoDel at the bottleneck (Cubic-CoDel is TCP
Cubic run over a CoDel-managed queue — an in-network change, Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Tuple

from repro.baselines.base import AckingReceiver
from repro.baselines.compound import CompoundSender
from repro.baselines.cubic import CubicSender
from repro.baselines.ledbat import LedbatSender
from repro.baselines.reno import RenoSender
from repro.baselines.vegas import VegasSender
from repro.baselines.videoconference import make_facetime, make_hangout, make_skype
from repro.core.connection import SproutConfig, make_connection
from repro.simulation.endpoints import Protocol

SchemeFactory = Callable[[], Tuple[Protocol, Protocol]]


@dataclass(frozen=True)
class SchemeSpec:
    """A runnable scheme: display name, endpoint factory, link options."""

    name: str
    factory: SchemeFactory = field(compare=False)
    use_codel: bool = False
    category: str = "transport"


def _sprout_pair(confidence: float = 0.95) -> Tuple[Protocol, Protocol]:
    connection = make_connection(SproutConfig(confidence=confidence))
    return connection.sender, connection.receiver


def _sprout_ewma_pair() -> Tuple[Protocol, Protocol]:
    connection = make_connection(SproutConfig(use_ewma=True))
    return connection.sender, connection.receiver


def _tcp_pair(sender_cls) -> SchemeFactory:
    def factory() -> Tuple[Protocol, Protocol]:
        return sender_cls(), AckingReceiver()

    return factory


def _sprout_pair_from_config(config: SproutConfig) -> Tuple[Protocol, Protocol]:
    connection = make_connection(config)
    return connection.sender, connection.receiver


def sprout_variant(name: str, config: SproutConfig) -> SchemeSpec:
    """An ad-hoc Sprout scheme built from an explicit :class:`SproutConfig`.

    The factory is a :func:`functools.partial` over a module-level function,
    so — unlike a closure — the spec pickles and can be shipped to matrix
    worker processes.  The sweep engine builds its sigma/tick variants here.
    """
    return SchemeSpec(
        name=name,
        factory=partial(_sprout_pair_from_config, config),
        category="sprout",
    )


def sprout_variant_config(spec: SchemeSpec) -> "SproutConfig | None":
    """The :class:`SproutConfig` behind a :func:`sprout_variant` spec.

    Returns ``None`` for specs built any other way.  This is the one place
    that knows the variant factory's shape, so the sweep expanders and the
    pool's model scheduler recover configs through a checkable contract
    instead of each pattern-matching ``partial`` internals.
    """
    factory = spec.factory
    if (
        isinstance(factory, partial)
        and factory.func is _sprout_pair_from_config
        and len(factory.args) == 1
        and isinstance(factory.args[0], SproutConfig)
        and not factory.keywords
    ):
        return factory.args[0]
    return None


def sprout_with_confidence(confidence: float) -> SchemeSpec:
    """Sprout with a non-default forecast confidence (Figure 9's sweep)."""
    return sprout_variant(
        f"Sprout ({int(round(confidence * 100))}%)",
        SproutConfig(confidence=confidence),
    )


#: All named schemes of the evaluation.
SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("Sprout", _sprout_pair, category="sprout"),
        SchemeSpec("Sprout-EWMA", _sprout_ewma_pair, category="sprout"),
        SchemeSpec("Cubic", _tcp_pair(CubicSender), category="tcp"),
        SchemeSpec("Cubic-CoDel", _tcp_pair(CubicSender), use_codel=True, category="tcp"),
        SchemeSpec("Reno", _tcp_pair(RenoSender), category="tcp"),
        SchemeSpec("Vegas", _tcp_pair(VegasSender), category="tcp"),
        SchemeSpec("Compound TCP", _tcp_pair(CompoundSender), category="tcp"),
        SchemeSpec("LEDBAT", _tcp_pair(LedbatSender), category="tcp"),
        SchemeSpec("Skype", make_skype, category="videoconference"),
        SchemeSpec("Google Hangout", make_hangout, category="videoconference"),
        SchemeSpec("Facetime", make_facetime, category="videoconference"),
    )
}

#: The schemes plotted in Figure 7 (Reno is extra; the paper plots these 11
#: minus Reno and Cubic-CoDel, which appears in Figure 8 / the intro table).
FIGURE7_SCHEMES: List[str] = [
    "Sprout",
    "Sprout-EWMA",
    "Skype",
    "Google Hangout",
    "Facetime",
    "Cubic",
    "Vegas",
    "Compound TCP",
    "LEDBAT",
]

#: The schemes in the introduction's headline table.
INTRO_TABLE_SCHEMES: List[str] = FIGURE7_SCHEMES + ["Cubic-CoDel"]


def get_scheme(name: str) -> SchemeSpec:
    """Look up a scheme by display name.

    Raises:
        KeyError: listing the valid names, if the scheme is unknown.
    """
    try:
        return SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown scheme {name!r}; valid schemes: {', '.join(SCHEMES)}"
        ) from None


def scheme_names() -> List[str]:
    """All registered scheme names."""
    return list(SCHEMES.keys())
