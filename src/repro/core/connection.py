"""Convenience constructors for complete Sprout / Sprout-EWMA connections.

A "connection" here is the pair of protocol endpoints (sender, receiver)
that the experiment harness attaches to the two ends of an emulated link.
The data direction is sender -> receiver; the receiver returns forecasts on
the feedback direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.forecaster import BayesianForecaster, EWMAForecaster
from repro.core.rate_model import RateModelParams
from repro.core.receiver import SproutReceiver
from repro.core.sender import PayloadProvider, SproutSender


@dataclass
class SproutConfig:
    """Tunable knobs of a Sprout connection.

    The defaults reproduce the paper's frozen implementation: 95% forecast
    confidence, 20 ms ticks, 100 ms delay target (5-tick look-ahead),
    160 ms forecast horizon (8 ticks).
    """

    confidence: float = 0.95
    lookahead_ticks: int = 5
    tick_interval: float = 0.020
    heartbeat_interval: float = 0.100
    feedback_interval_ticks: int = 1
    bootstrap_packets_per_tick: int = 1
    use_ewma: bool = False
    ewma_alpha: float = 0.125
    model_params: Optional[RateModelParams] = None
    #: record the receiver's per-tick rate estimate and the sender's windows
    #: (costs memory on long runs)
    record_history: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


@dataclass
class SproutConnection:
    """A matched sender/receiver pair ready to attach to a path."""

    sender: SproutSender
    receiver: SproutReceiver
    config: SproutConfig


def make_connection(
    config: Optional[SproutConfig] = None,
    payload_provider: Optional[PayloadProvider] = None,
    flow_id: str = "sprout",
) -> SproutConnection:
    """Build a Sprout (or Sprout-EWMA) sender/receiver pair.

    Args:
        config: connection parameters; paper defaults if omitted.
        payload_provider: source of outgoing bytes for the sender; the
            saturating source if omitted.
        flow_id: label attached to the connection's packets.
    """
    cfg = config if config is not None else SproutConfig()
    if cfg.use_ewma:
        forecaster = EWMAForecaster(
            alpha=cfg.ewma_alpha,
            tick_duration=cfg.tick_interval,
        )
    else:
        forecaster = BayesianForecaster(
            confidence=cfg.confidence,
            params=cfg.model_params,
        )
    receiver = SproutReceiver(
        forecaster=forecaster,
        feedback_interval_ticks=cfg.feedback_interval_ticks,
        flow_id=flow_id,
        record_history=cfg.record_history,
    )
    sender = SproutSender(
        lookahead_ticks=cfg.lookahead_ticks,
        tick_interval=cfg.tick_interval,
        heartbeat_interval=cfg.heartbeat_interval,
        bootstrap_packets_per_tick=cfg.bootstrap_packets_per_tick,
        payload_provider=payload_provider,
        flow_id=flow_id,
        record_history=cfg.record_history,
    )
    return SproutConnection(sender=sender, receiver=receiver, config=cfg)


def make_sprout(confidence: float = 0.95, **kwargs) -> SproutConnection:
    """The full Sprout protocol with the paper's cautious forecasts."""
    return make_connection(SproutConfig(confidence=confidence), **kwargs)


def make_sprout_ewma(alpha: float = 0.125, **kwargs) -> SproutConnection:
    """Sprout-EWMA: same control protocol, EWMA rate tracking, no caution."""
    return make_connection(SproutConfig(use_ewma=True, ewma_alpha=alpha), **kwargs)
