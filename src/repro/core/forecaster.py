"""Receiver-side rate inference and cautious forecasting (Sections 3.2-3.3).

The :class:`BayesianForecaster` owns the belief distribution over the link
rate and exposes the two operations the Sprout receiver performs every tick:

* :meth:`tick` — advance the belief one tick, optionally incorporating the
  number of bytes observed during that tick (the observation is skipped when
  the sender's "time-to-next" marking says the queue is known to be empty);
* :meth:`forecast` — the cautious cumulative-delivery forecast: for each of
  the next eight ticks, the number of bytes that will be delivered with at
  least the configured confidence.

:class:`EWMAForecaster` is the drop-in replacement used by Sprout-EWMA
(Section 5.3): the same interface, but the estimate is a simple
exponentially-weighted moving average of the observed per-tick throughput
and the "forecast" just extrapolates that rate with no caution.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from repro.core.rate_model import RateModel, RateModelParams, shared_rate_model


class Forecaster(ABC):
    """Common interface of the Bayesian and EWMA forecasters."""

    #: tick duration in seconds
    tick_duration: float
    #: number of ticks covered by each forecast
    forecast_ticks: int

    @abstractmethod
    def tick(self, observed_bytes: Optional[float], at_least: bool = False) -> None:
        """Advance one tick.

        Args:
            observed_bytes: bytes that arrived during the tick, or ``None``
                to skip the observation entirely (the sender said nothing
                should be expected yet).
            at_least: True when the observation is only a lower bound on the
                link's deliverable bytes — the queue ran dry because the
                sender had nothing more to send, so the link may well have
                been able to deliver more (generalised time-to-next rule).
        """

    @abstractmethod
    def forecast(self) -> np.ndarray:
        """Cumulative bytes expected to be deliverable in each future tick."""

    @abstractmethod
    def estimated_rate_bytes_per_sec(self) -> float:
        """Current point estimate of the link rate in bytes/second."""


class BayesianForecaster(Forecaster):
    """Sprout's stochastic forecaster.

    Args:
        confidence: probability with which the forecast must be achievable;
            the paper uses 0.95.  The forecast is the ``1 - confidence``
            quantile of the cumulative-delivery distribution (Section 5.5
            sweeps this parameter to trace the throughput/delay frontier of
            Figure 9).
        params: model parameters; defaults to the paper's frozen values.
        model: optionally, a pre-built (shared) :class:`RateModel`.

    The forecast is cached between ticks (the belief only changes in
    :meth:`tick`); code that mutates :attr:`belief` directly must set
    ``_belief_dirty`` to invalidate the cache.
    """

    def __init__(
        self,
        confidence: float = 0.95,
        params: Optional[RateModelParams] = None,
        model: Optional[RateModel] = None,
    ) -> None:
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        self.model = model if model is not None else shared_rate_model(params)
        self.confidence = confidence
        self.percentile = 1.0 - confidence
        self.belief = self.model.uniform_prior()
        self.tick_duration = self.model.params.tick
        self.forecast_ticks = self.model.params.forecast_ticks
        self.mtu_bytes = self.model.params.mtu_bytes
        self.ticks_processed = 0
        self.observations = 0
        # Lazy-forecast bookkeeping: `tick()` marks the belief dirty and
        # `forecast()` recomputes only then, so several forecasts between
        # ticks (e.g. feedback retransmits) cost one quantile extraction.
        self._belief_dirty = True
        self._cached_forecast_bytes: Optional[np.ndarray] = None
        # Batched-engine hook (install_step): a pre-computed result for the
        # *next* tick, plus hit/fallback counters for observability.
        self._installed: Optional[tuple] = None
        self.batched_steps = 0
        self.batched_fallbacks = 0

    def install_step(
        self,
        observed_bytes: Optional[float],
        at_least: bool,
        belief: np.ndarray,
        forecast_bytes: Optional[np.ndarray] = None,
    ) -> None:
        """Pre-load the result of the next :meth:`tick` call.

        The batched cross-cell engine (``repro.experiments.batched``)
        computes many cells' belief updates — and optionally their
        forecasts — in one vectorized kernel, then installs each cell's row
        here.  The installed step only applies if the next ``tick()`` call
        arrives with exactly the predicted observation; any mismatch falls
        back to the ordinary per-cell computation, so a driver mis-prediction
        can cost speed but never correctness.  ``belief`` (and
        ``forecast_bytes`` if given) are kept by reference — row views of a
        batch matrix are fine, as long as the caller never mutates them
        afterwards; the forecaster itself only reads them (``forecast()``
        hands out copies).
        """
        self._installed = (observed_bytes, at_least, belief, forecast_bytes)

    def _consume_installed(
        self, observed_bytes: Optional[float], at_least: bool
    ) -> bool:
        installed = self._installed
        if installed is None:
            return False
        self._installed = None
        expected_bytes, expected_at_least, belief, forecast_bytes = installed
        matches = (
            expected_bytes == observed_bytes
            if expected_bytes is not None and observed_bytes is not None
            else expected_bytes is None and observed_bytes is None
        )
        if not matches or bool(expected_at_least) != bool(at_least):
            self.batched_fallbacks += 1
            return False
        self.belief = belief
        if forecast_bytes is not None:
            self._cached_forecast_bytes = forecast_bytes
            self._belief_dirty = False
        else:
            self._belief_dirty = True
        self.batched_steps += 1
        return True

    def tick(self, observed_bytes: Optional[float], at_least: bool = False) -> None:
        if self._consume_installed(observed_bytes, at_least):
            if observed_bytes is not None:
                self.observations += 1
            self.ticks_processed += 1
            return
        if observed_bytes is None:
            self.belief = self.model.evolve(self.belief)
        else:
            if observed_bytes < 0:
                raise ValueError("observed_bytes must be non-negative")
            packets = observed_bytes / self.mtu_bytes
            self.belief = self.model.update(self.belief, packets, censored=at_least)
            self.observations += 1
        self.ticks_processed += 1
        self._belief_dirty = True

    def forecast(self) -> np.ndarray:
        if self._belief_dirty or self._cached_forecast_bytes is None:
            # The kernel returns a fresh array: scale packets to bytes in place.
            forecast = self.model.cumulative_quantile(self.belief, self.percentile)
            forecast *= self.mtu_bytes
            self._cached_forecast_bytes = forecast
            self._belief_dirty = False
        return self._cached_forecast_bytes.copy()

    def estimated_rate_bytes_per_sec(self) -> float:
        return self.model.expected_rate(self.belief) * self.mtu_bytes

    def rate_distribution(self) -> np.ndarray:
        """Copy of the current belief over the discretized rates."""
        return self.belief.copy()


class TickFromWallClock:
    """Maps continuous wall-clock time onto the forecaster's tick lattice.

    The simulator calls ``on_tick`` exactly every ``tick_interval`` seconds
    of *simulated* time; a real endpoint wakes up from ``select()`` at
    irregular wall-clock moments.  This adapter anchors a tick lattice
    ``base + k * tick_interval`` at :meth:`start` and answers, at each
    wake-up, how many ticks have fallen due since the last call — so the
    protocol's per-tick bookkeeping (observation windows, feedback cadence)
    stays on the paper's 20 ms grid regardless of scheduling jitter.

    A stall (GC pause, busy CPU) can leave many ticks pending at once.
    Re-playing them all would feed the forecaster a burst of empty
    observations at the wrong wall-clock moment, so catch-up is bounded by
    ``max_catchup`` ticks per wake-up; anything older is skipped (counted
    in :attr:`ticks_skipped`) and the lattice position simply advances, the
    same way a late video player drops frames rather than fast-forwarding.
    """

    def __init__(self, tick_interval: float, max_catchup: int = 8) -> None:
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if max_catchup < 1:
            raise ValueError("max_catchup must be at least 1")
        self.tick_interval = float(tick_interval)
        self.max_catchup = int(max_catchup)
        self._base: Optional[float] = None
        self._fired = 0
        self.ticks_fired = 0
        self.ticks_skipped = 0

    def start(self, now: float) -> None:
        """Anchor the lattice; the first tick falls due at ``now + interval``."""
        self._base = now
        self._fired = 0

    def due_ticks(self, now: float) -> int:
        """Number of ticks to run at this wake-up (0 if none are due yet).

        Advances the lattice position, so each tick is returned exactly
        once across calls; at most ``max_catchup`` per call, with older
        pending ticks dropped.
        """
        if self._base is None:
            self.start(now)
            return 0
        elapsed = int((now - self._base) / self.tick_interval + 1e-9)
        pending = elapsed - self._fired
        if pending <= 0:
            return 0
        if pending > self.max_catchup:
            skipped = pending - self.max_catchup
            self.ticks_skipped += skipped
            self._fired += skipped
            pending = self.max_catchup
        self._fired += pending
        self.ticks_fired += pending
        return pending

    def next_deadline(self) -> Optional[float]:
        """Wall-clock time of the next pending tick (None before start)."""
        if self._base is None:
            return None
        return self._base + (self._fired + 1) * self.tick_interval


class EWMAForecaster(Forecaster):
    """Sprout-EWMA's throughput tracker.

    The observed bytes per tick are smoothed with gain ``alpha``; the
    forecast simply assumes the link continues at the smoothed rate for the
    whole forecast horizon ("predicts that the link will continue at that
    speed for the next eight ticks", Section 5.3).
    """

    def __init__(
        self,
        alpha: float = 0.125,
        tick_duration: float = 0.020,
        forecast_ticks: int = 8,
        mtu_bytes: int = 1500,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if tick_duration <= 0:
            raise ValueError("tick_duration must be positive")
        if forecast_ticks < 1:
            raise ValueError("forecast_ticks must be at least 1")
        self.alpha = alpha
        self.tick_duration = tick_duration
        self.forecast_ticks = forecast_ticks
        self.mtu_bytes = mtu_bytes
        self.bytes_per_tick = 0.0
        self._initialised = False
        self.ticks_processed = 0
        self.observations = 0

    def tick(self, observed_bytes: Optional[float], at_least: bool = False) -> None:
        if observed_bytes is not None:
            if observed_bytes < 0:
                raise ValueError("observed_bytes must be non-negative")
            if at_least and self._initialised and observed_bytes < self.bytes_per_tick:
                # A sender-limited tick cannot pull the estimate down: the
                # link may have been able to deliver more than was offered.
                pass
            elif not self._initialised:
                self.bytes_per_tick = float(observed_bytes)
                self._initialised = True
            else:
                self.bytes_per_tick += self.alpha * (observed_bytes - self.bytes_per_tick)
            self.observations += 1
        self.ticks_processed += 1

    def forecast(self) -> np.ndarray:
        per_tick = max(self.bytes_per_tick, 0.0)
        return per_tick * np.arange(1, self.forecast_ticks + 1, dtype=float)

    def estimated_rate_bytes_per_sec(self) -> float:
        return max(self.bytes_per_tick, 0.0) / self.tick_duration
