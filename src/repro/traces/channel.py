"""Doubly-stochastic model of a cellular link's packet-delivery process.

Section 3.1 of the paper models the link as a Poisson packet-delivery
process whose rate :math:`\\lambda` itself varies in Brownian motion, with a
"sticky" outage state at :math:`\\lambda = 0` whose duration is exponential.
Our synthetic channel is drawn from the same family, with two pragmatic
extensions that make multi-minute traces realistic rather than divergent:

* the rate follows a *mean-reverting* (Ornstein–Uhlenbeck) random walk
  rather than a pure Brownian motion, so long traces keep the average rate
  of the network they are meant to imitate while still swinging by close to
  an order of magnitude within seconds (Section 2.2);
* slow "fading" oscillations and occasional deep dips model the effects of
  mobility and channel-quality-dependent scheduling that give the measured
  interarrival distribution its heavy (1/f-like) tail (Figure 2).

The channel produces the *ground truth* delivery opportunities: the times at
which an MTU-sized packet could cross the link if one were waiting, exactly
what the Saturator records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.simulation.random import SeedLike, make_rng


@dataclass
class ChannelConfig:
    """Parameters of the synthetic cellular channel.

    Rates are in MTU-sized packets per second (1 packet = 1500 bytes, so
    1 Mbit/s is roughly 83 packets/s).

    Attributes:
        mean_rate: long-run average delivery rate the process reverts to.
        volatility: instantaneous standard deviation of the rate's random
            walk, in packets/s per sqrt(second).  Larger values produce the
            dramatic sub-second swings seen on LTE.
        reversion_time: time constant (seconds) of mean reversion; the rate
            forgets its current value over roughly this horizon.
        max_rate: hard cap on the instantaneous rate (the paper's inference
            grid tops out at 1000 packets/s = 11 Mbit/s).
        outage_rate: Poisson rate (per second) at which the channel falls
            into an outage (rate pinned to zero).
        outage_escape_rate: exponential rate (per second) of leaving an
            outage; the paper's model uses lambda_z = 1/s.
        fade_period: period (seconds) of the slow fading oscillation.
        fade_depth: fraction of the mean rate removed at the bottom of a
            fade (0 disables fading).
        time_step: integration step for the rate process, seconds.
    """

    mean_rate: float
    volatility: float
    reversion_time: float = 4.0
    max_rate: float = 1000.0
    outage_rate: float = 0.01
    outage_escape_rate: float = 1.0
    fade_period: float = 11.0
    fade_depth: float = 0.5
    time_step: float = 0.02

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise ValueError("mean_rate must be positive")
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")
        if not 0 <= self.fade_depth <= 1:
            raise ValueError("fade_depth must be within [0, 1]")
        if self.time_step <= 0:
            raise ValueError("time_step must be positive")
        if self.max_rate < self.mean_rate:
            raise ValueError("max_rate must be at least mean_rate")


class CellularChannel:
    """Generates the time-varying rate process and its delivery opportunities."""

    def __init__(self, config: ChannelConfig, seed: SeedLike = 0) -> None:
        self.config = config
        self._rng = make_rng(seed, "cellular-channel")

    # ------------------------------------------------------------ rate path

    def rate_process(self, duration: float) -> np.ndarray:
        """Sample the instantaneous rate on a grid of ``time_step`` seconds.

        Returns an array ``rates`` with ``rates[i]`` the delivery rate
        (packets/s) during ``[i * time_step, (i + 1) * time_step)``.
        """
        cfg = self.config
        if duration <= 0:
            raise ValueError("duration must be positive")
        steps = int(math.ceil(duration / cfg.time_step))
        rates = np.empty(steps, dtype=float)

        rate = cfg.mean_rate
        in_outage = False
        # Random phase so different seeds do not all fade in unison.
        fade_phase = self._rng.uniform(0.0, 2.0 * math.pi)

        sqrt_dt = math.sqrt(cfg.time_step)
        theta = 1.0 / max(cfg.reversion_time, 1e-9)
        p_outage_start = 1.0 - math.exp(-cfg.outage_rate * cfg.time_step)
        p_outage_end = 1.0 - math.exp(-cfg.outage_escape_rate * cfg.time_step)

        for i in range(steps):
            t = i * cfg.time_step
            if in_outage:
                rates[i] = 0.0
                if self._rng.random() < p_outage_end:
                    in_outage = False
                    # Recover to a fraction of the mean rate and let the
                    # mean-reverting walk pull it back up.
                    rate = cfg.mean_rate * self._rng.uniform(0.1, 0.5)
                continue

            if self._rng.random() < p_outage_start:
                in_outage = True
                rates[i] = 0.0
                continue

            # Ornstein-Uhlenbeck step around the mean rate.
            noise = self._rng.normal(0.0, cfg.volatility * sqrt_dt)
            rate += theta * (cfg.mean_rate - rate) * cfg.time_step + noise
            rate = min(max(rate, 0.0), cfg.max_rate)

            # Slow multiplicative fading (mobility / scheduling effects).
            if cfg.fade_depth > 0:
                fade = 1.0 - cfg.fade_depth * 0.5 * (
                    1.0 + math.sin(2.0 * math.pi * t / cfg.fade_period + fade_phase)
                )
            else:
                fade = 1.0
            rates[i] = rate * fade

        return rates

    # ----------------------------------------------------------- deliveries

    def delivery_times(
        self, duration: float, rates: Optional[np.ndarray] = None
    ) -> List[float]:
        """Sample delivery-opportunity times over ``[0, duration)``.

        Within each time step the number of opportunities is Poisson with
        mean ``rate * time_step`` and the opportunities are spread uniformly
        at random inside the step, giving the memoryless small-scale
        behaviour the paper measures (Figure 2) while the step-to-step rate
        variation supplies the heavy tail.
        """
        cfg = self.config
        if rates is None:
            rates = self.rate_process(duration)
        times: List[float] = []
        for i, rate in enumerate(rates):
            if rate <= 0.0:
                continue
            count = self._rng.poisson(rate * cfg.time_step)
            if count == 0:
                continue
            start = i * cfg.time_step
            offsets = self._rng.uniform(0.0, cfg.time_step, size=count)
            offsets.sort()
            times.extend((offsets + start).tolist())
        # Guard: a trace must contain at least one opportunity for the
        # emulator to have a meaningful period.
        if not times:
            times.append(duration)
        return times
