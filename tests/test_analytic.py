"""Property suite for the closed-form predictors (repro.experiments.analytic).

Hypothesis drives the closed-form predictors over their whole input ranges
and asserts their qualitative shape:

* the PFTK Reno and CUBIC response functions are non-increasing in both
  the loss rate and the round-trip time;
* the CSA transfer-time model is non-increasing in the segment size (this
  is the property the model's deliberate steady-state-window deviation
  buys — see :func:`repro.experiments.analytic.csa_transfer_time`);
* the Sprout moment closure always returns finite, strictly positive
  moments, and its conservative rate never exceeds the forecast mean.

Frozen ``@example`` cases pin the regime boundaries that bit during
development: the ``T0 = max(MIN_RTO, 2*RTT)`` kink at ``rtt = 0.1``, the
``min(1, 3*sqrt(3bp/8))`` timeout saturation near ``p = 8/27``, and the
``ceil(nbytes/mss)`` packetisation steps of the CSA model.

The consistency block at the bottom asserts the analytic constants still
match the simulator's — if a baseline constant changes, the predictors
(and the oracle tolerance calibrated against them) must be revisited.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.base import SEGMENTS_PER_ACK, RttEstimator
from repro.baselines.cubic import CubicSender
from repro.baselines.reno import RenoSender
from repro.experiments.analytic import (
    ACKS_PER_SEGMENT,
    CUBIC_BETA,
    CUBIC_C,
    csa_transfer_time,
    cubic_throughput_pps,
    reno_throughput_pps,
    sprout_conservative_rate_pps,
    sprout_forecast_moments,
)
from repro.core.rate_model import RateModelParams

# One relaxed profile for the whole module: the predictors are pure float
# math, but the CI box is slow enough that the default 200ms deadline flakes.
COMMON = settings(deadline=None, max_examples=200)

LOSSES = st.floats(min_value=1e-6, max_value=0.6)
RTTS = st.floats(min_value=1e-3, max_value=2.0)
RATES = st.floats(min_value=1.0, max_value=5000.0)
#: multiplicative step used to build ordered input pairs
STEPS = st.floats(min_value=1.0, max_value=10.0)


# ----------------------------------------------------- response functions


@COMMON
@given(loss=LOSSES, step=STEPS, rtt=RTTS)
# timeout-term saturation boundary: min(1, 3*sqrt(3bp/8)) hits 1 at p = 8/27
@example(loss=8.0 / 27.0 - 1e-9, step=1.0 + 1e-6, rtt=0.05)
@example(loss=1e-6, step=10.0, rtt=2.0)
def test_reno_throughput_non_increasing_in_loss(loss, step, rtt):
    worse = min(0.999, loss * step)
    assert reno_throughput_pps(worse, rtt) <= reno_throughput_pps(loss, rtt) * (
        1.0 + 1e-12
    )


@COMMON
@given(loss=LOSSES, rtt=RTTS, step=STEPS)
# the T0 = max(MIN_RTO, 2*rtt) kink sits at rtt = MIN_RTO / 2 = 0.1
@example(loss=0.02, rtt=0.1 - 1e-9, step=1.0 + 1e-6)
@example(loss=0.6, rtt=1e-3, step=10.0)
def test_reno_throughput_non_increasing_in_rtt(loss, rtt, step):
    assert reno_throughput_pps(loss, rtt * step) <= reno_throughput_pps(
        loss, rtt
    ) * (1.0 + 1e-12)


@COMMON
@given(loss=LOSSES, step=STEPS, rtt=RTTS)
# the cubic/friendly crossover: cubic dominates at long RTT and low loss
@example(loss=1e-4, step=2.0, rtt=1.0)
@example(loss=8.0 / 27.0 - 1e-9, step=1.0 + 1e-6, rtt=0.05)
def test_cubic_throughput_non_increasing_in_loss(loss, step, rtt):
    worse = min(0.999, loss * step)
    assert cubic_throughput_pps(worse, rtt) <= cubic_throughput_pps(loss, rtt) * (
        1.0 + 1e-12
    )


@COMMON
@given(loss=LOSSES, rtt=RTTS, step=STEPS)
@example(loss=0.02, rtt=0.1 - 1e-9, step=1.0 + 1e-6)
@example(loss=1e-4, rtt=0.5, step=1.5)
def test_cubic_throughput_non_increasing_in_rtt(loss, rtt, step):
    assert cubic_throughput_pps(loss, rtt * step) <= cubic_throughput_pps(
        loss, rtt
    ) * (1.0 + 1e-12)


@COMMON
@given(loss=LOSSES, rtt=RTTS)
def test_cubic_at_least_tcp_friendly(loss, rtt):
    """The implementation's TCP-friendly region guarantees >= Reno."""
    assert cubic_throughput_pps(loss, rtt) >= reno_throughput_pps(loss, rtt) * (
        1.0 - 1e-12
    )


@COMMON
@given(loss=LOSSES, rtt=RTTS, wmax=st.floats(min_value=2.0, max_value=1000.0))
def test_window_bound_caps_both_responses(loss, rtt, wmax):
    bound = wmax / rtt
    assert reno_throughput_pps(loss, rtt, wmax=wmax) <= bound * (1.0 + 1e-12)
    assert cubic_throughput_pps(loss, rtt, wmax=wmax) <= bound * (1.0 + 1e-12)


# --------------------------------------------------------- CSA transfer time


@COMMON
@given(
    nbytes=st.floats(min_value=1.0, max_value=1e8),
    mss=st.floats(min_value=100.0, max_value=9000.0),
    step=STEPS,
    rtt=RTTS,
    loss=st.floats(min_value=0.0, max_value=0.6),
)
# packetisation boundary: ceil(2896/1447) = 3 segments, ceil(2896/1448) = 2
@example(nbytes=2896.0, mss=1447.0, step=1448.0 / 1447.0, rtt=0.1, loss=0.02)
# mss beyond the transfer size: a single segment either way
@example(nbytes=1000.0, mss=2000.0, step=4.0, rtt=0.05, loss=0.1)
@example(nbytes=1e8, mss=100.0, step=10.0, rtt=2.0, loss=0.6)
# found by Hypothesis: subnormal loss underflows 1-loss to 1.0 and made the
# steady-state algebra overflow to nan before the lossless-limit guard
@example(nbytes=1.0, mss=100.0, step=1.0, rtt=1.0, loss=2.225073858507e-311)
def test_csa_transfer_time_non_increasing_in_mss(nbytes, mss, step, rtt, loss):
    bigger = mss * step
    assert csa_transfer_time(nbytes, bigger, rtt, loss) <= csa_transfer_time(
        nbytes, mss, rtt, loss
    ) * (1.0 + 1e-12)


@COMMON
@given(
    nbytes=st.floats(min_value=1.0, max_value=1e8),
    mss=st.floats(min_value=100.0, max_value=9000.0),
    rtt=RTTS,
    loss=st.floats(min_value=0.0, max_value=0.6),
)
# found by Hypothesis: see the matching frozen example above
@example(nbytes=1.0, mss=100.0, rtt=1.0, loss=2.2250738585e-313)
def test_csa_transfer_time_finite_and_positive(nbytes, mss, rtt, loss):
    elapsed = csa_transfer_time(nbytes, mss, rtt, loss)
    assert math.isfinite(elapsed)
    assert elapsed > 0.0


# ----------------------------------------------------- Sprout moment closure


@COMMON
@given(
    rate=RATES,
    sigma=st.floats(min_value=0.0, max_value=500.0),
    tick=st.floats(min_value=1e-3, max_value=0.5),
    ticks=st.integers(min_value=1, max_value=500),
)
@example(rate=1.0, sigma=0.0, tick=1e-3, ticks=1)
@example(rate=5000.0, sigma=500.0, tick=0.5, ticks=500)
def test_sprout_moments_finite_and_positive(rate, sigma, tick, ticks):
    params = RateModelParams(sigma=sigma, tick=tick)
    mean, variance = sprout_forecast_moments(rate, params, horizon_ticks=ticks)
    assert math.isfinite(mean) and mean > 0.0
    assert math.isfinite(variance) and variance > 0.0
    # the Poisson floor: even a noiseless rate model keeps count variance
    assert variance >= mean * (1.0 - 1e-12)


@COMMON
@given(
    rate=RATES,
    sigma=st.floats(min_value=0.0, max_value=500.0),
    confidence=st.floats(min_value=0.5, max_value=0.999),
)
def test_sprout_conservative_rate_bounded_by_mean(rate, sigma, confidence):
    params = RateModelParams(sigma=sigma)
    cautious = sprout_conservative_rate_pps(rate, params, confidence=confidence)
    assert math.isfinite(cautious)
    assert 0.0 <= cautious <= rate * (1.0 + 1e-12)


# -------------------------------------------- simulator-constant consistency


def test_analytic_constants_match_simulator():
    """The predictors are calibrated against these exact baseline constants.

    If any assert here fires, the analytic model (and ORACLE_TOLERANCE,
    calibrated in docs/analytic.md) must be re-derived, not just the
    constant updated.
    """
    assert RenoSender.ALPHA == 1.0
    assert RenoSender.BETA == 0.5
    assert CubicSender.C == CUBIC_C
    assert CubicSender.BETA == CUBIC_BETA
    assert SEGMENTS_PER_ACK == 1
    assert ACKS_PER_SEGMENT == 1.0
    assert RttEstimator.MIN_RTO == 0.2
