"""Analytic screening tier: closed-form predictors, screening, validation.

Million-cell grids are intractable if every cell is emulated, but most cells
are nowhere near the throughput/delay frontier the paper's Figures 7/8 plot.
This module provides closed-form steady-state predictors — evaluated in
microseconds instead of the seconds a packet-level emulation costs — and
wires them into the grid engine two ways (docs/analytic.md):

* **Screening** (:func:`run_grid_screened`, or ``run_grid(screen=...)`` /
  ``repro sweep --screen``): every cell is predicted analytically, and only
  cells near the predicted Pareto frontier or with high model uncertainty
  are emulated.  Screened-out cells land in the grid as
  :class:`~repro.metrics.summary.ScreenedResult` records carrying the
  *predicted* metrics, exported with ``screened`` / ``predicted_*`` fields
  (schema v4) so a reader can never mistake a prediction for a measurement.
* **Differential validation** (:func:`validate_grid`): simulated Reno/Cubic
  throughput is compared against the analytic prediction, and structured
  :class:`Divergence` records — in the in-place reporting style of the
  error-policy layer's :class:`~repro.experiments.policy.CellError` — are
  emitted where relative error exceeds the calibrated tolerance.  This is a
  standing correctness oracle: an accidental change to the AIMD constants,
  the ACK clock, or the loss machinery trips it (``tests/test_analytic_
  oracle.py``).

The predictors:

* :func:`reno_throughput_pps` — the PFTK steady-state response function
  (Padhye, Firoiu, Towsley & Kurose, SIGCOMM 1998), with the timeout term.
* :func:`cubic_throughput_pps` — the CUBIC response function (Ha, Rhee &
  Xu 2008), lower-bounded by the TCP-friendly (Reno-equivalent) region the
  implementation enforces.
* :func:`csa_transfer_time` — a Cardwell–Savage–Anderson style model of a
  finite transfer: slow start, the first-loss cost, then PFTK-rate
  congestion avoidance.
* :func:`queueing_delay_s` — the standing-queue sojourn implied by
  (link rate, qlimit, aqm) for a buffer-filling loss-based sender.
* :func:`sprout_forecast_moments` — a moment-closure approximation of the
  Sprout forecast: mean/variance of cumulative delivery under the Brownian
  rate model, instead of the full per-tick CDF tensor.

All formulas use the textbook constants *independently* of the simulator's
baseline classes; the oracle tests assert the two agree (for example that
``RenoSender.BETA`` is the ``1/2`` baked into PFTK's ``sqrt(2bp/3)``), so a
drive-by change to either side surfaces as a test failure rather than a
silent recalibration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines.base import RttEstimator
from repro.core.connection import SproutConfig
from repro.core.rate_model import RateModelParams
from repro.experiments.competing import competing_scheme_parts
from repro.experiments.parallel import Cell, CellOutcome, ProgressCallback, run_cells
from repro.experiments.policy import (
    ErrorPolicy,
    cell_link_name,
    cell_scheme_name,
    is_cell_error,
)
from repro.experiments.registry import SchemeSpec, get_scheme, sprout_variant_config
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import GridData, GridSpec, expand_grid, grid_points
from repro.metrics.summary import ScreenedResult, SchemeResult, is_screened
from repro.simulation.delay_box import DEFAULT_PROPAGATION_DELAY
from repro.simulation.packet import MTU_BYTES
from repro.simulation.queues import AQM_CODEL, QueueConfig
from repro.traces.channel import ChannelConfig
from repro.traces.networks import LinkSpec, get_link

__all__ = [
    "AnalyticPrediction",
    "Divergence",
    "ORACLE_SCHEMES",
    "ORACLE_TOLERANCE",
    "ScreenConfig",
    "ScreenPlan",
    "csa_transfer_time",
    "cubic_throughput_pps",
    "effective_link_rate_pps",
    "plan_screen",
    "predict_cell",
    "queueing_delay_s",
    "render_divergences",
    "reno_throughput_pps",
    "run_grid_screened",
    "sprout_conservative_rate_pps",
    "sprout_forecast_moments",
    "validate_grid",
]

_INF = float("inf")

#: segments acknowledged per ACK.  :class:`~repro.baselines.base.AckingReceiver`
#: acks every data segment, so the PFTK ``b`` parameter is 1 here (delayed
#: ACKs would make it 2).
ACKS_PER_SEGMENT = 1.0


def _require_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")


def _require_loss(loss: float) -> None:
    if not 0.0 <= loss < 1.0:
        raise ValueError(f"loss rate must be in [0, 1), got {loss}")


# ------------------------------------------------------- TCP response functions


def reno_throughput_pps(
    loss: float,
    rtt: float,
    *,
    b: float = ACKS_PER_SEGMENT,
    min_rto: float = RttEstimator.MIN_RTO,
    wmax: float = _INF,
) -> float:
    """PFTK steady-state Reno throughput in packets per second.

    The full response function of Padhye et al. (1998), equation (30)::

                       wmax          1
        B(p) = min( ------ , --------------------------------------------- )
                      RTT     RTT*sqrt(2bp/3) + T0*min(1, 3*sqrt(3bp/8))
                                                  * p * (1 + 32 p^2)

    with ``T0 = max(min_rto, 2*RTT)`` (the simulator's RFC 6298 floor).
    ``loss == 0`` returns the receive-window bound ``wmax / rtt`` — infinite
    at the default ``wmax``, meaning "capacity-limited, not loss-limited".
    """
    _require_loss(loss)
    _require_positive("rtt", rtt)
    _require_positive("b", b)
    window_bound = wmax / rtt
    if loss == 0.0:
        return window_bound
    t0 = max(min_rto, 2.0 * rtt)
    fast_retransmit = rtt * math.sqrt(2.0 * b * loss / 3.0)
    timeout = (
        t0
        * min(1.0, 3.0 * math.sqrt(3.0 * b * loss / 8.0))
        * loss
        * (1.0 + 32.0 * loss * loss)
    )
    return min(window_bound, 1.0 / (fast_retransmit + timeout))


#: CUBIC's constants (Ha, Rhee & Xu 2008); the oracle asserts these match
#: :class:`~repro.baselines.cubic.CubicSender`'s class attributes.
CUBIC_C = 0.4
CUBIC_BETA = 0.7


def cubic_throughput_pps(
    loss: float,
    rtt: float,
    *,
    c: float = CUBIC_C,
    beta: float = CUBIC_BETA,
    b: float = ACKS_PER_SEGMENT,
    min_rto: float = RttEstimator.MIN_RTO,
    wmax: float = _INF,
) -> float:
    """CUBIC steady-state throughput in packets per second.

    The deterministic-loss response function of the cubic growth curve::

        B(p) = ( C * (3 + beta) / (4 * (1 - beta)) )^(1/4)
               * RTT^(-1/4) * p^(-3/4)

    lower-bounded by the Reno response (:func:`reno_throughput_pps`) because
    the implementation's TCP-friendly region guarantees at least standard
    AIMD throughput — the binding regime at the short RTTs and non-trivial
    loss rates of the cellular links here.
    """
    _require_loss(loss)
    _require_positive("rtt", rtt)
    window_bound = wmax / rtt
    if loss == 0.0:
        return window_bound
    cubic = (c * (3.0 + beta) / (4.0 * (1.0 - beta))) ** 0.25 * rtt**-0.25 * loss**-0.75
    friendly = reno_throughput_pps(loss, rtt, b=b, min_rto=min_rto, wmax=wmax)
    return min(window_bound, max(cubic, friendly))


# --------------------------------------------------------- CSA transfer time


def _timeout_probability(loss: float, window: float) -> float:
    """PFTK's Q-hat: probability a loss is detected by timeout, not dupacks."""
    w = max(window, 1.0)
    omp = 1.0 - loss
    denominator = -math.expm1(w * math.log(omp))  # 1 - (1-p)^w
    if not denominator > 0.0:  # also catches the nan of w=inf, log(omp)=0
        return 1.0
    numerator = 1.0 + omp**3 * -math.expm1((w - 3.0) * math.log(omp))
    q = numerator * -math.expm1(3.0 * math.log(omp)) / denominator
    # The guard keeps the small-window regime (where the algebra can leave
    # [0, 1]) pinned to "every loss is a timeout", matching CSA's min(1, .).
    return min(1.0, max(0.0, q))


def csa_transfer_time(
    nbytes: float,
    mss: float,
    rtt: float,
    loss: float,
    *,
    initial_window: float = 3.0,
    gamma: float = 1.5,
    b: float = ACKS_PER_SEGMENT,
    min_rto: float = RttEstimator.MIN_RTO,
) -> float:
    """Expected transfer time (seconds) of ``nbytes`` in the CSA model.

    Cardwell, Savage & Anderson (INFOCOM 2000) extend PFTK to finite
    transfers: expected time is the sum of the initial slow-start phase,
    the cost of the first loss (timeout or fast retransmit), and the
    remaining packets sent at the PFTK congestion-avoidance rate.  ``gamma``
    is the per-RTT slow-start growth factor (1.5 with delayed ACKs in the
    original; the every-segment-ACK receiver here doubles, but the model is
    used with its published default for tolerance continuity).

    One deliberate deviation from the paper: the timeout-vs-dupack split of
    the first loss uses the *steady-state* window (PFTK's E[W]) rather than
    the expected slow-start window, which makes the model provably
    non-increasing in ``mss`` (the Hypothesis property suite relies on it)
    at negligible cost in accuracy over the swept ranges.
    """
    _require_positive("nbytes", nbytes)
    _require_positive("mss", mss)
    _require_positive("rtt", rtt)
    _require_loss(loss)
    if gamma <= 1.0:
        raise ValueError(f"gamma must exceed 1 (slow start must grow), got {gamma}")
    packets = float(math.ceil(nbytes / mss))
    omp = 1.0 - loss
    if loss == 0.0 or omp == 1.0:
        # Pure slow start: the window grows geometrically until the transfer
        # completes; time is the number of gamma-rounds covering ``packets``.
        # The ``omp == 1.0`` arm catches subnormal loss rates that underflow
        # ``1 - loss`` — the steady-state algebra below would overflow, and
        # the lossless model is the right limit anyway.
        return rtt * math.log(packets * (gamma - 1.0) / initial_window + 1.0) / math.log(gamma)
    # Expected packets sent in the initial slow-start phase (CSA eq. 5),
    # capped by the transfer itself.
    loss_before_end = -math.expm1(packets * math.log(omp))  # 1 - (1-p)^d
    slow_start_packets = min(packets, math.floor(loss_before_end * omp / loss + 1.0))
    slow_start_time = (
        rtt
        * math.log(slow_start_packets * (gamma - 1.0) / initial_window + 1.0)
        / math.log(gamma)
    )
    # Steady-state window and congestion-avoidance rate (PFTK / CSA eq. 22).
    t0 = max(min_rto, 2.0 * rtt)
    k = (2.0 + b) / (3.0 * b)
    steady_window = k + math.sqrt(8.0 * omp / (3.0 * b * loss) + k * k)
    q = _timeout_probability(loss, steady_window)
    g = 1.0 + loss + 2 * loss**2 + 4 * loss**3 + 8 * loss**4 + 16 * loss**5 + 32 * loss**6
    expected_timeout = g * t0 / omp
    # Cost of the first loss, weighted by the chance the transfer sees one.
    first_loss_time = loss_before_end * (q * expected_timeout + (1.0 - q) * rtt)
    # Remaining packets at the steady-state CA rate (packets per second).
    ca_rate = (omp / loss + steady_window / 2.0 + q) / (
        rtt * (b / 2.0 * steady_window + 1.0) + q * expected_timeout
    )
    ca_packets = max(0.0, packets - slow_start_packets)
    return slow_start_time + first_loss_time + ca_packets / ca_rate


# ------------------------------------------------------------ queueing delay


def queueing_delay_s(
    link_rate_pps: float,
    queue: Optional[QueueConfig] = None,
    *,
    use_codel: bool = False,
    mss: float = MTU_BYTES,
) -> float:
    """Standing-queue sojourn (seconds) a buffer-filling sender settles at.

    A loss-based sender with no link loss grows its window until the
    bottleneck queue pushes back: under CoDel the controller holds the
    sojourn near its target; under a byte-limited drop-tail buffer the
    queue fills, so the sojourn is the full buffer's drain time; under the
    deep (unbounded) drop-tail buffer of the paper's carriers the standing
    queue grows without bound — returned as ``inf``, which is the honest
    prediction for the bufferbloat regime.
    """
    _require_positive("link_rate_pps", link_rate_pps)
    resolved = (queue if queue is not None else QueueConfig()).resolve(use_codel=use_codel)
    if resolved.aqm == AQM_CODEL:
        # CoDel holds the sojourn a little above target: drops happen only
        # after the interval has elapsed above it.
        return resolved.codel_target + resolved.codel_interval / 2.0
    if resolved.byte_limit is not None:
        return resolved.byte_limit / (link_rate_pps * mss)
    return _INF


# -------------------------------------------------- Sprout moment closure


def sprout_forecast_moments(
    rate_pps: float,
    params: Optional[RateModelParams] = None,
    horizon_ticks: Optional[int] = None,
) -> Tuple[float, float]:
    """Mean and variance of cumulative delivery over the forecast horizon.

    Sprout's forecast evolves a full per-tick CDF of the Brownian-motion
    rate model (paper section 3.2).  The moment closure keeps only the first
    two moments: with rate ``lambda_t`` a driftless Brownian motion of noise
    power sigma started at ``lambda_0``, cumulative delivery
    ``C = integral(lambda_t dt)`` over horizon ``T`` has

    * ``E[C]   = lambda_0 * T``               (the martingale property), and
    * ``Var[C] = sigma^2 * T^3 / 3 + lambda_0 * T``

    — the Brownian integral's variance plus the Poisson packet-count
    variance around the realised rate.  Outage stickiness is not folded in;
    its effect lands in the screening tier as prediction *uncertainty*
    rather than a biased moment.
    """
    _require_positive("rate_pps", rate_pps)
    resolved = params if params is not None else RateModelParams()
    ticks = horizon_ticks if horizon_ticks is not None else resolved.forecast_ticks
    if ticks <= 0:
        raise ValueError(f"horizon_ticks must be positive, got {ticks}")
    horizon = ticks * resolved.tick
    mean = rate_pps * horizon
    variance = resolved.sigma**2 * horizon**3 / 3.0 + mean
    return mean, variance


def sprout_conservative_rate_pps(
    rate_pps: float,
    params: Optional[RateModelParams] = None,
    confidence: float = 0.95,
    horizon_ticks: Optional[int] = None,
) -> float:
    """Sprout's cautious send rate under the moment closure (packets/s).

    The forecast commits to the delivery amount it is ``confidence`` sure
    of: the lower normal quantile of the cumulative-delivery distribution,
    floored at zero, spread over the horizon.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    from scipy.special import ndtri

    resolved = params if params is not None else RateModelParams()
    ticks = horizon_ticks if horizon_ticks is not None else resolved.forecast_ticks
    mean, variance = sprout_forecast_moments(rate_pps, resolved, ticks)
    horizon = ticks * resolved.tick
    cautious = max(0.0, mean - float(ndtri(confidence)) * math.sqrt(variance))
    return cautious / horizon


# ------------------------------------------------------------- cell predictor


def effective_link_rate_pps(channel: ChannelConfig) -> float:
    """Long-run mean delivery rate of a modelled channel (packets/s).

    The O-U rate process reverts to ``mean_rate``; the sinusoidal fade
    multiplies by ``1 - fade_depth/2`` on average; outages (arrival rate
    ``outage_rate``, escape rate ``outage_escape_rate``) contribute an
    on-air duty cycle of ``escape / (escape + arrival)``.
    """
    if channel.outage_escape_rate > 0:
        duty = 1.0 / (1.0 + channel.outage_rate / channel.outage_escape_rate)
    else:
        duty = 0.0 if channel.outage_rate > 0 else 1.0
    fade = 1.0 - 0.5 * channel.fade_depth
    return channel.mean_rate * fade * duty


@dataclass(frozen=True)
class AnalyticPrediction:
    """A cell's predicted operating point, with the model's self-assessment.

    ``delay_s`` predicts the *self-inflicted* delay (the frontier metric);
    ``uncertainty`` in ``[0, 1]`` is the screening tier's confidence
    complement — cells at or above the screen's threshold are always
    emulated.  ``model`` names the formula that produced the numbers.
    """

    throughput_bps: float
    delay_s: float
    capacity_bps: float
    uncertainty: float
    model: str


#: fraction of the mean link rate a buffer-filling scheme is predicted to
#: achieve (trace burstiness keeps measured utilization below 100%)
_FILL_FACTOR = 0.95

#: per-regime uncertainty scores (docs/analytic.md's calibration table)
_UNCERTAINTY = {
    "loss_limited": 0.25,
    "loss_limited_volatile": 0.5,
    "cubic_mode": 0.65,
    "capacity_limited": 0.5,
    "codel": 0.55,
    "buffer_filling": 0.9,
    "sprout": 0.7,
    "ewma": 0.8,
}

#: above this ratio of the pure-cubic term to the TCP-friendly (Reno) term,
#: CUBIC's real-time window growth leaves the AIMD regime the response
#: function models well: random loss gaps let the cubic curve balloon far
#: past the deterministic-loss average (calibration: docs/analytic.md), so
#: such cells get ``cubic_mode`` uncertainty — always emulated, never
#: oracle-checked
CUBIC_FRIENDLY_RATIO = 0.4


def _channel_steady(channel: ChannelConfig) -> bool:
    """Is the channel deterministic at its mean rate (no variance terms)?"""
    return (
        channel.volatility == 0.0
        and channel.outage_rate == 0.0
        and channel.fade_depth == 0.0
    )


def _link_rtt_s(link: LinkSpec, rate_pps: float) -> float:
    """The cell's unloaded round-trip time: propagation plus transmission."""
    propagation = (
        link.propagation_delay
        if link.propagation_delay is not None
        else DEFAULT_PROPAGATION_DELAY
    )
    return 2.0 * propagation + 2.0 / max(rate_pps, 1.0)


def predict_cell(
    scheme: Union[str, SchemeSpec],
    link: Union[str, LinkSpec],
    config: Optional[RunConfig] = None,
) -> Optional[AnalyticPrediction]:
    """Closed-form prediction for one matrix cell, or ``None``.

    ``None`` means "this cell has no analytic model" — competing-flow
    scenarios, the videoconference apps, and TCP variants without a
    published response function (Vegas, Compound, LEDBAT) — and the
    screening tier always emulates such cells.
    """
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    cfg = config if config is not None else RunConfig()
    if competing_scheme_parts(spec) is not None:
        return None
    link_spec = get_link(link) if isinstance(link, str) else link
    rate_pps = effective_link_rate_pps(link_spec.config)
    if rate_pps <= 0:
        return None
    capacity_bps = rate_pps * MTU_BYTES * 8.0
    rtt = _link_rtt_s(link_spec, rate_pps)
    loss = cfg.loss_rate
    queue = link_spec.queue
    if cfg.queue_byte_limit is not None:
        queue = replace(queue if queue is not None else QueueConfig(), byte_limit=cfg.queue_byte_limit)

    if spec.category == "sprout":
        sprout_cfg = sprout_variant_config(spec)
        if sprout_cfg is None:
            if spec.name == "Sprout":
                sprout_cfg = SproutConfig()
            elif spec.name == "Sprout-EWMA":
                sprout_cfg = SproutConfig(use_ewma=True)
            else:
                return None
        params = sprout_cfg.model_params or RateModelParams()
        usable = min(rate_pps, params.max_rate)
        if sprout_cfg.use_ewma:
            # EWMA tracks the mean rate without a cautious quantile: near-full
            # throughput, but delay spikes survive a rate crash.
            tput_pps = _FILL_FACTOR * usable * (1.0 - loss)
            delay = 2.0 * sprout_cfg.lookahead_ticks * sprout_cfg.tick_interval
            return AnalyticPrediction(
                throughput_bps=tput_pps * MTU_BYTES * 8.0,
                delay_s=delay,
                capacity_bps=capacity_bps,
                uncertainty=_UNCERTAINTY["ewma"],
                model="ewma",
            )
        cautious = sprout_conservative_rate_pps(
            usable, params, confidence=sprout_cfg.confidence
        )
        tput_pps = cautious * (1.0 - loss)
        # Sprout aims its queue occupancy at the lookahead window.
        delay = sprout_cfg.lookahead_ticks * sprout_cfg.tick_interval
        return AnalyticPrediction(
            throughput_bps=tput_pps * MTU_BYTES * 8.0,
            delay_s=delay,
            capacity_bps=capacity_bps,
            uncertainty=_UNCERTAINTY["sprout"],
            model="moment-closure",
        )

    if spec.category == "tcp" and spec.name in ("Reno", "Cubic", "Cubic-CoDel"):
        codel_cell = spec.use_codel or (
            queue is not None and queue.resolve(use_codel=spec.use_codel).aqm == AQM_CODEL
        )
        if loss <= 0.0:
            delay = queueing_delay_s(rate_pps, queue, use_codel=spec.use_codel)
            uncertainty = (
                _UNCERTAINTY["codel"] if codel_cell else _UNCERTAINTY["buffer_filling"]
            )
            return AnalyticPrediction(
                throughput_bps=_FILL_FACTOR * capacity_bps,
                delay_s=delay,
                capacity_bps=capacity_bps,
                uncertainty=uncertainty,
                model="capacity",
            )
        response = reno_throughput_pps if spec.name == "Reno" else cubic_throughput_pps
        raw_pps = response(loss, rtt)
        if raw_pps >= rate_pps:
            # Loss is too light to bind before the link does: back to the
            # buffer-filling regime, with its queue-shaped delay.
            delay = queueing_delay_s(rate_pps, queue, use_codel=spec.use_codel)
            return AnalyticPrediction(
                throughput_bps=_FILL_FACTOR * capacity_bps,
                delay_s=delay,
                capacity_bps=capacity_bps,
                uncertainty=_UNCERTAINTY["capacity_limited"],
                model="capacity",
            )
        if codel_cell:
            delay = queueing_delay_s(rate_pps, queue, use_codel=spec.use_codel)
            uncertainty = _UNCERTAINTY["codel"]
        else:
            # Loss-limited: the standing queue is about half the window
            # beyond the (small) bandwidth-delay product.
            window = raw_pps * rtt
            delay = window / (2.0 * rate_pps)
            uncertainty = _UNCERTAINTY["loss_limited"]
            if not _channel_steady(link_spec.config):
                # On a varying channel the deep buffer absorbs loss events
                # during rate surges, so PFTK/CUBIC underestimate measured
                # throughput: calibrated-tolerance territory only on steady
                # links (docs/analytic.md).
                uncertainty = max(uncertainty, _UNCERTAINTY["loss_limited_volatile"])
        if spec.name != "Reno":
            pure_cubic = (
                (CUBIC_C * (3.0 + CUBIC_BETA) / (4.0 * (1.0 - CUBIC_BETA))) ** 0.25
                * rtt**-0.25
                * loss**-0.75
            )
            friendly = reno_throughput_pps(loss, rtt)
            if pure_cubic > CUBIC_FRIENDLY_RATIO * friendly:
                uncertainty = max(uncertainty, _UNCERTAINTY["cubic_mode"])
        return AnalyticPrediction(
            throughput_bps=raw_pps * MTU_BYTES * 8.0,
            delay_s=delay,
            capacity_bps=capacity_bps,
            uncertainty=uncertainty,
            model="pftk" if spec.name == "Reno" else "cubic",
        )

    return None


# ----------------------------------------------------------------- screening


@dataclass(frozen=True)
class ScreenConfig:
    """Knobs of the screening heuristic (docs/analytic.md).

    A predicted cell is emulated unless some other predicted cell *strongly*
    dominates it: at least ``1 + margin`` times its predicted throughput,
    with a predicted delay no worse than the cell's by more than
    ``delay_slack_s`` (inside the slack, delays count as tied and the
    frontier is throughput-driven — the models cannot resolve delay finer
    than emulation noise reorders it), and a prediction from a *comparable
    regime* (the capacity model carries a per-link bias that cancels only
    within-regime, so a capacity prediction may be screened out only by
    another capacity prediction).  Cells whose prediction carries
    ``uncertainty >= uncertainty_threshold`` — and cells with no model at
    all — are always emulated.
    """

    margin: float = 0.25
    delay_slack_s: float = 0.02
    uncertainty_threshold: float = 0.6

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError(f"margin must be non-negative, got {self.margin}")
        if self.delay_slack_s < 0:
            raise ValueError(
                f"delay_slack_s must be non-negative, got {self.delay_slack_s}"
            )
        if not 0.0 < self.uncertainty_threshold <= 1.0:
            raise ValueError(
                "uncertainty_threshold must be in (0, 1], got "
                f"{self.uncertainty_threshold}"
            )


@dataclass
class ScreenPlan:
    """Which cells of one expanded grid get emulated, and why not the rest."""

    cells: List[Cell]
    predictions: List[Optional[AnalyticPrediction]]
    simulate: List[bool]

    @property
    def n_simulated(self) -> int:
        return sum(self.simulate)

    @property
    def n_screened(self) -> int:
        return len(self.simulate) - self.n_simulated


#: models whose cross-scheme comparisons are bias-free (both calibrated
#: against emulation in the loss-limited regime: docs/analytic.md)
_COMPARABLE_MODELS = frozenset(("pftk", "cubic"))


def _models_comparable(a: str, b: str) -> bool:
    """May a prediction of model ``a`` screen out one of model ``b``?"""
    return a == b or (a in _COMPARABLE_MODELS and b in _COMPARABLE_MODELS)


def plan_screen(cells: Sequence[Cell], screen: Optional[ScreenConfig] = None) -> ScreenPlan:
    """Decide per cell: emulate, or trust the analytic prediction.

    Frontier adjacency is judged per link (matching the report's per-link
    frontier sections): within each link's cell group, a cell is screened
    out only when another cell's prediction from a comparable regime
    strongly dominates it under the screen's margins.
    """
    cfg = screen if screen is not None else ScreenConfig()
    cells = list(cells)
    predictions = [predict_cell(scheme, link, config) for scheme, link, config in cells]
    simulate = [False] * len(cells)
    groups: Dict[str, List[int]] = {}
    for index, (cell, prediction) in enumerate(zip(cells, predictions)):
        if prediction is None or prediction.uncertainty >= cfg.uncertainty_threshold:
            simulate[index] = True
        else:
            groups.setdefault(cell_link_name(cell[1]), []).append(index)
    for indices in groups.values():
        tputs = [predictions[i].throughput_bps for i in indices]
        delays = [predictions[i].delay_s for i in indices]
        models = [predictions[i].model for i in indices]
        for position, index in enumerate(indices):
            tput, delay, model = tputs[position], delays[position], models[position]
            strongly_dominated = any(
                tputs[other] >= tput * (1.0 + cfg.margin)
                and delays[other] <= delay + cfg.delay_slack_s
                and _models_comparable(models[other], model)
                for other in range(len(indices))
                if other != position
            )
            if not strongly_dominated:
                simulate[index] = True
    return ScreenPlan(cells=cells, predictions=predictions, simulate=simulate)


def _screened_result(cell: Cell, prediction: AnalyticPrediction) -> ScreenedResult:
    """The grid record standing in for a screened-out (unemulated) cell."""
    scheme, link, _ = cell
    link_spec = get_link(link) if isinstance(link, str) else link
    propagation = (
        link_spec.propagation_delay
        if link_spec.propagation_delay is not None
        else DEFAULT_PROPAGATION_DELAY
    )
    utilization = (
        prediction.throughput_bps / prediction.capacity_bps
        if prediction.capacity_bps > 0
        else 0.0
    )
    return ScreenedResult(
        scheme=cell_scheme_name(scheme),
        link=cell_link_name(link),
        throughput_bps=prediction.throughput_bps,
        delay_95_s=prediction.delay_s + propagation,
        self_inflicted_delay_s=prediction.delay_s,
        utilization=min(1.0, utilization),
        capacity_bps=prediction.capacity_bps,
        omniscient_delay_95_s=propagation,
        prediction_uncertainty=prediction.uncertainty,
    )


def run_grid_screened(
    spec: GridSpec,
    config: Optional[RunConfig] = None,
    progress: Optional[ProgressCallback] = None,
    jobs: Optional[int] = None,
    policy: Optional[ErrorPolicy] = None,
    backend: str = "processes",
    screen: Union[ScreenConfig, bool, None] = None,
) -> GridData:
    """Run a grid with analytic screening (``run_grid(screen=...)``'s engine).

    Every cell is predicted; only the cells :func:`plan_screen` selects are
    emulated (through the ordinary cell runner, so ``jobs`` / ``policy`` /
    ``backend`` behave exactly as in an unscreened run and the emulated
    cells' results are bit-identical to an unscreened run's).  Screened-out
    cells appear as :class:`~repro.metrics.summary.ScreenedResult` records
    in their cell positions; ``progress`` fires for emulated cells only.
    """
    cells = expand_grid(spec, config)
    # ``screen=True`` (or any non-config truthy) means "screen with defaults".
    screen_config = screen if isinstance(screen, ScreenConfig) else ScreenConfig()
    plan = plan_screen(cells, screen_config)
    selected = [cell for cell, simulate in zip(cells, plan.simulate) if simulate]
    outcomes = run_cells(
        selected,
        progress=progress,
        jobs=jobs,
        policy=policy,
        backend=backend,
    )
    merged: List[CellOutcome] = []
    iterator = iter(outcomes)
    for cell, simulate, prediction in zip(cells, plan.simulate, plan.predictions):
        if simulate:
            merged.append(next(iterator))
        else:
            assert prediction is not None  # plan_screen simulates None-model cells
            merged.append(_screened_result(cell, prediction))
    return GridData(spec=spec, points=grid_points(spec, merged))


# ------------------------------------------------------ differential validation

#: schemes the differential oracle covers: the two TCP baselines with a
#: published closed-form response function
ORACLE_SCHEMES = ("Reno", "Cubic")

#: calibrated relative-error tolerance for simulated-vs-predicted throughput
#: in oracle-grade regimes (loss-limited, uncapped steady link, and for
#: Cubic the strongly TCP-friendly region under
#: :data:`CUBIC_FRIENDLY_RATIO`).  Calibration: a 4 loss x 3 rtt steady-link
#: grid at 60 s showed relative errors up to 0.107 (Reno) / 0.051
#: (friendly-region Cubic); 0.25 clears that noise floor while a perturbed
#: Reno additive-increase constant (ALPHA 1.0 -> 0.15, throughput scaling
#: ~sqrt(ALPHA), ~61% error) still trips.  Per-cell table: docs/analytic.md.
ORACLE_TOLERANCE = 0.25

#: predictions at/above this uncertainty are outside the oracle's mandate
_ORACLE_UNCERTAINTY_CAP = 0.5


@dataclass(frozen=True)
class Divergence:
    """One simulated-vs-analytic disagreement (in-place, CellError-style).

    Like the error-policy layer's :class:`~repro.experiments.policy.CellError`,
    a divergence is a structured record tied to its cell's identity, so a
    validation pass reports *which* cells drifted and by how much instead of
    a bare assertion failure.
    """

    scheme: str
    link: str
    label: str
    metric: str
    simulated: float
    predicted: float
    relative_error: float
    tolerance: float

    @property
    def summary(self) -> str:
        return (
            f"{self.scheme} on {self.link} [{self.label}]: {self.metric} "
            f"diverged {100 * self.relative_error:.0f}% from analytic "
            f"({self.simulated:.0f} vs {self.predicted:.0f} predicted, "
            f"tolerance {100 * self.tolerance:.0f}%)"
        )

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "link": self.link,
            "label": self.label,
            "metric": self.metric,
            "simulated": self.simulated,
            "predicted": self.predicted,
            "relative_error": self.relative_error,
            "tolerance": self.tolerance,
        }


def validate_grid(
    data: GridData,
    config: Optional[RunConfig] = None,
    tolerance: Optional[float] = None,
    schemes: Sequence[str] = ORACLE_SCHEMES,
) -> List[Divergence]:
    """Differential validation: simulated TCP throughput vs the prediction.

    Checks every emulated Reno/Cubic cell in an *oracle-grade* regime —
    non-zero loss (so the cell is loss-limited, the regime PFTK/CUBIC
    model) with prediction uncertainty under the oracle cap — against the
    closed-form prediction, and returns one :class:`Divergence` per cell
    whose relative throughput error exceeds ``tolerance``
    (:data:`ORACLE_TOLERANCE` by default).  ``config`` must be the
    ``RunConfig`` the grid was run with (the expansion is re-derived from
    the spec, exactly as ``run_grid`` derived it).
    """
    tol = tolerance if tolerance is not None else ORACLE_TOLERANCE
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    cells = expand_grid(data.spec, config)
    divergences: List[Divergence] = []
    index = 0
    for point in data.points:
        for row in point.results:
            cell = cells[index]
            index += 1
            if is_cell_error(row) or is_screened(row):
                continue
            scheme, _, cell_config = cell
            if cell_scheme_name(scheme) not in schemes:
                continue
            if cell_config is None or cell_config.loss_rate <= 0.0:
                continue
            prediction = predict_cell(*cell)
            if prediction is None or prediction.uncertainty >= _ORACLE_UNCERTAINTY_CAP:
                continue
            if prediction.throughput_bps <= 0:
                continue
            relative = abs(row.throughput_bps - prediction.throughput_bps) / (
                prediction.throughput_bps
            )
            if relative > tol:
                divergences.append(
                    Divergence(
                        scheme=row.scheme,
                        link=row.link,
                        label=point.label,
                        metric="throughput_bps",
                        simulated=row.throughput_bps,
                        predicted=prediction.throughput_bps,
                        relative_error=relative,
                        tolerance=tol,
                    )
                )
    return divergences


def render_divergences(divergences: Sequence[Divergence]) -> str:
    """Plain-text validation report, one DIVERGED line per record."""
    if not divergences:
        return "differential validation: all oracle-grade cells within tolerance"
    lines = [f"differential validation: {len(divergences)} cell(s) DIVERGED"]
    for record in divergences:
        lines.append(f"  DIVERGED {record.summary}")
    return "\n".join(lines)
