"""Closed-form predictors and the differential oracle.

Every result the paper reports comes from emulating a cell; this module
keeps the textbook closed forms beside the emulator as a standing check on
it (docs/analytic.md).

* **Differential validation** (:func:`validate_grid`): simulated Reno/Cubic
  throughput is compared against the closed-form prediction, and structured
  :class:`Divergence` records — in the in-place reporting style of the
  error-policy layer's :class:`~repro.experiments.policy.CellError` — are
  emitted where relative error exceeds the calibrated tolerance.  This is a
  standing correctness oracle: an accidental change to the AIMD constants,
  the ACK clock, or the loss machinery trips it (``tests/test_analytic_
  oracle.py``).  It checks only the oracle-grade regimes, where the
  response functions are exact enough to police the simulator.

The predictors:

* :func:`reno_throughput_pps` — the PFTK steady-state response function
  (Padhye, Firoiu, Towsley & Kurose, SIGCOMM 1998), with the timeout term.
* :func:`cubic_throughput_pps` — the CUBIC response function (Ha, Rhee &
  Xu 2008), lower-bounded by the TCP-friendly (Reno-equivalent) region the
  implementation enforces.
* :func:`csa_transfer_time` — a Cardwell–Savage–Anderson style model of a
  finite transfer: slow start, the first-loss cost, then PFTK-rate
  congestion avoidance.
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
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

from repro.baselines.base import RttEstimator
from repro.core.rate_model import RateModelParams
from repro.experiments.parallel import Cell
from repro.experiments.policy import cell_scheme_name, is_cell_error
from repro.experiments.registry import get_scheme
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import GridData, expand_grid
from repro.simulation.delay_box import DEFAULT_PROPAGATION_DELAY
from repro.simulation.packet import MTU_BYTES
from repro.simulation.queues import AQM_CODEL
from repro.traces.channel import ChannelConfig
from repro.traces.networks import LinkSpec, get_link

__all__ = [
    "Divergence",
    "ORACLE_SCHEMES",
    "ORACLE_TOLERANCE",
    "csa_transfer_time",
    "cubic_throughput_pps",
    "effective_link_rate_pps",
    "render_divergences",
    "reno_throughput_pps",
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


def _pure_cubic_pps(loss: float, rtt: float, c: float, beta: float) -> float:
    """The cubic growth curve's deterministic-loss rate, without the floor."""
    return (c * (3.0 + beta) / (4.0 * (1.0 - beta))) ** 0.25 * rtt**-0.25 * loss**-0.75


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
    cubic = _pure_cubic_pps(loss, rtt, c, beta)
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
    variance around the realised rate.  Outage stickiness is not folded in.
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
    resolved = params if params is not None else RateModelParams()
    ticks = horizon_ticks if horizon_ticks is not None else resolved.forecast_ticks
    mean, variance = sprout_forecast_moments(rate_pps, resolved, ticks)
    horizon = ticks * resolved.tick
    cautious = max(0.0, mean - NormalDist().inv_cdf(confidence) * math.sqrt(variance))
    return cautious / horizon


# ----------------------------------------------------------------- link model


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


#: above this ratio of the pure-cubic term to the TCP-friendly (Reno) term,
#: CUBIC's real-time window growth leaves the AIMD regime the response
#: function models well: random loss gaps let the cubic curve balloon far
#: past the deterministic-loss average (calibration: docs/analytic.md), so
#: such cells are never oracle-checked
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


# ------------------------------------------------------ differential validation

#: schemes the differential oracle covers: the two TCP baselines with a
#: published closed-form response function
ORACLE_SCHEMES = ("Reno", "Cubic")


def _oracle_throughput_bps(cell: Cell) -> Optional[float]:
    """The PFTK/CUBIC throughput of an oracle-grade cell, else ``None``.

    Oracle-grade means the regime the response functions model well enough
    to police the simulator (docs/analytic.md): a Reno or Cubic sender, a
    non-zero loss rate that binds below the link rate, a drop-tail queue,
    and a steady channel (on a varying one the deep buffer absorbs loss
    events during rate surges, so PFTK/CUBIC underestimate the measured
    throughput).  Cubic must also sit in its TCP-friendly region
    (:data:`CUBIC_FRIENDLY_RATIO`).
    """
    scheme, link, config = cell
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    if spec.category != "tcp" or spec.name not in ORACLE_SCHEMES:
        return None
    link_spec = get_link(link) if isinstance(link, str) else link
    loss = (config if config is not None else RunConfig()).loss_rate
    if loss <= 0.0 or not _channel_steady(link_spec.config):
        return None
    queue = link_spec.queue
    if spec.use_codel or (queue is not None and queue.aqm == AQM_CODEL):
        return None
    rate_pps = effective_link_rate_pps(link_spec.config)
    rtt = _link_rtt_s(link_spec, rate_pps)
    if spec.name == "Reno":
        pps = reno_throughput_pps(loss, rtt)
    else:
        pure_cubic = _pure_cubic_pps(loss, rtt, CUBIC_C, CUBIC_BETA)
        if pure_cubic > CUBIC_FRIENDLY_RATIO * reno_throughput_pps(loss, rtt):
            return None
        pps = cubic_throughput_pps(loss, rtt)
    if pps >= rate_pps:
        # Loss too light to bind before the link does: capacity-limited.
        return None
    return pps * MTU_BYTES * 8.0


#: calibrated relative-error tolerance for simulated-vs-predicted throughput
#: in oracle-grade regimes (loss-limited, uncapped steady link, and for
#: Cubic the strongly TCP-friendly region under
#: :data:`CUBIC_FRIENDLY_RATIO`).  Calibration: a 4 loss x 3 rtt steady-link
#: grid at 60 s showed relative errors up to 0.107 (Reno) / 0.051
#: (friendly-region Cubic); 0.25 clears that noise floor while a perturbed
#: Reno additive-increase constant (ALPHA 1.0 -> 0.15, throughput scaling
#: ~sqrt(ALPHA), ~61% error) still trips.  Per-cell table: docs/analytic.md.
ORACLE_TOLERANCE = 0.25


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

    Checks every emulated cell of ``schemes`` in an *oracle-grade* regime
    (:func:`_oracle_throughput_bps`) against the closed-form prediction,
    and returns one :class:`Divergence` per cell whose relative throughput
    error exceeds ``tolerance`` (:data:`ORACLE_TOLERANCE` by default; it
    must be a positive finite number).  ``config`` must be the
    ``RunConfig`` the grid was run with (the expansion is re-derived from
    the spec, exactly as ``run_grid`` derived it).
    """
    tol = tolerance if tolerance is not None else ORACLE_TOLERANCE
    if not 0.0 < tol < _INF:
        raise ValueError(f"tolerance must be a positive finite number, got {tol}")
    cells = expand_grid(data.spec, config)
    divergences: List[Divergence] = []
    index = 0
    for point in data.points:
        for row in point.results:
            cell = cells[index]
            index += 1
            if is_cell_error(row) or cell_scheme_name(cell[0]) not in schemes:
                continue
            predicted = _oracle_throughput_bps(cell)
            if predicted is None:
                continue
            relative = abs(row.throughput_bps - predicted) / predicted
            if relative > tol:
                divergences.append(
                    Divergence(
                        scheme=row.scheme,
                        link=row.link,
                        label=point.label,
                        metric="throughput_bps",
                        simulated=row.throughput_bps,
                        predicted=predicted,
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
