"""Discretized doubly-stochastic model of the link rate (Section 3.1-3.2).

Sprout models the link as a Poisson packet-delivery process whose rate
:math:`\\lambda` varies in Brownian motion with noise power :math:`\\sigma`
(packets per second per sqrt(second)) and a sticky outage state at
:math:`\\lambda = 0` whose escape rate is :math:`\\lambda_z`.  To make
inference tractable the rate space is discretized into 256 values sampled
uniformly from 0 to 1000 MTU-sized packets per second, and the belief is
updated once per 20 ms "tick".

Everything that does not depend on the observations is precomputed here:

* the Brownian-motion transition matrix for one tick (including the outage
  bias on the :math:`\\lambda = 0` row);
* the Poisson observation likelihoods on a grid of byte counts;
* the per-bin cumulative-delivery CDFs used by the forecast, for each of the
  forecast horizons.

The default parameter values are exactly the paper's frozen values:
``sigma = 200``, ``lambda_z = 1``, 256 bins, 20 ms ticks, 8-tick forecasts.

The forecast tables are the rate model's own distribution evolved tick by
tick (Section 3.3): a deterministic recursion, not a simulation, built in
tens of milliseconds at paper parameters.  ``RateModel(params)`` always
builds; :func:`shared_rate_model` is the one memoised entry point, an
in-process :class:`repro.cache.Memo` keyed on the frozen
:class:`RateModelParams` (see docs/performance.md, "Layer 3").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cache import Memo
from repro.core._special import MAX_X, log_gamma, regularized_lower_gamma

#: entries kept in each per-model likelihood cache.  Saturator-style traffic
#: produces byte counts from a small alphabet of packet sizes, so in practice
#: the hit rate is near 100% with far fewer distinct keys than this.
LIKELIHOOD_CACHE_SIZE = 4096

from repro.simulation.packet import MTU_BYTES

#: number of discrete rate values (paper: 256)
DEFAULT_NUM_BINS = 256
#: largest modelled rate, MTU-sized packets per second (paper: 1000 ~= 11 Mbit/s)
DEFAULT_MAX_RATE = 1000.0
#: inference update period, seconds (paper: 20 ms)
DEFAULT_TICK = 0.020
#: Brownian noise power, packets per second per sqrt(second) (paper: 200)
DEFAULT_SIGMA = 200.0
#: outage escape rate, 1/seconds (paper: 1)
DEFAULT_OUTAGE_ESCAPE_RATE = 1.0
#: forecast horizon in ticks (paper: 8 ticks = 160 ms)
DEFAULT_FORECAST_TICKS = 8


@dataclass(frozen=True)
class RateModelParams:
    """Frozen parameters of the stochastic link model."""

    num_bins: int = DEFAULT_NUM_BINS
    max_rate: float = DEFAULT_MAX_RATE
    tick: float = DEFAULT_TICK
    sigma: float = DEFAULT_SIGMA
    outage_escape_rate: float = DEFAULT_OUTAGE_ESCAPE_RATE
    forecast_ticks: int = DEFAULT_FORECAST_TICKS
    mtu_bytes: int = MTU_BYTES

    def __post_init__(self) -> None:
        if self.num_bins < 2:
            raise ValueError("num_bins must be at least 2")
        if self.max_rate <= 0:
            raise ValueError("max_rate must be positive")
        if self.tick <= 0:
            raise ValueError("tick must be positive")
        if self.max_rate * self.tick > MAX_X:
            raise ValueError(f"max_rate * tick must be at most {MAX_X:g} packets per tick")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.outage_escape_rate < 0:
            raise ValueError("outage_escape_rate must be non-negative")
        if self.forecast_ticks < 1:
            raise ValueError("forecast_ticks must be at least 1")


# ------------------------------------------------------------ table layout

#: every `stride`-th CDF count column feeds the coarse quantile bracket
_QUANTILE_STRIDE = 16

#: table entries below this (6e-8) are stored as exactly 0.  A probability
#: that small is immaterial to any percentile the forecast reads; what the
#: flush removes is the tables' far tails, whose products with small belief
#: entries would otherwise be float32 subnormals, which slow the kernel's
#: BLAS products by half again.
_TABLE_FLOOR = 2.0**-24


class RateModel:
    """Precomputed matrices for Bayesian inference on the link rate.

    Args:
        params: model parameters (the paper's frozen values by default).
    """

    def __init__(self, params: Optional[RateModelParams] = None) -> None:
        self.params = params if params is not None else RateModelParams()
        p = self.params

        #: the 256 candidate rates, packets per second
        self.rates = np.linspace(0.0, p.max_rate, p.num_bins)
        #: expected packets per tick for each candidate rate
        self.packets_per_tick = self.rates * p.tick
        # Maximum plausible cumulative count over the full forecast horizon,
        # with headroom so the CDF always reaches ~1 inside the grid.
        self._max_count = int(math.ceil(p.max_rate * p.tick * p.forecast_ticks)) + 40

        # Everything observation-independent, built as one frozen unit.
        artifact = self._build_artifact()
        self.transition = artifact["transition"]
        self.cumulative_cdfs = artifact["cumulative_cdfs"]
        # Column-major companion tensor (ticks, counts, bins): each count
        # column is a contiguous vector, so the quantile refinement can mix
        # a handful of columns without touching the rest of the tensor.
        self._cdf_cols = artifact["cdf_cols"]
        # Coarse subsample of every `stride`-th count column, used to bracket
        # the quantile before the fine window is mixed.  Keeping the working
        # set this small is what makes the per-tick forecast cache-resident.
        self._cdf_coarse = artifact["cdf_coarse"]
        self._quantile_stride = stride = _QUANTILE_STRIDE
        self._coarse_cols = int(math.ceil((self._max_count + 1) / stride))
        # What the per-tick kernel indexes instead of recomputing: one
        # (counts, bins) view per horizon, and per coarse bracket ``k`` the
        # half-open run of fine columns ``(k-1)*stride+1 .. k*stride`` the
        # crossing can lie in (column 0 alone for ``k = 0``; the top run
        # stops at ``_max_count``).
        self._cdf_col_blocks = list(self._cdf_cols)
        self._quantile_windows = [
            (max(0, (k - 1) * stride + 1), min(k * stride, self._max_count) + 1)
            for k in range(self._coarse_cols + 1)
        ]
        positive = self.packets_per_tick > 0
        self._positive_bins = positive
        self._mu_positive = self.packets_per_tick[positive]
        self._log_mu_positive = np.log(self._mu_positive)
        self._likelihood_cache = lru_cache(maxsize=LIKELIHOOD_CACHE_SIZE)(
            self._likelihood_for_key
        )

    # -------------------------------------------------------------- builders

    def _build_artifact(self) -> Dict[str, np.ndarray]:
        """Build every observation-independent array as one cacheable unit.

        The arrays are frozen read-only because :func:`shared_rate_model`
        hands one model to every connection with the same parameters.
        """
        p = self.params
        transition = self._build_transition_matrix()
        cumulative_cdfs = self._build_cumulative_cdfs(transition)
        cdf_cols = np.ascontiguousarray(cumulative_cdfs.transpose(0, 2, 1))
        cdf_coarse = np.ascontiguousarray(
            cumulative_cdfs[:, :, ::_QUANTILE_STRIDE]
            .transpose(1, 0, 2)
            .reshape(p.num_bins, -1)
        )
        arrays = {
            "transition": transition,
            "cumulative_cdfs": cumulative_cdfs,
            "cdf_cols": cdf_cols,
            "cdf_coarse": cdf_coarse,
        }
        for array in arrays.values():
            array.flags.writeable = False
        return arrays

    def _brownian_row(self, rate: float) -> np.ndarray:
        """Distribution of the rate one tick later, given its current value."""
        p = self.params
        std = p.sigma * math.sqrt(p.tick)
        if std <= 0:
            row = np.zeros(p.num_bins)
            row[int(np.argmin(np.abs(self.rates - rate)))] = 1.0
            return row
        z = (self.rates - rate) / std
        row = np.exp(-0.5 * z * z)
        total = row.sum()
        if total <= 0:  # pragma: no cover - defensive; cannot happen with linspace grid
            row = np.zeros(p.num_bins)
            row[int(np.argmin(np.abs(self.rates - rate)))] = 1.0
            return row
        return row / total

    def _build_transition_matrix(self) -> np.ndarray:
        """One-tick transition matrix T with T[i, j] = P(next bin j | bin i).

        Row 0 (the outage state) mixes "stay in outage" with probability
        ``exp(-lambda_z * tick)`` and the ordinary Brownian spread with the
        complementary probability, reproducing the sticky-outage behaviour of
        Section 3.1.
        """
        p = self.params
        matrix = np.empty((p.num_bins, p.num_bins))
        for i, rate in enumerate(self.rates):
            matrix[i] = self._brownian_row(rate)
        stay = math.exp(-p.outage_escape_rate * p.tick)
        outage_row = np.zeros(p.num_bins)
        outage_row[0] = 1.0
        matrix[0] = stay * outage_row + (1.0 - stay) * matrix[0]
        # Normalise each row exactly (guards against accumulated float error).
        matrix /= matrix.sum(axis=1, keepdims=True)
        return matrix

    def _build_cumulative_cdfs(self, transition: np.ndarray) -> np.ndarray:
        """Cumulative-delivery CDF grids used by the forecast (Section 3.3).

        ``cumulative_cdfs[j, i, n]`` is the probability that the link
        delivers at most ``n`` packets within ``j + 1`` ticks, *given that
        the current rate is* ``rates[i]`` and that the rate then follows the
        model's own dynamics (Brownian drift with the sticky outage state).
        The distribution is over the whole rate path, so early ticks — when
        the rate cannot yet have wandered far from its current value —
        contribute deliveries even under the cautious quantile, exactly as
        in the paper's tick-by-tick evolution.

        The grids are that evolution computed exactly.  Each tick the rate
        first moves by the transition matrix ``T`` (``transition``), then
        the link delivers ``Poisson(rate * tick)`` packets, so the
        delivered-count pmf after ``j`` ticks from bin ``i`` obeys

            P_j(i, .) = sum_k T[i, k] * (Poisson(lambda_k tick) (*) P_{j-1}(k, .))

        with ``P_0 = delta_0`` and ``(*)`` a convolution over counts.  Only
        counts below ``_max_count`` are carried: deliveries never shrink a
        count, so the mass at or above it stays there and is absorbed into
        the last column, where every CDF row is exactly 1.  The convolutions
        run row-wise by FFT in float64 (their rounding noise, ~1e-16, is
        clipped at 0 so every pmf stays non-negative and every CDF row
        non-decreasing); the tables are rounded to float32 once, and
        entries below :data:`_TABLE_FLOOR` are stored as exactly 0.
        """
        p = self.params
        carried = self._max_count
        counts = np.arange(carried)
        # Poisson pmf of one tick's deliveries, per rate bin (row 0: outage).
        mean = self.packets_per_tick[:, None]
        positive = self.packets_per_tick > 0
        deliveries = np.zeros((p.num_bins, carried))
        deliveries[positive] = np.exp(
            counts * np.log(mean[positive]) - mean[positive] - log_gamma(counts + 1.0)
        )
        deliveries[~positive, 0] = 1.0
        size = 2 * carried  # no circular wrap into the carried counts
        deliveries_hat = np.fft.rfft(deliveries, n=size, axis=1)

        pmf = np.zeros((p.num_bins, carried))
        pmf[:, 0] = 1.0
        cdfs = np.empty((p.forecast_ticks, p.num_bins, carried + 1))
        cdfs[:, :, carried] = 1.0
        for j in range(p.forecast_ticks):
            spread = np.fft.irfft(
                np.fft.rfft(pmf, n=size, axis=1) * deliveries_hat, n=size, axis=1
            )[:, :carried]
            np.maximum(spread, 0.0, out=spread)
            pmf = transition @ spread
            np.cumsum(pmf, axis=1, out=cdfs[j, :, :carried])
        # Stored float32 and C-contiguous: the forecast only compares
        # mixtures of these CDFs against a quantile, so single precision is
        # ample, and the halved footprint keeps the mixture kernel in cache.
        tables = cdfs.astype(np.float32)
        tables[tables < _TABLE_FLOOR] = 0.0
        return tables

    # ------------------------------------------------------------- inference

    def uniform_prior(self) -> np.ndarray:
        """The paper's startup belief: every rate equally probable."""
        return np.full(self.params.num_bins, 1.0 / self.params.num_bins)

    def evolve(self, belief: np.ndarray) -> np.ndarray:
        """Push the belief forward one tick of Brownian motion."""
        return belief @ self.transition

    def observation_likelihood(self, packets_observed: float) -> np.ndarray:
        """Likelihood of observing ``packets_observed`` packets in one tick.

        ``packets_observed`` may be fractional because Sprout counts bytes
        (a 750-byte arrival is half an MTU-sized packet); the Poisson pmf is
        extended continuously through the gamma function.

        Observations that fall exactly on the 1-byte grid (every real tick
        does: byte counters are integers) are served from a per-model LRU
        cache; the returned array is then shared and marked read-only.
        """
        return self._likelihood(packets_observed, censored=False)

    def censored_likelihood(self, packets_observed: float) -> np.ndarray:
        """Likelihood that *at least* ``packets_observed`` packets were deliverable.

        Used for ticks in which the queue ran dry because the sender had
        nothing more to send: the arrivals then establish only a lower bound
        on what the link could have delivered, so the correct update weights
        each rate by :math:`P(N \\ge k \\mid \\lambda)` instead of the exact
        Poisson probability.  (This is the natural generalisation of the
        paper's time-to-next rule, which handles the ``k = 0`` case.)

        Cached the same way as :meth:`observation_likelihood`.
        """
        return self._likelihood(packets_observed, censored=True)

    def _likelihood(self, packets_observed: float, censored: bool) -> np.ndarray:
        if packets_observed < 0:
            raise ValueError("cannot observe a negative packet count")
        mtu = self.params.mtu_bytes
        # int(x + 0.5) is a fast floor-round; the exactness guard below makes
        # the tie-breaking direction irrelevant (a miss just skips the cache).
        key = int(packets_observed * mtu + 0.5)
        if key / mtu == packets_observed:
            # Exactly representable at byte resolution: the cached vector is
            # computed at this very value, so sharing it is lossless.
            return self._likelihood_cache(key, censored)
        return self._compute_likelihood(packets_observed, censored)

    def _likelihood_for_key(self, key_bytes: int, censored: bool) -> np.ndarray:
        likelihood = self._compute_likelihood(
            key_bytes / self.params.mtu_bytes, censored
        )
        likelihood.flags.writeable = False
        return likelihood

    def _compute_likelihood(self, packets_observed: float, censored: bool) -> np.ndarray:
        positive = self._positive_bins
        if censored:
            if packets_observed == 0:
                return np.ones_like(self.packets_per_tick)
            likelihood = np.zeros_like(self.packets_per_tick)
            # P(N >= k) for Poisson(mu) equals the regularised lower
            # incomplete gamma function P(k, mu) (continuous in k).
            likelihood[positive] = regularized_lower_gamma(
                packets_observed, self._mu_positive
            )
            return likelihood
        likelihood = np.zeros_like(self.packets_per_tick)
        log_pmf = (
            packets_observed * self._log_mu_positive
            - self._mu_positive
            - math.lgamma(packets_observed + 1.0)
        )
        likelihood[positive] = np.exp(log_pmf)
        # The outage bin can only produce zero packets.
        likelihood[~positive] = 1.0 if packets_observed == 0 else 0.0
        return likelihood

    def update(
        self, belief: np.ndarray, packets_observed: float, censored: bool = False
    ) -> np.ndarray:
        """One full Bayesian tick: evolve, weight by the observation, normalise.

        Args:
            belief: current distribution over rate bins.
            packets_observed: packets (possibly fractional) seen this tick.
            censored: True when the observation is only a lower bound on what
                the link could have delivered (sender-limited tick).
        """
        evolved = self.evolve(belief)
        if censored:
            likelihood = self.censored_likelihood(packets_observed)
        else:
            likelihood = self.observation_likelihood(packets_observed)
        posterior = evolved * likelihood
        total = posterior.sum()
        if total <= 0.0 or not np.isfinite(total):
            # All mass annihilated (e.g. an enormous observation): fall back
            # to the evolved prior rather than dividing by zero.
            return evolved
        posterior /= total
        return posterior

    # -------------------------------------------------------------- forecast

    def _validate_quantile_args(
        self, percentile: float, num_ticks: Optional[int]
    ) -> int:
        """Shared argument validation of the quantile implementations."""
        if not 0.0 < percentile < 1.0:
            raise ValueError(f"percentile must be in (0, 1), got {percentile}")
        ticks = self.params.forecast_ticks if num_ticks is None else num_ticks
        if not 1 <= ticks <= self.params.forecast_ticks:
            raise ValueError(
                f"num_ticks must be between 1 and {self.params.forecast_ticks}"
            )
        return ticks

    def cumulative_quantile(
        self, belief: np.ndarray, percentile: float, num_ticks: Optional[int] = None
    ) -> np.ndarray:
        """Cautious cumulative-delivery forecast (Section 3.3).

        For each forecast horizon, mixes the per-bin cumulative-delivery
        distributions (which already account for the rate's own future
        evolution) under the current belief and takes the requested
        percentile of the resulting distribution.

        Args:
            belief: current probability distribution over rate bins.
            percentile: quantile in (0, 1); the paper's default cautious
                forecast uses 0.05 (the 5th percentile, i.e. 95% confidence
                that at least this much will be delivered).
            num_ticks: forecast horizon; defaults to the model's 8 ticks.

        Returns:
            Array of length ``num_ticks``: forecast cumulative *packets*
            delivered by the end of each tick.  The array is monotonically
            non-decreasing (cumulative deliveries cannot shrink).
        """
        ticks = self._validate_quantile_args(percentile, num_ticks)
        # Two-stage quantile extraction.  Stage 1 mixes every `stride`-th
        # count column of all horizons in one small sgemv and brackets each
        # horizon's crossing (counting the values below the percentile
        # equals ``searchsorted(..., "left")`` on a non-decreasing row);
        # stage 2 mixes only the bracketed run of columns per horizon.
        # Exact-arithmetic equivalent to mixing the full tensor
        # (:meth:`_cumulative_quantile_loop`, which mixes the same column
        # layout; the test suite holds the two to equal outputs on a sweep
        # of beliefs), but streams ~250 KB instead of ~1.6 MB per call.
        #
        # Those nine products are all the arithmetic; everything around
        # them is plain Python on purpose (numpy dispatch on eight elements
        # cost more than the products did).  Do not stack or re-block them:
        # BLAS would sum in another order, and a one-ulp tie against the
        # percentile moves a forecast by a packet (docs/performance.md,
        # "Layer 1").
        b32 = belief.astype(np.float32, copy=False)
        key = np.float32(percentile)
        coarse = (b32 @ self._cdf_coarse).reshape(
            self.params.forecast_ticks, self._coarse_cols
        )
        brackets = (coarse < key).sum(axis=1).tolist()
        windows = self._quantile_windows
        max_count = self._max_count
        forecast = []
        # The tables are non-increasing in the horizon, but a float32 mixture
        # of them need not be: the running maximum keeps the forecast
        # non-decreasing whatever the rounding.
        highest = 0
        for cols, k in zip(self._cdf_col_blocks[:ticks], brackets):
            lo, stop = windows[k]
            count = lo + int((cols[lo:stop] @ b32).searchsorted(key))
            if count > max_count:
                count = max_count
            if count > highest:
                highest = count
            forecast.append(highest)
        return np.array(forecast, dtype=float)

    def _cumulative_quantile_loop(
        self, belief: np.ndarray, percentile: float, num_ticks: Optional[int] = None
    ) -> np.ndarray:
        """Reference per-horizon implementation of :meth:`cumulative_quantile`.

        Kept (and exercised by the test suite) as the readable specification
        of the production kernel: one full mixture and one ``searchsorted``
        per horizon.  The mixture is ``_cdf_cols[j] @ belief`` — the column
        layout the kernel mixes, so BLAS sums every count in the same order
        and a mixture within one ulp of the percentile cannot split the two.
        """
        ticks = self._validate_quantile_args(percentile, num_ticks)
        belief32 = belief.astype(np.float32, copy=False)
        forecast = np.empty(ticks)
        previous = 0.0
        for j in range(ticks):
            mixture_cdf = self._cdf_cols[j] @ belief32
            index = int(
                np.searchsorted(mixture_cdf, np.float32(percentile), side="left")
            )
            value = float(min(index, self._max_count))
            previous = max(previous, value)
            forecast[j] = previous
        return forecast

    def expected_rate(self, belief: np.ndarray) -> float:
        """Posterior-mean link rate in packets per second."""
        return float(np.dot(belief, self.rates))

    # ------------------------------------------------- batched entry points
    #
    # The cross-cell engine (repro.experiments.batched, docs/performance.md
    # "Layer 4") steps many independent cells that share this model on one
    # tick lattice.  These kernels compute every cell's tick in a handful of
    # numpy calls while staying *bitwise identical* to the per-cell methods
    # above.  The identity rests on three facts, each pinned by the test
    # suite:
    #
    # * a stacked ``np.matmul`` whose batch entries are single gemv products
    #   (``(n, 1, bins) @ (bins, m)`` or a broadcast ``(w, bins) @
    #   (n, bins, 1)``) runs the same BLAS gemv per entry as the per-cell
    #   call, so each row is the identical reduction — unlike a plain 2-D
    #   gemm, which blocks across rows and rounds differently;
    # * elementwise ops (multiply, divide, astype, compare) are rounded per
    #   element, so batching rows cannot change any value;
    # * ``searchsorted(row, key, side="left")`` on a non-decreasing row
    #   equals ``(row < key).sum()``, and the mixture rows are non-decreasing
    #   even in float arithmetic (non-negative weights times non-decreasing
    #   CDF columns, combined by monotone float adds).

    def batched_tick(
        self,
        beliefs: np.ndarray,
        packets_observed: Sequence[Optional[float]],
        censored: Sequence[bool],
    ) -> np.ndarray:
        """Advance many beliefs one tick each, in one batch.

        Args:
            beliefs: ``(n, num_bins)`` stack of belief rows.
            packets_observed: per row, the tick's observation in packets —
                or ``None`` to skip the observation (evolve only), exactly
                like :meth:`evolve` vs :meth:`update`.
            censored: per row, whether the observation is only a lower bound.

        Returns:
            ``(n, num_bins)`` array whose row ``i`` is bitwise identical to
            ``self.update(beliefs[i], packets_observed[i], censored[i])``
            (or ``self.evolve(beliefs[i])`` for a ``None`` observation).
        """
        n = beliefs.shape[0]
        evolved = np.matmul(beliefs[:, None, :], self.transition)[:, 0, :]
        observing = [i for i in range(n) if packets_observed[i] is not None]
        if not observing:
            return evolved
        likelihoods = np.stack(
            [
                self._likelihood(packets_observed[i], censored=bool(censored[i]))
                for i in observing
            ]
        )
        sel = np.asarray(observing)
        posterior = evolved[sel] * likelihoods
        totals = posterior.sum(axis=1)
        good = (totals > 0.0) & np.isfinite(totals)
        posterior[good] /= totals[good, None]
        # Annihilated rows fall back to the evolved prior, as update() does.
        out = evolved
        out[sel[good]] = posterior[good]
        return out

    def batched_cumulative_quantile(
        self, beliefs: np.ndarray, percentiles: Sequence[float]
    ) -> np.ndarray:
        """Full-horizon :meth:`cumulative_quantile` for many beliefs at once.

        Row ``i`` of the result is bitwise identical to
        ``self.cumulative_quantile(beliefs[i], percentiles[i])``.  The
        coarse bracketing runs as one stacked gemv per cell; the bracketed
        window mixtures are bucketed by ``(horizon, bracket)`` — cells whose
        crossing lands in the same window share one stacked gemv against the
        identical CDF block, so the per-round call count is bounded by the
        number of coarse brackets, not by the number of cells.
        """
        n = beliefs.shape[0]
        ticks = self.params.forecast_ticks
        stride = self._quantile_stride
        for percentile in percentiles:
            self._validate_quantile_args(float(percentile), None)
        b32 = beliefs.astype(np.float32, copy=False)
        keys = np.array([np.float32(p) for p in percentiles], dtype=np.float32)
        coarse = np.matmul(b32[:, None, :], self._cdf_coarse)[:, 0, :].reshape(
            n, ticks, self._coarse_cols
        )
        brackets = (coarse < keys[:, None, None]).sum(axis=2)
        lo = np.maximum(0, (brackets - 1) * stride + 1)
        # Window mixtures, padded to the stride with +inf so the vectorized
        # "count below key" never sees a pad (every real CDF value is finite).
        windows = np.full((n, ticks, stride), np.inf, dtype=np.float32)
        for j in range(ticks):
            for k in np.unique(brackets[:, j]):
                sel = np.flatnonzero(brackets[:, j] == k)
                l, stop = self._quantile_windows[int(k)]
                block = self._cdf_cols[j, l:stop]
                mixed = np.matmul(block, b32[sel][:, :, None])
                windows[sel, j, : stop - l] = mixed[:, :, 0]
        forecast = (lo + (windows < keys[:, None, None]).sum(axis=2)).astype(float)
        np.minimum(forecast, self._max_count, out=forecast)
        np.maximum.accumulate(forecast, axis=1, out=forecast)
        return forecast


# ----------------------------------------------------- shared-model memoiser

#: models kept by :func:`shared_rate_model`.  One paper-size model holds
#: 3.9 MB of frozen arrays (6.6 MB at a 40 ms tick), so the bound is wide
#: enough for any realistic sweep's distinct parameter sets and small enough
#: that a pathological grid cannot pin gigabytes.
_MODELS = Memo(max_entries=16)


def model_cache() -> Memo:
    """The process-wide memo behind :func:`shared_rate_model`."""
    return _MODELS


def clear_shared_models() -> None:
    """Drop every memoised shared model (used by tests)."""
    _MODELS.clear()


def shared_rate_model(params: Optional[RateModelParams] = None) -> RateModel:
    """Return a memoised :class:`RateModel`.

    Every Sprout connection with the same (frozen) parameters shares one
    instance because the model is immutable after construction.
    """
    key = params if params is not None else RateModelParams()
    return _MODELS.get(key, lambda: RateModel(key))
