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

That precomputation — the Monte-Carlo CDF tensor above all — costs on the
order of seconds per parameter set, which used to be paid per *process*:
every worker of every sweep rebuilt every swept model from scratch.  It is
now memoised through a two-level **model-artifact cache** (the generic
store of :mod:`repro.cache`, the same design as the trace cache): the
transition matrix, the CDF tensor, and its quantile companions are
serialised as one versioned ``.npz`` keyed on ``(RateModelParams,
forecast_paths, FORECAST_SEED, format version)``, so a parameter set is
built once ever per machine and every later construction — in this process
or any worker — is a memory or disk hit.  Cached and freshly built models
are bit-identical (``tests/test_model_cache.py``); see
docs/performance.md ("Layer 3") for the knobs:

* ``REPRO_MODEL_CACHE=0`` disables the cache entirely (every model
  rebuilds, the seed behaviour);
* ``REPRO_MODEL_CACHE_DISK=0`` keeps the in-process layer but skips disk;
* ``REPRO_MODEL_CACHE_DIR`` relocates the disk layer (default: a per-user
  directory under the system temp dir);
* ``REPRO_MODEL_CACHE_MAX`` bounds the in-process artifact layer;
* ``REPRO_SHARED_MODEL_MAX`` bounds the :func:`shared_rate_model`
  instance memoiser (the old hard-wired 8 thrashed on wide sweeps).
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
import zipfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, Optional, Sequence

import numpy as np
from scipy.special import gammainc, gammaln

from repro.cache import (
    ArtifactCache,
    content_key,
    default_cache_directory,
    env_positive_int,
)

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
#: Monte-Carlo sample paths per rate bin behind the forecast CDFs
DEFAULT_FORECAST_PATHS = 4000


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
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.outage_escape_rate < 0:
            raise ValueError("outage_escape_rate must be non-negative")
        if self.forecast_ticks < 1:
            raise ValueError("forecast_ticks must be at least 1")


# ------------------------------------------------------ model-artifact cache

#: fixed seed for the offline Monte-Carlo precomputation, so that every
#: model instance (and therefore every experiment) is reproducible
FORECAST_SEED = 20130419

#: bump when the precomputation changes so stale disk entries are orphaned
MODEL_CACHE_FORMAT_VERSION = 2

#: the arrays one cached model artifact carries, in storage order
_ARTIFACT_FIELDS = (
    "transition",
    "cumulative_cdfs",
    "cdf_cols",
    "cdf_coarse",
)

#: every `stride`-th CDF count column feeds the coarse quantile bracket
_QUANTILE_STRIDE = 16


#: in-process artifact entries kept by default.  One paper-size artifact is
#: 3.9 MB of frozen arrays (float32 tensor + companions; 6.6 MB at a 40 ms
#: tick), far heavier than a trace-cache entry, so the bound is tighter than
#: the trace cache's 64 — wide enough for any realistic sweep's distinct
#: parameter sets, small enough that a pathological grid cannot pin gigabytes.
DEFAULT_MODEL_ARTIFACTS = 16


def default_model_cache_dir() -> str:
    """The default on-disk location: per-user, under the system temp dir."""
    return default_cache_directory("REPRO_MODEL_CACHE_DIR", "repro-model-cache")


def model_key(
    params: RateModelParams, forecast_paths: int = DEFAULT_FORECAST_PATHS
) -> str:
    """Content hash identifying one deterministic model precomputation.

    Covers every :class:`RateModelParams` field, the Monte-Carlo ensemble
    size, the fixed forecast seed, and the artifact format version — the
    complete set of inputs the precomputed arrays depend on.
    """
    fields = tuple(
        (f.name, repr(getattr(params, f.name))) for f in dataclasses.fields(params)
    )
    return content_key(
        (MODEL_CACHE_FORMAT_VERSION, fields, int(forecast_paths), FORECAST_SEED)
    )


class ModelArtifactCache(ArtifactCache):
    """Two-level cache of model precomputation artifacts (``.npz`` files).

    One artifact is the dict of arrays named by :data:`_ARTIFACT_FIELDS`.
    Arrays are published read-only: the memory layer hands the same objects
    to every :class:`RateModel` with the same parameters, and freezing them
    makes accidental cross-model mutation impossible.
    """

    suffix = ".npz"

    def default_directory(self) -> str:
        return default_model_cache_dir()

    def write_artifact(self, handle, arrays: Dict[str, np.ndarray]) -> None:
        np.savez(handle, **arrays)

    def read_artifact(self, path: str) -> Dict[str, np.ndarray]:
        try:
            with np.load(path, allow_pickle=False) as payload:
                if set(payload.files) != set(_ARTIFACT_FIELDS):
                    raise ValueError(f"unexpected model artifact contents: {path}")
                arrays = {name: payload[name] for name in _ARTIFACT_FIELDS}
        except zipfile.BadZipFile as error:
            # A truncated .npz surfaces as a bad zip, not an OSError.
            raise ValueError(str(error)) from error
        for array in arrays.values():
            array.flags.writeable = False
        return arrays


#: the process-wide model-artifact cache consulted by every RateModel
_MODEL_CACHE = ModelArtifactCache.from_env(
    "REPRO_MODEL_CACHE", default_max=DEFAULT_MODEL_ARTIFACTS
)


def model_cache() -> ModelArtifactCache:
    """The process-wide model-artifact cache."""
    return _MODEL_CACHE


def configure_model_cache(
    directory: Optional[str] = None,
    use_disk: Optional[bool] = None,
    enabled: Optional[bool] = None,
    max_entries: Optional[int] = None,
) -> ModelArtifactCache:
    """Reconfigure the process-wide model cache (used by tests and tools).

    Any argument left as ``None`` keeps its current value.  The in-process
    layer is cleared so stale entries cannot outlive a reconfiguration.
    """
    return _MODEL_CACHE.configure(
        directory=directory,
        use_disk=use_disk,
        enabled=enabled,
        max_entries=max_entries,
    )


@contextmanager
def model_cache_directory(directory: str) -> Iterator[ModelArtifactCache]:
    """Temporarily point the model cache at ``directory``.

    Sets ``REPRO_MODEL_CACHE_DIR`` too, so worker processes spawned inside
    the context resolve the same location regardless of start method.  On
    exit both the env var and the cache's ``directory`` are restored, and
    the in-process layer is cleared so artifacts from the temporary
    location cannot leak past it.  Used by the test and benchmark suites
    to isolate every run from the per-user disk cache.
    """
    previous_env = os.environ.get("REPRO_MODEL_CACHE_DIR")
    previous_directory = _MODEL_CACHE.directory
    os.environ["REPRO_MODEL_CACHE_DIR"] = directory
    try:
        yield configure_model_cache(directory=directory)
    finally:
        if previous_env is None:
            os.environ.pop("REPRO_MODEL_CACHE_DIR", None)
        else:
            os.environ["REPRO_MODEL_CACHE_DIR"] = previous_env
        _MODEL_CACHE.directory = previous_directory
        _MODEL_CACHE.clear()


class RateModel:
    """Precomputed matrices for Bayesian inference on the link rate.

    Args:
        params: model parameters (the paper's frozen values by default).
        forecast_paths: number of Monte-Carlo sample paths per rate bin used
            to precompute the cumulative-delivery distributions.  The paths
            are drawn once, from a fixed seed, at model construction; the
            runtime forecast is a deterministic weighted sum over the bins.
    """

    #: fixed seed for the offline Monte-Carlo precomputation, so that every
    #: model instance (and therefore every experiment) is reproducible.
    FORECAST_SEED = FORECAST_SEED

    def __init__(
        self,
        params: Optional[RateModelParams] = None,
        forecast_paths: int = DEFAULT_FORECAST_PATHS,
    ) -> None:
        if forecast_paths < 100:
            raise ValueError("forecast_paths must be at least 100")
        self.params = params if params is not None else RateModelParams()
        self.forecast_paths = forecast_paths
        p = self.params

        #: the 256 candidate rates, packets per second
        self.rates = np.linspace(0.0, p.max_rate, p.num_bins)
        #: expected packets per tick for each candidate rate
        self.packets_per_tick = self.rates * p.tick
        # Maximum plausible cumulative count over the full forecast horizon,
        # with headroom so the CDF always reaches ~1 inside the grid.
        self._max_count = int(math.ceil(p.max_rate * p.tick * p.forecast_ticks)) + 40

        # Everything observation-independent comes from the model-artifact
        # cache: built here exactly once per (params, paths) key per machine,
        # then shared in memory and on disk.  A disabled cache builds fresh
        # every time (the seed behaviour); the arrays are bit-identical
        # either way (tests/test_model_cache.py).
        cache = model_cache()
        if cache.enabled:
            artifact = cache.get(
                model_key(p, forecast_paths), self._build_artifact
            )
        else:
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

        This is the expensive part of model construction (seconds at paper
        parameters, dominated by the Monte-Carlo CDF ensemble).  The arrays
        are frozen read-only before publication because the cache shares
        them between every model instance with the same parameters.
        """
        p = self.params
        transition = self._build_transition_matrix()
        cumulative_cdfs = self._build_cumulative_cdfs()
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

    def _build_cumulative_cdfs(self) -> np.ndarray:
        """Cumulative-delivery CDF grids used by the forecast (Section 3.3).

        ``cumulative_cdfs[j, i, n]`` is the probability that the link
        delivers at most ``n`` packets within ``j + 1`` ticks, *given that
        the current rate is* ``rates[i]`` and that the rate then follows the
        model's own dynamics (Brownian drift with the sticky outage state).
        The distribution is over the whole rate path, so early ticks — when
        the rate cannot yet have wandered far from its current value —
        contribute deliveries even under the cautious quantile, exactly as
        in the paper's tick-by-tick evolution.

        The grids are computed once per model by propagating a fixed-seed
        Monte-Carlo ensemble of rate paths for every starting bin; at
        runtime the forecast is a deterministic weighted sum of these rows
        under the current belief.

        The ensemble arrays are ~8 MB each at paper parameters, so every
        per-tick temporary is computed into a preallocated scratch buffer
        instead of a fresh allocation.  The RNG *call sequence* — which
        generator methods run, in what order, over what sizes — is exactly
        the allocating implementation's (``standard_normal`` into a buffer
        then scaling by ``std`` draws the same stream as
        ``normal(0, std)``), so the sampled paths, and therefore the CDFs,
        stay bit-identical; ``tests/test_model_cache.py`` and the golden
        fixtures hold this.
        """
        p = self.params
        rng = np.random.default_rng(self.FORECAST_SEED)
        paths = self.forecast_paths
        std = p.sigma * math.sqrt(p.tick)
        stay_in_outage = math.exp(-p.outage_escape_rate * p.tick)
        # Rates closer to zero than half a bin belong to the outage bin of
        # the discretized chain and inherit its stickiness.
        half_bin = 0.5 * (self.rates[1] - self.rates[0])

        # One row of sample paths per starting rate bin.
        shape = (p.num_bins, paths)
        rates = np.repeat(self.rates[:, None], paths, axis=1)
        counts = np.zeros(shape, dtype=np.int64)
        grid_size = self._max_count + 1
        # The tensor is stored float32 and C-contiguous: the forecast only
        # ever compares mixtures of these Monte-Carlo CDFs (resolution
        # 1/paths) against a quantile, so single precision is ample, and the
        # halved footprint keeps the forecast mixture kernel in cache.
        cdfs = np.empty((p.forecast_ticks, p.num_bins, grid_size), dtype=np.float32)
        row_offsets = np.arange(p.num_bins, dtype=np.int64)[:, None] * grid_size

        # Scratch buffers reused across all ticks and resample rounds.
        noise = np.empty(shape)
        proposal = np.empty(shape)
        uniform = np.empty(shape)
        lam = np.empty(shape)
        below = np.empty(shape, dtype=bool)
        above = np.empty(shape, dtype=bool)
        outside = np.empty(shape, dtype=bool)
        in_outage = np.empty(shape, dtype=bool)
        stays = np.empty(shape, dtype=bool)
        clipped = np.empty(shape, dtype=np.int64)

        def brownian_step(current: np.ndarray) -> None:
            """One conditional Brownian step into ``proposal``, on-grid.

            The discretized transition matrix renormalises each Gaussian row
            over the rate grid, which is equivalent to sampling the Gaussian
            step *conditioned on* landing inside the grid; a few rounds of
            rejection resampling reproduce that here, each round redrawing
            the full ensemble (so the stream matches the reference
            implementation) but doing the arithmetic only for the paths
            still outside the grid — a few percent after the first draw,
            shrinking every round.  Rounds stop as soon as none is outside.
            """
            rng.standard_normal(out=noise)
            np.multiply(noise, std, out=noise)
            np.add(current, noise, out=proposal)
            np.less(proposal, 0.0, out=below)
            np.greater(proposal, p.max_rate, out=above)
            np.logical_or(below, above, out=outside)
            stray = np.flatnonzero(outside)
            flat_current, flat_noise = current.ravel(), noise.ravel()
            flat_proposal = proposal.ravel()
            for _ in range(6):
                if not stray.size:
                    break
                rng.standard_normal(out=noise)
                redrawn = flat_current[stray] + flat_noise[stray] * std
                flat_proposal[stray] = redrawn
                stray = stray[(redrawn < 0.0) | (redrawn > p.max_rate)]
            np.clip(proposal, 0.0, p.max_rate, out=proposal)

        for j in range(p.forecast_ticks):
            # Evolve every path by one tick of the discretized rate dynamics.
            np.less(rates, half_bin, out=in_outage)
            brownian_step(rates)
            rng.random(out=uniform)
            np.less(uniform, stay_in_outage, out=stays)
            np.logical_and(in_outage, stays, out=stays)
            np.copyto(proposal, 0.0, where=stays)
            np.less(proposal, half_bin, out=below)
            np.copyto(proposal, 0.0, where=below)
            # Ping-pong the path buffers: `proposal` holds the new rates.
            rates, proposal = proposal, rates
            # Deliveries during this tick given the (new) instantaneous rate.
            np.multiply(rates, p.tick, out=lam)
            counts += rng.poisson(lam)
            np.minimum(counts, self._max_count, out=clipped)
            # Empirical CDF over the ensemble, per starting bin: histogram
            # every row in one flat bincount (rows are offset into disjoint
            # ranges), then a cumulative sum along the count axis.
            clipped += row_offsets
            histogram = np.bincount(clipped.ravel(), minlength=p.num_bins * grid_size)
            histogram = histogram.reshape(p.num_bins, grid_size)
            cdfs[j] = histogram.cumsum(axis=1) / float(paths)
        return cdfs

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
            # incomplete gamma function gammainc(k, mu) (continuous in k).
            likelihood[positive] = gammainc(packets_observed, self._mu_positive)
            return likelihood
        likelihood = np.zeros_like(self.packets_per_tick)
        log_pmf = (
            packets_observed * self._log_mu_positive
            - self._mu_positive
            - gammaln(packets_observed + 1.0)
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
        # (:meth:`_cumulative_quantile_loop`; the test suite holds the two
        # to equal outputs — a disagreement would need a mixture value
        # within one float32 rounding step of the percentile), but streams
        # ~250 KB instead of ~1.6 MB per call.
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
        # The running maximum enforces monotonicity against Monte-Carlo
        # quantile jitter.
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
        of the production kernel: one ``belief @ cumulative_cdfs[j]`` mixture
        and one ``searchsorted`` per horizon.
        """
        ticks = self._validate_quantile_args(percentile, num_ticks)
        belief32 = belief.astype(np.float32, copy=False)
        forecast = np.empty(ticks)
        previous = 0.0
        for j in range(ticks):
            mixture_cdf = belief32 @ self.cumulative_cdfs[j]
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

#: shared model instances kept in-process by default.  The old hard-wired
#: lru_cache(maxsize=8) thrashed on wide sweeps: a grid with more than 8
#: distinct swept model parameter sets evicted and rebuilt inside one
#: process.  Rebuilds are cheap now (an artifact-cache memory hit), but
#: there is no reason to churn model instances at all for any realistic
#: sweep width.
DEFAULT_SHARED_MODELS = 32

_SHARED_MODELS: "OrderedDict[RateModelParams, RateModel]" = OrderedDict()
_SHARED_MODELS_LOCK = threading.Lock()


def shared_model_capacity() -> int:
    """Instances :func:`shared_rate_model` keeps (``REPRO_SHARED_MODEL_MAX``).

    Malformed or non-positive values warn and fall back to
    ``DEFAULT_SHARED_MODELS`` (:func:`repro.cache.env_positive_int`).
    """
    return env_positive_int("REPRO_SHARED_MODEL_MAX", DEFAULT_SHARED_MODELS)


def clear_shared_models() -> None:
    """Drop every memoised shared model (used by tests)."""
    with _SHARED_MODELS_LOCK:
        _SHARED_MODELS.clear()


def shared_rate_model(params: Optional[RateModelParams] = None) -> RateModel:
    """Return a memoised :class:`RateModel`.

    Every Sprout connection with the same (frozen) parameters shares one
    instance because the model is immutable after construction.  The
    memoiser is LRU-bounded by :func:`shared_model_capacity` (the capacity
    is re-read per call, so tests and tools can retune it via
    ``REPRO_SHARED_MODEL_MAX`` without rebuilding the table), and an
    evicted entry's rebuild is an artifact-cache hit, not a recomputation.
    """
    key = params if params is not None else RateModelParams()
    with _SHARED_MODELS_LOCK:
        model = _SHARED_MODELS.get(key)
        if model is not None:
            _SHARED_MODELS.move_to_end(key)
            return model
    # Build outside the lock: construction may cost seconds cold, and a
    # concurrent builder of the same key produces an interchangeable model
    # (first publisher wins below).
    model = RateModel(key)
    with _SHARED_MODELS_LOCK:
        existing = _SHARED_MODELS.get(key)
        if existing is not None:
            _SHARED_MODELS.move_to_end(key)
            return existing
        _SHARED_MODELS[key] = model
        capacity = shared_model_capacity()
        while len(_SHARED_MODELS) > capacity:
            _SHARED_MODELS.popitem(last=False)
    return model
