"""The Monte-Carlo forecast tables the rate model used to be built from.

Before the exact Section 3.3 recursion, ``RateModel._build_cumulative_cdfs``
estimated the cumulative-delivery tables by sampling: 4 000 rate paths per
start bin from a fixed seed.  This is that sampler, unchanged but for its
receiver being an argument.  It is the convergence reference the exact
tables are held to (``tests/test_rate_model.py``) and, at its old seed and
path count, the tables the parent-commit forecast digests were recorded on
(``tests/test_fast_path.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.rate_model import RateModel

#: sample paths per rate bin of the old production tables
DEFAULT_FORECAST_PATHS = 4000
#: the old production tables' seed
FORECAST_SEED = 20130419


def model_with_tables(params, tables: np.ndarray) -> RateModel:
    """A :class:`RateModel` whose forecast tables are ``tables``.

    ``RateModel(params)`` builds outside the :func:`shared_rate_model`
    memo, so the substitute tables never reach another model with the same
    parameters.
    """

    class WithTables(RateModel):
        def _build_cumulative_cdfs(self, transition: np.ndarray) -> np.ndarray:
            return tables

    return WithTables(params)


def monte_carlo_cdfs(
    self: RateModel, paths: int = DEFAULT_FORECAST_PATHS, seed: int = FORECAST_SEED
) -> np.ndarray:
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
    stay bit-identical; ``tests/test_fast_path.py`` holds the default
    tables to the sha256 of the last production build.
    """
    p = self.params
    rng = np.random.default_rng(seed)
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
