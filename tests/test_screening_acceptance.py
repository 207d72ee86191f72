"""Acceptance bar for the analytic screening tier (docs/analytic.md).

One perf-marked end-to-end run: a 16 × 16 ``loss × scale`` Reno grid on a
noise-free steady link, screened with the default :class:`ScreenConfig`,
must

* emulate at most 25% of the 256 cells (the measured figure is 18, ~7%), and
* render *exactly* the same starred frontier as the full unscreened run —
  screening may only discard cells that were never going to be frontier
  operating points.

The steady link matters: on the volatile registry channels the measured
self-inflicted delay of loss-limited cells is trace-noise-driven and no
closed form predicts its ordering, which is why those cells carry
uncertainty >= the screening threshold and are always emulated.  The
fidelity claim screening makes — and this test enforces — is therefore
exercised where predictions are trustworthy enough to discard anything.
"""

from __future__ import annotations

import pytest

from repro.experiments.analytic import ScreenConfig
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import (
    GridSpec,
    pareto_frontier,
    render_grid_frontiers,
    run_grid,
)
from repro.traces.channel import ChannelConfig
from repro.traces.networks import LinkSpec

pytestmark = pytest.mark.perf

STEADY_LINK = LinkSpec(
    network="Steady 9.6 Mbit/s",
    direction="downlink",
    config=ChannelConfig(
        mean_rate=800.0,
        volatility=0.0,
        outage_rate=0.0,
        fade_depth=0.0,
        max_rate=4000.0,
    ),
    seed=77,
)

#: 16 log-spaced loss rates over 0.1%–10% and 16 log-spaced trace scales
#: over 0.25×–4× — 256 cells spanning the loss-limited regime.  Reno cells
#: cannot batch, so the unscreened reference is the test's cost: a 32 × 32
#: grid proved the same frontier property in seven times the wall time.
LOSSES = tuple(0.001 * (100.0 ** (i / 15.0)) for i in range(16))
SCALES = tuple(0.25 * (16.0 ** (i / 15.0)) for i in range(16))

ACCEPTANCE_SPEC = GridSpec(
    parameters=("loss", "scale"),
    values=(LOSSES, SCALES),
    schemes=("Reno",),
    links=(STEADY_LINK,),
)
ACCEPTANCE_CONFIG = RunConfig(duration=5.0, warmup=1.0)


def _frontier_stars(data):
    """The measured frontier as (label, scheme) pairs, plus the rendered
    starred lines — both must survive screening untouched."""
    entries = [
        (point.label, row)
        for point in data.points
        for row in point.ok_results
    ]
    flags = pareto_frontier([row for _, row in entries])
    stars = {
        (label, row.scheme)
        for (label, row), on_frontier in zip(entries, flags)
        if on_frontier
    }
    rendered = {
        line
        for line in render_grid_frontiers(data).splitlines()
        if line.rstrip().endswith("*")
    }
    return stars, rendered


def test_screened_grid_keeps_the_exact_frontier():
    screened = run_grid(
        ACCEPTANCE_SPEC, config=ACCEPTANCE_CONFIG, jobs=2, screen=ScreenConfig()
    )
    total = sum(len(point.results) for point in screened.points)
    emulated = total - len(screened.screened)
    assert total == 256
    # the whole point of the tier: at most a quarter of the grid emulated
    assert emulated <= total * 0.25, f"screening emulated {emulated}/{total} cells"
    assert len(screened.screened) > 0

    unscreened = run_grid(ACCEPTANCE_SPEC, config=ACCEPTANCE_CONFIG, jobs=2)
    expected_stars, expected_lines = _frontier_stars(unscreened)
    actual_stars, actual_lines = _frontier_stars(screened)

    assert expected_stars, "unscreened run produced an empty frontier"
    # every frontier operating point of the full run was emulated and
    # starred identically in the screened run — no misses, no extras
    assert actual_stars == expected_stars
    assert actual_lines == expected_lines
