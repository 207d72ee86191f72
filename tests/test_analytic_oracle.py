"""Standing differential-validation oracle for the TCP baselines.

Marked ``oracle`` (``make test-oracle``): every run re-emulates a small
loss × rtt grid on a noise-free steady link and checks the simulated Reno
and Cubic throughput against the closed-form PFTK/CUBIC predictions of
:mod:`repro.experiments.analytic` via :func:`validate_grid`.  The point is
not to re-test the predictors (the property suite does that) but to keep a
standing tripwire over the *simulator*: a congestion-control regression —
a changed increase constant, a broken retransmit path, an ACK-clocking
bug — shows up as a systematic throughput shift the oracle flags, even
when every behavioural unit test still passes.

Tolerance calibration lives in docs/analytic.md: ORACLE_TOLERANCE = 0.25
against a worst observed in-scope error of ~0.12 on this grid, while the
canary mutation below (Reno's additive-increase constant ALPHA 1.0 → 0.15,
a ~sqrt(ALPHA) throughput scaling, ~60% error) trips it with a wide gap on
both sides.

The grid deliberately stays in the oracle-grade regime: non-zero loss on a
steady (volatility-free) channel, and short enough RTTs that Cubic sits in
its TCP-friendly region (the real-time cubic-growth regime is outside the
oracle — see CUBIC_FRIENDLY_RATIO).
"""

from __future__ import annotations

import pytest

from repro.baselines.reno import RenoSender
from repro.experiments.analytic import (
    ORACLE_SCHEMES,
    ORACLE_TOLERANCE,
    _oracle_throughput_bps,
    validate_grid,
)
from repro.experiments.policy import cell_link_name
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import GridData, GridPoint, GridSpec, expand_grid, run_grid
from repro.metrics.summary import SchemeResult
from repro.traces.channel import ChannelConfig
from repro.traces.networks import LinkSpec

pytestmark = pytest.mark.oracle

#: a noise-free channel: constant rate, no outages, no fades — the regime
#: where the PFTK/CUBIC response functions are exact enough to police the
#: simulator (volatile channels carry uncertainty >= the oracle cap and
#: are excluded from validation by design).
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

ORACLE_SPEC = GridSpec(
    parameters=("loss", "rtt"),
    values=((0.004, 0.02, 0.06), (0.04, 0.12)),
    schemes=ORACLE_SCHEMES,
    links=(STEADY_LINK,),
)
ORACLE_CONFIG = RunConfig(duration=20.0, warmup=2.0)


@pytest.fixture(scope="module")
def oracle_grid():
    return run_grid(ORACLE_SPEC, config=ORACLE_CONFIG, backend="batched")


def test_reno_and_cubic_match_predictions(oracle_grid):
    divergences = validate_grid(oracle_grid, ORACLE_CONFIG)
    assert divergences == [], "\n".join(d.summary for d in divergences)


def test_oracle_covers_both_schemes_and_all_loss_cells(oracle_grid):
    """The green run above must not be vacuous: with the tolerance squeezed

    to near-zero, every in-scope (scheme, loss, rtt) cell shows *some*
    stochastic deviation — proving the oracle actually compared them all.
    """
    divergences = validate_grid(oracle_grid, ORACLE_CONFIG, tolerance=1e-9)
    seen = {(d.scheme, d.label) for d in divergences}
    assert {d.scheme for d in divergences} == set(ORACLE_SCHEMES)
    # Reno is oracle-grade on every cell of the grid; Cubic only where its
    # TCP-friendly region binds (short RTT keeps it under the cubic-mode
    # uncertainty score).
    reno_cells = {label for scheme, label in seen if scheme == "Reno"}
    assert len(reno_cells) == 6


def test_mutated_reno_constant_trips_the_oracle(monkeypatch):
    """The canary: weakening Reno's additive increase (ALPHA 1.0 -> 0.15)

    scales steady-state throughput by ~sqrt(ALPHA) (~60% low), far past
    ORACLE_TOLERANCE — a silent congestion-avoidance regression cannot
    pass the oracle.  Serial in-process run so the monkeypatch reaches the
    simulated sender.
    """
    monkeypatch.setattr(RenoSender, "ALPHA", 0.15)
    spec = GridSpec(
        parameters=("loss", "rtt"),
        values=((0.02,), (0.04,)),
        schemes=("Reno",),
        links=(STEADY_LINK,),
    )
    data = run_grid(spec, config=ORACLE_CONFIG, backend="batched")
    divergences = validate_grid(data, ORACLE_CONFIG)
    assert len(divergences) == 1
    record = divergences[0]
    assert record.scheme == "Reno"
    assert record.metric == "throughput_bps"
    assert record.relative_error > ORACLE_TOLERANCE
    assert record.simulated < record.predicted  # weakened sender runs slow
    assert "DIVERGED" not in record.summary  # render adds the verdict
    assert record.tolerance == ORACLE_TOLERANCE


# ------------------------------------------------ which cells are in scope

#: a 96-cell scope grid: every regime edge of the oracle (no loss, loss too
#: light to bind, Cubic's cubic mode, CoDel by scheme and by axis, a
#: volatile registry link) next to the cells the oracle does check
SCOPE_SPEC = GridSpec(
    parameters=("loss", "rtt", "aqm"),
    values=((0.0, 0.004, 0.02, 0.2), (0.04, 0.12), (0, 1)),
    schemes=("Reno", "Cubic", "Cubic-CoDel"),
    links=(STEADY_LINK, "Verizon LTE downlink"),
)

#: the oracle's predicted throughput (bit/s) on every in-scope cell of
#: SCOPE_SPEC, keyed by (scheme, link, loss, rtt, aqm), as recorded before
#: the oracle's regime test was folded into one function; every other
#: cell of the grid is out of scope (None)
SCOPE_CONSTANTS = {
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.004, 0.04, 0): 5245466.513555443,
    ("Cubic", "Steady 9.6 Mbit/s downlink", 0.004, 0.04, 0): 5245466.513555443,
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.004, 0.12, 0): 1863412.8307116448,
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.02, 0.04, 0): 2013419.4666325543,
    ("Cubic", "Steady 9.6 Mbit/s downlink", 0.02, 0.04, 0): 2013419.4666325543,
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.02, 0.12, 0): 777482.3452205587,
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.2, 0.04, 0): 132674.01473681856,
    ("Reno", "Steady 9.6 Mbit/s downlink", 0.2, 0.12, 0): 87900.48265522764,
}


def test_oracle_scope_and_predictions_are_pinned():
    cells = iter(expand_grid(SCOPE_SPEC))
    checked = 0
    for coordinates in SCOPE_SPEC.coordinates():
        for scheme in SCOPE_SPEC.schemes:
            for link in SCOPE_SPEC.links:
                key = (scheme, cell_link_name(link), *coordinates)
                assert _oracle_throughput_bps(next(cells)) == SCOPE_CONSTANTS.get(key), key
                checked += 1
    assert checked == 96


# ------------------------------------------------------ tolerance domain


def _one_reno_cell_grid() -> GridData:
    """A hand-built one-point grid: one in-scope Reno cell, far off its
    prediction (1 kbit/s measured against ~2 Mbit/s predicted)."""
    spec = GridSpec(
        parameters=("loss", "rtt"),
        values=((0.02,), (0.04,)),
        schemes=("Reno",),
        links=(STEADY_LINK,),
    )
    row = SchemeResult(
        scheme="Reno",
        link=STEADY_LINK.name,
        throughput_bps=1000.0,
        delay_95_s=0.1,
        self_inflicted_delay_s=0.06,
        utilization=0.001,
    )
    point = GridPoint(parameters=spec.parameters, coordinates=(0.02, 0.04), results=[row])
    return GridData(spec=spec, points=[point])


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
def test_validate_grid_refuses_a_non_finite_tolerance(tolerance):
    """Every ``relative > nan`` is False: a nan tolerance would turn the
    oracle into a silent green on a cell it plainly flags."""
    data = _one_reno_cell_grid()
    assert len(validate_grid(data, ORACLE_CONFIG)) == 1
    with pytest.raises(ValueError, match="tolerance must be a positive finite number"):
        validate_grid(data, ORACLE_CONFIG, tolerance=tolerance)
