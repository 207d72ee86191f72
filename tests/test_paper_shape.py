"""The paper's qualitative results (Section 5), checked at full length.

Every figure and table below is rebuilt from 60 s traces with a 10 s
warm-up (Figure 2 analyses 300 s), and checked for the *shape* the paper
reports: who wins, in which direction a knob moves a metric, which
ordering holds.  The absolute numbers are not asserted: our links are
synthetic, and the goldens in ``test_report.py`` pin the exact bytes.

The emulations run as one batch, declared the way ``repro report``
declares them (:func:`repro.experiments.report.generate_report`): Figure 1's
two time series are queued first, then every distinct cell of the Section
5.7 pair, the Figure 7 matrix, Figure 9, the loss table and the ablation
runs once on one two-worker pool, and each check assembles its section
from that batch.

Published reference points, next to the check each one motivates.  Each
is tagged ``in-repo``: it was carried over from this repo's earlier
benchmark docstrings and has not been re-checked against the paper's text.

* Introduction, first table (averages over the paper's eight links):
  Sprout carries ~2.2x Skype's bit rate with ~7.9x less self-inflicted
  delay, and 1.9-4.4x the videoconference applications' rate; it gives
  Cubic some throughput for a ~79x delay reduction (in-repo).  Checked:
  each app's speedup > 0.8 and delay reduction > 3; Cubic's speedup < 1
  and delay reduction > 5; Vegas and LEDBAT delay reductions >= 1.
* Introduction, second table: Sprout-EWMA carries about 2x Sprout's bit
  rate at higher delay, beats plain Cubic on both throughput and delay, and
  gets within a few percent of Cubic-CoDel's delay with roughly 30% more
  throughput (in-repo).  Checked: Sprout's speedup > 1 and delay ratio
  <= 1; Cubic's delay reduction > 2; Cubic-CoDel's < 3.
* Section 5.6, Sprout under Bernoulli loss of 0%, 5% and 10%: throughput
  falls 4741 -> 3971 -> 2768 kbps on the Verizon LTE downlink and 3703 ->
  2598 -> 1163 kbps on the uplink, while delay stays at 73/60/58 ms and
  332/378/314 ms (in-repo).  Checked: 10% loss costs throughput but keeps
  more than 15% of it, and delay stays under 1 s.
* Section 5.7, Cubic and Skype through SproutTunnel: Skype's 95th
  percentile delay falls from 6.0 s to 0.17 s (-97%) and its throughput
  rises, while Cubic loses 55% of its throughput (in-repo).  Checked:
  Skype's tunnelled 95% delay is under half its direct one, and Cubic's
  tunnelled throughput is below its direct one.
* Figure 2, interarrivals on a saturated Verizon LTE downlink: 99.99%
  fall within 20 ms, and the tail beyond is a power law with density
  ~ t^-3.27 (in-repo).  Checked: under 5% survive past 20 ms, some exceed
  100 ms, and the fitted exponent lies in (1.5, 8).
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.connection import SproutConfig
from repro.core.rate_model import RateModelParams
from repro.experiments.competing import assemble_competing, competing_cells
from repro.experiments.figure1 import assemble_figure1, figure1_tasks
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure7 import Figure7Data, figure7_cells
from repro.experiments.figure8 import FIGURE8_SCHEMES, run_figure8
from repro.experiments.figure9 import assemble_figure9, figure9_cells
from repro.experiments.parallel import shared_pool, start_tasks
from repro.experiments.registry import INTRO_TABLE_SCHEMES, sprout_variant
from repro.experiments.report import _run_once
from repro.experiments.runner import RunConfig
from repro.experiments.tables import (
    LOSS_RATES,
    assemble_loss_table,
    ewma_table,
    intro_table,
    loss_table_cells,
)
from repro.traces.networks import link_names

pytestmark = pytest.mark.golden

#: the run every cell shares: 60 s traces, the first 10 s not measured
CONFIG = RunConfig(duration=60.0, warmup=10.0)

#: the ablation's link and schemes: the registry Sprout, which has the
#: paper's constants (sigma = 200 pkt/s/sqrt(s), a 5-tick = 100 ms
#: look-ahead) and is the matrix's cell on this link, then a calmer and a
#: wilder assumed link and a longer delay tolerance
ABLATION_LINK = "Verizon LTE downlink"
ABLATION = {
    "paper": "Sprout",
    "sigma=50": sprout_variant(
        "Sprout (sigma=50)", SproutConfig(model_params=RateModelParams(sigma=50.0))
    ),
    "sigma=500": sprout_variant(
        "Sprout (sigma=500)", SproutConfig(model_params=RateModelParams(sigma=500.0))
    ),
    "lookahead=8": sprout_variant("Sprout (lookahead=8)", SproutConfig(lookahead_ticks=8)),
}


@pytest.fixture(scope="module")
def paper():
    """Every emulation the checks read, each distinct one run once."""
    with shared_pool(2):
        figure1_series = start_tasks(figure1_tasks(duration=CONFIG.duration))
        tunnel = competing_cells(duration=CONFIG.duration, warmup=CONFIG.warmup)
        matrix = figure7_cells(schemes=INTRO_TABLE_SCHEMES, config=CONFIG)
        figure9 = figure9_cells(config=CONFIG)
        loss = loss_table_cells(config=CONFIG)
        ablation = [(scheme, ABLATION_LINK, CONFIG) for scheme in ABLATION.values()]
        results_of = _run_once(
            [*tunnel, *matrix, *figure9, *loss, *ablation], progress=None, jobs=2
        )
        figure1 = assemble_figure1(figure1_series(), duration=CONFIG.duration)
    return SimpleNamespace(
        figure1=figure1,
        matrix=Figure7Data(results=results_of(matrix)),
        figure9=assemble_figure9(results_of(figure9)),
        loss=assemble_loss_table(results_of(loss)),
        tunnel=assemble_competing(results_of(tunnel)),
        ablation=dict(zip(ABLATION, results_of(ablation))),
    )


def test_figure1_sprout_holds_delay_below_skype(paper):
    """Figure 1, Verizon LTE downlink: Skype overshoots the varying capacity
    and builds standing queues of several seconds; Sprout tracks capacity
    while holding per-packet delay near its 100 ms target."""
    summary = paper.figure1.summary()
    sprout = summary["Sprout"]
    skype = summary["Skype"]
    assert sprout["p95_delay_ms"] < skype["p95_delay_ms"]
    # Sprout is not starved of throughput.
    assert sprout["mean_throughput_kbps"] > 0.5 * skype["mean_throughput_kbps"]
    assert np.mean(paper.figure1.capacity_kbps) > 0


def test_figure2_interarrivals_are_short_with_a_heavy_tail():
    """Figure 2: the reference points are in the module docstring."""
    data = run_figure2(duration=300.0)
    idx_20ms = int(np.searchsorted(data.thresholds, 0.020))
    assert data.survival_percent[idx_20ms] < 5.0
    # The tail is heavy: some interarrivals an order of magnitude longer exist.
    assert data.stats.max > 0.1
    # A power-law fit of the tail is obtained (exponent in a plausible range).
    assert np.isnan(data.tail_exponent) or 1.5 < data.tail_exponent < 8.0


def test_figure7_sprout_has_near_lowest_delay_on_every_link(paper):
    """Figure 7: Sprout has the lowest, or close to the lowest, delay on
    every link; the videoconference applications sit at low throughput and
    high delay; Cubic reaches the highest throughput at multi-second delay."""
    grouped = paper.matrix.by_link()
    assert set(grouped) == set(link_names())
    sprout_delay_rank = []
    for rows in grouped.values():
        by_delay = sorted(rows, key=lambda r: r.self_inflicted_delay_s)
        sprout_delay_rank.append([r.scheme for r in by_delay].index("Sprout"))
        # Every scheme produced a meaningful measurement on every link.
        assert all(r.throughput_bps > 0 for r in rows)
    # On average Sprout ranks in the best two.
    assert np.mean(sprout_delay_rank) <= 1.5


def test_figure8_codel_cuts_cubic_delay_and_sprout_cuts_more(paper):
    """Figure 8: CoDel cuts Cubic's delay at modest throughput cost;
    Sprout's delay is lower still despite being end-to-end; Sprout-EWMA
    approaches Cubic-CoDel's delay with more throughput than Sprout."""
    data = run_figure8(results=paper.matrix.results)
    assert set(data.averages) == set(FIGURE8_SCHEMES)
    assert data.mean_delay_ms("Cubic-CoDel") < data.mean_delay_ms("Cubic")
    assert data.mean_delay_ms("Sprout") <= data.mean_delay_ms("Cubic-CoDel")
    # Cubic-family utilization above Sprout's cautious forecasts, and
    # Sprout-EWMA's above Sprout's too.
    assert data.utilization_percent("Cubic") > data.utilization_percent("Sprout")
    assert data.utilization_percent("Sprout-EWMA") > data.utilization_percent("Sprout")


def test_figure9_confidence_trades_delay_for_throughput(paper):
    """Figure 9, T-Mobile 3G UMTS uplink: lowering the forecast's confidence
    from 95% towards 5% trades delay for throughput along a frontier; even
    so, Sprout does not beat Sprout-EWMA on both metrics at once."""
    frontier = paper.figure9.frontier()
    most_cautious = frontier[0]
    least_cautious = frontier[-1]
    assert least_cautious.throughput_bps >= most_cautious.throughput_bps
    assert (
        least_cautious.self_inflicted_delay_s
        >= 0.8 * most_cautious.self_inflicted_delay_s
    )
    assert any(r.scheme == "Sprout-EWMA" for r in paper.figure9.context)


def test_intro_table_sprout_against_every_scheme(paper):
    """The introduction's first table: reference points in the module docstring."""
    by_scheme = {c.scheme: c for c in intro_table(results=paper.matrix.results)}
    assert by_scheme["Sprout"].speedup == 1.0
    # Sprout's delay advantage over the videoconference applications is
    # many-fold, while its throughput is at least competitive.  (Our
    # synthetic slow 3G links make the cautious forecast give some of the
    # paper's throughput gain back.)
    for app in ("Skype", "Google Hangout", "Facetime"):
        assert by_scheme[app].speedup > 0.8
        assert by_scheme[app].delay_reduction > 3.0
    # Cubic out-throughputs Sprout but pays an enormous delay penalty.
    assert by_scheme["Cubic"].speedup < 1.0
    assert by_scheme["Cubic"].delay_reduction > 5.0
    # The delay-triggered schemes sit in between.
    assert by_scheme["Vegas"].delay_reduction >= 1.0
    assert by_scheme["LEDBAT"].delay_reduction >= 1.0


def test_ewma_table_sprout_ewma_against_sprout_and_cubic(paper):
    """The introduction's second table: reference points in the module docstring."""
    by_scheme = {c.scheme: c for c in ewma_table(results=paper.matrix.results)}
    assert by_scheme["Sprout-EWMA"].speedup == 1.0
    # Sprout-EWMA out-throughputs cautious Sprout (speedup > 1)...
    assert by_scheme["Sprout"].speedup > 1.0
    # ...while Sprout keeps the lower delay (ratio below 1).
    assert by_scheme["Sprout"].delay_reduction <= 1.0
    # Sprout-EWMA's delay is far below plain Cubic's...
    assert by_scheme["Cubic"].delay_reduction > 2.0
    # ...and in the same league as Cubic-over-CoDel's.
    assert by_scheme["Cubic-CoDel"].delay_reduction < 3.0


def test_loss_table_sprout_keeps_working_under_loss(paper):
    """Section 5.6: reference points in the module docstring."""
    assert set(LOSS_RATES) == {0.0, 0.05, 0.10}
    for by_rate in paper.loss.rows.values():
        clean = by_rate[0.0]
        heavy = by_rate[0.10]
        assert heavy.throughput_bps < clean.throughput_bps
        # Sprout keeps delivering useful throughput at 10% loss, where TCP
        # would collapse, and its delay stays bounded.
        assert heavy.throughput_bps > 0.15 * clean.throughput_bps
        assert heavy.self_inflicted_delay_s < 1.0


def test_tunnel_table_cuts_skype_delay_at_cubics_expense(paper):
    """Section 5.7: reference points in the module docstring.  The tunnel's
    forecast-bounded queue stops Cubic filling the carrier buffer."""
    direct = paper.tunnel.direct.flows
    tunnelled = paper.tunnel.tunnelled.flows
    assert tunnelled["skype"].delay_95_s < 0.5 * direct["skype"].delay_95_s
    assert tunnelled["cubic"].throughput_bps < direct["cubic"].throughput_bps


def test_ablation_sigma_and_lookahead(paper):
    """The paper fixes sigma and the look-ahead before collecting its traces,
    and Section 7 asks what other stochastic models would buy.  A smaller
    sigma makes the forecast less cautious (more throughput, more delay
    risk), a larger one the opposite; a longer look-ahead tolerates more
    queueing before throttling."""
    results = paper.ablation
    paper_constants = results["paper"].throughput_bps
    assert results["sigma=50"].throughput_bps >= 0.9 * paper_constants
    assert results["sigma=500"].throughput_bps <= 1.1 * paper_constants
    assert results["lookahead=8"].throughput_bps >= 0.9 * paper_constants
    # Every variant stays interactive-grade (far under Cubic's queues).
    for result in results.values():
        assert result.self_inflicted_delay_s < 1.0
