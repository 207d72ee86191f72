"""Tests for the competing-traffic (SproutTunnel) experiment of Section 5.7."""

import pytest

from repro.experiments.competing import render_competing, run_competing_comparison
from repro.metrics.flows import EXPORTED_FLOW_FIELDS

#: What the stand-alone Section 5.7 direct and tunnelled scripts (deleted
#: when the section became two scenario cells) measured at commit 0ebb3f9,
#: recorded there before any source line changed: ``(duration, warmup) ->
#: mode -> flow -> (throughput_bps, delay_95_s, flow, packets, bytes)``,
#: i.e. every measured (``EXPORTED_FLOW_FIELDS``) field.  The scripts never
#: filled the diagnostic uplink counters, which the cell path does, so those
#: are not compared.  The ``sprout-tunnel`` entries were re-recorded once,
#: when the rate model's forecast tables became exact: the tunnel's Sprout
#: forecasts differently, while the direct flows never read a forecast.
PARENT_FLOWS = {
    (20.0, 5.0): {
        "direct": {
            "cubic": (3541600.0, 1.1932035632455218, "cubic", 4427, 6640500),
            "skype": (649267.2, 0.9799649680580893, "skype", 968, 1217376),
        },
        "sprout-tunnel": {
            "cubic": (1869600.0, 0.29323528673290183, "cubic", 2337, 3505500),
            "skype": (690053.3333333334, 0.12075494755034238, "skype", 1079, 1293850),
        },
    },
    (30.0, 10.0): {
        "direct": {
            "cubic": (3168600.0, 0.8236549200118637, "cubic", 5281, 7921500),
            "skype": (637392.8, 0.8098617335288358, "skype", 1198, 1593482),
        },
        "sprout-tunnel": {
            "cubic": (1284600.0, 0.5532575962350073, "cubic", 2141, 3211500),
            "skype": (1121777.6, 0.2608871132468639, "skype", 2173, 2804444),
        },
    },
}


@pytest.fixture(scope="module")
def comparison():
    return run_competing_comparison(duration=30.0, warmup=8.0)


@pytest.mark.parametrize("jobs", [None, 2])
@pytest.mark.parametrize("window", PARENT_FLOWS, ids=["20s", "30s"])
def test_cells_measure_what_the_stand_alone_scripts_measured(window, jobs):
    duration, warmup = window
    comparison = run_competing_comparison(duration=duration, warmup=warmup, jobs=jobs)
    measured = {
        run.mode: {
            name: tuple(getattr(flow, field) for field in EXPORTED_FLOW_FIELDS)
            for name, flow in run.flows.items()
        }
        for run in (comparison.direct, comparison.tunnelled)
    }
    assert measured == PARENT_FLOWS[window]


def test_direct_run_reports_both_flows(comparison):
    result = comparison.direct
    assert set(result.flows) == {"cubic", "skype"}
    assert result.flows["cubic"].throughput_bps > 0
    assert result.flows["skype"].throughput_bps > 0
    assert result.mode == "direct"


def test_tunnelled_run_reports_both_flows(comparison):
    result = comparison.tunnelled
    assert set(result.flows) == {"cubic", "skype"}
    assert result.flows["cubic"].throughput_bps > 0
    assert result.flows["skype"].throughput_bps > 0
    assert result.mode == "sprout-tunnel"


def test_tunnel_isolates_skype_from_cubic(comparison):
    """The paper's headline: Skype's delay collapses once tunnelled."""
    direct_delay = comparison.direct.flows["skype"].delay_95_s
    tunnel_delay = comparison.tunnelled.flows["skype"].delay_95_s
    assert tunnel_delay < direct_delay
    # The reduction is dramatic (-97% in the paper); require at least 2x.
    assert tunnel_delay < 0.5 * direct_delay


def test_tunnel_costs_cubic_some_throughput(comparison):
    direct = comparison.direct.flows["cubic"].throughput_bps
    tunnelled = comparison.tunnelled.flows["cubic"].throughput_bps
    assert tunnelled < direct


def test_change_percent_and_render(comparison):
    change = comparison.change_percent("skype", "delay_95_s")
    assert change < 0
    text = render_competing(comparison)
    assert "Cubic throughput" in text
    assert "Skype 95% delay" in text


# ----------------------------------------------------- scenario scheme specs


def test_competing_flow_names_mix():
    from repro.experiments.competing import competing_flow_names

    assert competing_flow_names(1) == ["skype"]
    assert competing_flow_names(2) == ["skype", "cubic-1"]
    assert competing_flow_names(4) == ["skype", "cubic-1", "cubic-2", "cubic-3"]
    with pytest.raises(ValueError):
        competing_flow_names(0)


def test_competing_scheme_parts_round_trip():
    import pickle

    from repro.core.connection import SproutConfig
    from repro.experiments.competing import competing_scheme, competing_scheme_parts
    from repro.experiments.registry import get_scheme

    direct = competing_scheme(3, tunnelled=False)
    assert direct.name == "Competing x3 [direct]"
    assert competing_scheme_parts(direct) == (3, False, None)

    config = SproutConfig(confidence=0.25)
    tunnelled = competing_scheme(2, tunnelled=True, sprout_config=config)
    assert tunnelled.name == "Competing x2 [tunnel]"
    flows, is_tunnelled, recovered = competing_scheme_parts(tunnelled)
    assert (flows, is_tunnelled) == (2, True)
    assert recovered.confidence == 0.25

    # ordinary schemes are not scenarios
    assert competing_scheme_parts(get_scheme("Sprout")) is None
    # scenario specs must ship to matrix worker processes
    pickle.loads(pickle.dumps(direct))
    pickle.loads(pickle.dumps(tunnelled))


def test_competing_scenarios_run_as_matrix_cells():
    """The scenario specs run through the ordinary scheme-on-link runner."""
    from repro.experiments.competing import competing_scheme
    from repro.experiments.runner import RunConfig, run_scheme_on_link

    config = RunConfig(duration=10.0, warmup=2.0)
    direct = run_scheme_on_link(
        competing_scheme(2, tunnelled=False), "Verizon LTE downlink", config
    )
    tunnelled = run_scheme_on_link(
        competing_scheme(2, tunnelled=True), "Verizon LTE downlink", config
    )
    assert direct.scheme == "Competing x2 [direct]"
    assert tunnelled.scheme == "Competing x2 [tunnel]"
    assert direct.throughput_bps > 0
    assert tunnelled.throughput_bps > 0
    # the §5.7 story at cell granularity: the tunnel contains the bulk
    # flow's queue, so the over-the-link delay drops
    assert tunnelled.self_inflicted_delay_s < direct.self_inflicted_delay_s


def test_competing_cells_are_deterministic():
    from repro.experiments.competing import competing_scheme
    from repro.experiments.runner import RunConfig, run_scheme_on_link

    config = RunConfig(duration=8.0, warmup=2.0)
    spec = competing_scheme(2, tunnelled=True)
    first = run_scheme_on_link(spec, "Verizon LTE downlink", config)
    second = run_scheme_on_link(spec, "Verizon LTE downlink", config)
    assert first.as_dict() == second.as_dict()


def test_competing_scheme_parts_ignores_foreign_partials():
    """Only specs with competing_scheme's exact factory shape are scenarios."""
    from functools import partial

    from repro.experiments.competing import (
        competing_scheme_parts,
        competing_tunnel_pair,
    )
    from repro.experiments.registry import SchemeSpec

    keyworded = SchemeSpec(
        name="kw", factory=partial(competing_tunnel_pair, flows=3), category="scenario"
    )
    assert competing_scheme_parts(keyworded) is None
