"""Tests for the scenario sweep engine (repro.experiments.sweeps).

The headline property (the PR's acceptance bar): a sweep executed through
the full fast path — flattened batch, shared worker pool, shared trace
cache, batched event loop — is bit-identical to running every expanded cell
one by one, serially, with the trace cache disabled.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.parallel import active_pool, shared_pool
from repro.experiments.registry import get_scheme
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import (
    SWEEP_PARAMETERS,
    GridSpec,
    expand_grid,
    get_sweep_parameter,
    pareto_frontier,
    render_grid,
    render_grid_frontiers,
    run_grid,
    sweep_parameter_names,
)
from repro.traces.cache import global_cache
from repro.traces.networks import get_link, link_names

TINY = RunConfig(duration=8.0, warmup=2.0)
LINK = "AT&T LTE uplink"


def sweep(parameter, values, schemes=("Sprout",), links=(LINK,)) -> GridSpec:
    """A classic single-parameter sweep: the one-axis grid."""
    return GridSpec((parameter,), (values,), schemes, links)


# ----------------------------------------------------------------- expansion


def test_sweep_parameter_registry_is_complete():
    assert set(sweep_parameter_names()) == {
        "loss", "sigma", "tick", "outage", "scale", "flows", "tunnelled",
        "aqm", "qlimit", "codel_target", "codel_interval", "rtt", "repeat",
    }
    for name in sweep_parameter_names():
        assert get_sweep_parameter(name).description


def test_repeat_axis_is_inert_on_simulated_cells():
    """The live-harness repetition index passes a simulated cell through
    unchanged (the emulator is deterministic) but rejects nonsense values."""
    expand = get_sweep_parameter("repeat").expand
    config = RunConfig(duration=6.0, warmup=1.0)
    cell = expand("Vegas", "AT&T LTE uplink", config, 2.0)
    assert cell == ("Vegas", "AT&T LTE uplink", config)
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError, match="repeat"):
            expand("Vegas", "AT&T LTE uplink", config, bad)


def test_unknown_parameter_is_rejected_with_valid_names():
    with pytest.raises(KeyError, match="loss"):
        get_sweep_parameter("bandwidth")
    with pytest.raises(KeyError):
        sweep("bandwidth", (1.0,))


def test_one_axis_expansion_is_value_major_scheme_then_link():
    spec = sweep(
        "loss", (0.0, 0.1), ("Vegas", "Skype"), (LINK, "Verizon LTE uplink")
    )
    cells = expand_grid(spec, TINY)
    assert len(cells) == 8
    assert [c[2].loss_rate for c in cells] == [0.0] * 4 + [0.1] * 4
    assert [c[0] for c in cells[:4]] == ["Vegas", "Vegas", "Skype", "Skype"]
    # The base config is never mutated, only replaced.
    assert TINY.loss_rate == 0.0


def test_loss_values_validated():
    with pytest.raises(ValueError, match="loss rate"):
        expand_grid(sweep("loss", (1.5,)), TINY)


def test_sigma_and_tick_variants_are_picklable_sprout_schemes():
    for parameter, value in (("sigma", 120.0), ("tick", 0.04)):
        ((scheme, _, _),) = expand_grid(sweep(parameter, (value,)), TINY)
        assert scheme.category == "sprout"
        assert str(value).rstrip("0").rstrip(".") in scheme.name or f"{value:g}" in scheme.name
        pickle.loads(pickle.dumps(scheme))  # must ship to worker processes


def test_sigma_and_tick_variants_start_from_the_base_spec_config():
    """Sweeping a non-default Sprout spec must keep its other knobs."""
    from repro.experiments.registry import sprout_with_confidence

    base = sprout_with_confidence(0.25)
    (scheme, _, _) = SWEEP_PARAMETERS["sigma"].expand(base, LINK, TINY, 120.0)
    variant_config = scheme.factory.args[0]
    assert variant_config.confidence == 0.25  # preserved, not reset to 0.95
    assert variant_config.model_params.sigma == 120.0
    assert "Sprout (25%)" in scheme.name and "sigma=120" in scheme.name

    (scheme, _, _) = SWEEP_PARAMETERS["tick"].expand(base, LINK, TINY, 0.04)
    variant_config = scheme.factory.args[0]
    assert variant_config.confidence == 0.25
    assert variant_config.tick_interval == 0.04
    assert variant_config.model_params.tick == 0.04


def test_sigma_sweep_rejects_unrecoverable_sprout_specs():
    """An opaque closure spec is refused, not silently re-run at defaults."""
    from repro.experiments.registry import SchemeSpec

    opaque = SchemeSpec(name="Sprout (opaque)", factory=lambda: None, category="sprout")
    with pytest.raises(ValueError, match="cannot recover"):
        SWEEP_PARAMETERS["sigma"].expand(opaque, LINK, TINY, 100.0)


def test_sigma_sweep_rejects_non_sprout_schemes():
    with pytest.raises(ValueError, match="does not apply"):
        expand_grid(sweep("sigma", (100.0,), ("Vegas",)), TINY)
    with pytest.raises(ValueError, match="does not apply"):
        expand_grid(sweep("tick", (0.04,), ("Sprout-EWMA",)), TINY)


def test_outage_and_scale_modify_a_copy_of_the_link():
    pristine = get_link(LINK)
    for parameter, value in (("outage", 3.0), ("scale", 0.5)):
        ((_, link, _),) = expand_grid(sweep(parameter, (value,)), TINY)
        assert link.name == pristine.name  # same identity for reporting
        assert link.config != pristine.config
    assert get_link(LINK).config == pristine.config  # registry untouched


def test_aqm_and_qlimit_set_the_link_queue_config():
    from repro.simulation.queues import AQM_CODEL, AQM_DROP_TAIL

    pristine = get_link(LINK)
    spec = GridSpec(
        parameters=("aqm", "qlimit"), values=((1.0,), (30000.0,)), links=(LINK,)
    )
    ((_, link, _),) = expand_grid(spec, TINY)
    assert link.queue.aqm == AQM_CODEL
    assert link.queue.byte_limit == 30000
    assert link.config == pristine.config  # channel (and trace) untouched
    assert get_link(LINK).queue is None  # registry untouched

    # qlimit 0 is the deep-buffer default; qlimit alone leaves aqm inherit.
    spec = GridSpec(parameters=("qlimit",), values=((0.0,),), links=(LINK,))
    ((_, link, _),) = expand_grid(spec, TINY)
    assert link.queue.byte_limit is None
    assert link.queue.aqm is None

    # The axes compose in either order onto one QueueConfig.
    spec = GridSpec(
        parameters=("qlimit", "aqm"), values=((15000.0,), (0.0,)), links=(LINK,)
    )
    ((_, link, _),) = expand_grid(spec, TINY)
    assert link.queue.aqm == AQM_DROP_TAIL
    assert link.queue.byte_limit == 15000


def test_aqm_and_qlimit_value_validation():
    for parameter, bad in (("aqm", 2.0), ("aqm", 0.5), ("qlimit", -1.0), ("qlimit", 0.5)):
        spec = GridSpec(parameters=(parameter,), values=((bad,),), links=(LINK,))
        with pytest.raises(ValueError):
            expand_grid(spec, TINY)


def test_aqm_axis_matches_the_registry_codel_scheme():
    """aqm = 1 over Cubic measures exactly what Cubic-CoDel measures."""
    spec = GridSpec(
        parameters=("aqm",), values=((1.0,),), schemes=("Cubic",), links=(LINK,)
    )
    (cell,) = expand_grid(spec, TINY)
    from repro.experiments.runner import run_scheme_on_link

    swept = run_scheme_on_link(*cell).as_dict()
    registry = run_scheme_on_link("Cubic-CoDel", LINK, TINY).as_dict()
    del swept["scheme"], registry["scheme"]
    assert swept == registry


def test_codel_parameter_axes_set_the_link_queue_config():
    from repro.simulation.queues import AQM_CODEL, CoDelQueue

    # The CoDel knobs ride QueueConfig and compose with aqm in either order.
    spec = GridSpec(
        parameters=("aqm", "codel_target", "codel_interval"),
        values=((1.0,), (0.010,), (0.200,)),
        links=(LINK,),
    )
    ((_, link, _),) = expand_grid(spec, TINY)
    assert link.queue.aqm == AQM_CODEL
    assert link.queue.codel_target == 0.010
    assert link.queue.codel_interval == 0.200
    assert get_link(LINK).queue is None  # registry untouched

    # Alone, the knobs leave the discipline inherited (drop-tail cells are
    # inert; a CoDel scheme such as Cubic-CoDel picks the tuning up).
    spec = GridSpec(parameters=("codel_target",), values=((0.020,),), links=(LINK,))
    ((_, link, _),) = expand_grid(spec, TINY)
    assert link.queue.aqm is None
    assert link.queue.codel_target == 0.020
    assert link.queue.codel_interval == CoDelQueue.INTERVAL


def test_codel_parameter_axes_value_validation():
    for parameter, bad in (
        ("codel_target", 0.0),
        ("codel_target", -0.005),
        ("codel_interval", 0.0),
        ("codel_interval", -1.0),
    ):
        spec = GridSpec(parameters=(parameter,), values=((bad,),), links=(LINK,))
        with pytest.raises(ValueError):
            expand_grid(spec, TINY)


def test_codel_target_sweep_changes_codel_cells_only():
    """A lax target behaves like drop-tail; a strict one drops earlier."""
    from repro.experiments.runner import run_scheme_on_link

    def measure(parameters, values, scheme):
        spec = GridSpec(
            parameters=parameters, values=values, schemes=(scheme,), links=(LINK,)
        )
        (cell,) = expand_grid(spec, TINY)
        return run_scheme_on_link(*cell).as_dict()

    # On a drop-tail cell the knob is inert: bit-identical to the bare cell.
    assert measure(("codel_target",), ((0.001,),), "Cubic") == measure(
        ("qlimit",), ((0.0,),), "Cubic"
    )
    # On a CoDel cell it is live: strict vs lax targets measure differently,
    # whether CoDel comes from the aqm axis or from the scheme itself.
    strict = measure(("aqm", "codel_target"), ((1.0,), (0.001,)), "Cubic")
    lax = measure(("aqm", "codel_target"), ((1.0,), (10.0,)), "Cubic")
    assert strict != lax
    scheme_strict = measure(("codel_target",), ((0.001,),), "Cubic-CoDel")
    scheme_lax = measure(("codel_target",), ((10.0,),), "Cubic-CoDel")
    assert scheme_strict != scheme_lax


def test_qlimit_bounds_bufferbloat_for_cubic():
    from repro.experiments.runner import run_scheme_on_link

    deep = GridSpec(
        parameters=("qlimit",), values=((0.0,),), schemes=("Cubic",), links=(LINK,)
    )
    bounded = GridSpec(
        parameters=("qlimit",), values=((30000.0,),), schemes=("Cubic",), links=(LINK,)
    )
    (deep_cell,) = expand_grid(deep, TINY)
    (bounded_cell,) = expand_grid(bounded, TINY)
    deep_result = run_scheme_on_link(*deep_cell)
    bounded_result = run_scheme_on_link(*bounded_cell)
    assert bounded_result.self_inflicted_delay_s < deep_result.self_inflicted_delay_s
    assert bounded_result.extra["forward_queue_drops"] > 0
    assert deep_result.extra["forward_queue_drops"] == 0


def test_modified_links_get_their_own_traces():
    """The cache keys on channel content, so variants cannot collide."""
    from repro.traces.networks import link_trace

    pristine = get_link(LINK)
    ((_, scaled, _),) = expand_grid(sweep("scale", (0.25,)), TINY)
    base_trace = link_trace(pristine, duration=5.0)
    scaled_trace = link_trace(scaled, duration=5.0)
    assert base_trace != scaled_trace
    assert len(scaled_trace) < len(base_trace)  # quarter the capacity


# ----------------------------------------------------------------- execution


def test_sweep_results_bit_identical_to_uncached_serial_cells(monkeypatch):
    """Acceptance bar: fast path == cell-by-cell uncached serial run."""
    spec = sweep("loss", (0.0, 0.02, 0.1), ("Vegas", "Skype"))
    fast = run_grid(spec, config=TINY, jobs=2)

    monkeypatch.setattr(global_cache(), "enabled", False)
    for point in fast.points:
        for row in point.results:
            reference = run_scheme_on_link(
                row.scheme,
                row.link,
                RunConfig(
                    duration=TINY.duration,
                    warmup=TINY.warmup,
                    loss_rate=point.coordinate("loss"),
                ),
            )
            assert row.as_dict() == reference.as_dict()


def test_grid_cells_report_their_model_params_for_prewarming():
    """The cache-shaped fan-out: distinct swept model params, found up front."""
    from repro.core.rate_model import RateModelParams
    from repro.experiments.parallel import required_model_params

    spec = GridSpec(
        parameters=("sigma",), values=((120.0, 140.0),), links=(LINK,)
    )
    params = required_model_params(expand_grid(spec, TINY))
    assert [p.sigma for p in params] == [120.0, 140.0]

    # Duplicates collapse: two links per sigma still yield one entry each.
    two_links = GridSpec(
        parameters=("sigma",),
        values=((120.0, 140.0),),
        links=(LINK, "Verizon LTE uplink"),
    )
    assert required_model_params(expand_grid(two_links, TINY)) == params

    # Plain Sprout cells need the default model; non-Sprout cells need none.
    assert required_model_params([("Sprout", LINK, TINY)]) == [RateModelParams()]
    assert required_model_params([("Cubic", LINK, TINY)]) == []
    assert required_model_params([("Sprout-EWMA", LINK, TINY)]) == []

    # A sigma × flows grid carries the swept model into the tunnel's Sprout;
    # a direct (untunnelled) scenario has no Sprout to warm.
    tunnelled = GridSpec(
        parameters=("sigma", "flows"), values=((120.0,), (2.0,)), links=(LINK,)
    )
    (tunnel_params,) = required_model_params(expand_grid(tunnelled, TINY))
    assert tunnel_params.sigma == 120.0
    direct = GridSpec(
        parameters=("flows", "tunnelled"), values=((2.0,), (0.0,)), links=(LINK,)
    )
    assert required_model_params(expand_grid(direct, TINY)) == []


def test_one_axis_grid_groups_points_by_value():
    data = run_grid(sweep("scale", (1.0, 0.5), ("Vegas",)), config=TINY)
    assert [p.coordinates for p in data.points] == [(1.0,), (0.5,)]
    assert all(len(p.results) == 1 for p in data.points)
    assert data.for_coordinates((0.5,)) is data.points[1]
    with pytest.raises(KeyError):
        data.for_coordinates((2.0,))
    # scale=1.0 is the calibrated link: identical to a plain run.
    plain = run_scheme_on_link("Vegas", LINK, TINY)
    assert data.for_coordinates((1.0,)).results[0].as_dict() == plain.as_dict()


def test_scale_one_equals_identity_and_halving_reduces_throughput():
    data = run_grid(sweep("scale", (1.0, 0.5), ("Vegas",)), config=TINY)
    full = data.for_coordinates((1.0,)).results[0]
    half = data.for_coordinates((0.5,)).results[0]
    assert half.throughput_bps < full.throughput_bps


def test_suite_runs_inside_one_shared_pool():
    observed_pools = []

    def spy(_result) -> None:
        observed_pools.append(active_pool())

    specs = [sweep("loss", (0.0,), ("Vegas",)), sweep("scale", (1.0,), ("Vegas",))]
    with shared_pool(2):
        suite = [run_grid(spec, config=TINY, progress=spy, jobs=2) for spec in specs]
    assert len(suite) == 2
    assert len(observed_pools) == 2
    assert observed_pools[0] is not None
    assert observed_pools[0] is observed_pools[1]  # the same pool, reused
    assert active_pool() is None  # and closed afterwards


def test_suite_serial_when_jobs_none():
    with shared_pool(None):
        assert active_pool() is None
        data = run_grid(sweep("loss", (0.0,), ("Vegas",)), config=TINY)
    plain = run_scheme_on_link("Vegas", LINK, TINY)
    assert data.points[0].results[0].as_dict() == plain.as_dict()


def test_sigma_and_tick_sweeps_run_end_to_end():
    """The model-rebuilding sweeps actually emulate: each non-default
    parameter set builds its own rate model, then runs its cell."""
    for parameter, value in (("sigma", 150.0), ("tick", 0.04)):
        data = run_grid(
            sweep(parameter, (value,)), config=RunConfig(duration=6.0, warmup=1.0)
        )
        ((point),) = data.points
        (row,) = point.results
        assert row.scheme.startswith("Sprout [")
        assert row.throughput_bps > 0
        assert row.link == LINK


# ----------------------------------------------------------------- rendering


def test_one_axis_render_lists_every_value_and_scheme():
    text = render_grid(run_grid(sweep("loss", (0.0, 0.05), ("Vegas",)), config=TINY))
    assert "Sweep — loss" in text
    assert "loss = 0" in text
    assert "loss = 0.05" in text
    assert text.count("Vegas") == 2
    assert LINK in text


def test_report_includes_sweep_sections():
    from repro.experiments.report import ReportConfig, generate_report

    cfg = ReportConfig(
        duration=6.0,
        warmup=1.0,
        include_sections=["grids"],
        grids=[sweep("loss", (0.0,), ("Vegas",))],
    )
    report = generate_report(cfg, progress=None)
    assert "Sweep — loss" in report
    assert "Vegas" in report
    # A one-axis grid is a sweep section: no frontier follows it.
    assert "Frontier" not in report


def test_sweep_spec_registry_wiring():
    """Sprout variants route through the scheme registry's builder."""
    ((scheme, _, _),) = expand_grid(sweep("sigma", (200.0,)), TINY)
    assert get_scheme("Sprout").category == scheme.category == "sprout"
    assert SWEEP_PARAMETERS["sigma"].expand is not None


# ------------------------------------------------------------------- grids


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="at least one axis"):
        GridSpec(parameters=(), values=())
    with pytest.raises(ValueError, match="distinct"):
        GridSpec(parameters=("loss", "loss"), values=((0.0,), (0.1,)))
    with pytest.raises(KeyError):
        GridSpec(parameters=("bandwidth",), values=((1.0,),))
    with pytest.raises(ValueError, match="value lists"):
        GridSpec(parameters=("loss", "scale"), values=((0.0,),))
    with pytest.raises(ValueError, match="at least one value"):
        GridSpec(parameters=("loss", "scale"), values=((0.0,), ()))
    with pytest.raises(ValueError, match="at least one scheme"):
        GridSpec(parameters=("loss",), values=((0.0,),), schemes=())


def test_grid_spec_defaults_and_shape():
    spec = GridSpec(parameters=("loss", "scale"), values=((0.0, 0.1), (1.0, 0.5, 0.25)))
    assert spec.shape == (2, 3)
    assert list(spec.links) == link_names()
    assert spec.cells_per_point == len(link_names())
    assert spec.axis_values("scale") == (1.0, 0.5, 0.25)
    with pytest.raises(KeyError, match="outage"):
        spec.axis_values("outage")


def test_grid_coordinates_are_value_major():
    """First axis slowest, last fastest — the N-D value-major order."""
    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0, 0.1), (1.0, 0.5)),
        schemes=("Vegas",),
        links=(LINK,),
    )
    assert spec.coordinates() == [
        (0.0, 1.0), (0.0, 0.5), (0.1, 1.0), (0.1, 0.5),
    ]
    cells = expand_grid(spec, TINY)
    assert [c[2].loss_rate for c in cells] == [0.0, 0.0, 0.1, 0.1]


def test_grid_expansion_applies_axes_in_spec_order():
    """A sigma × flows grid carries the swept model into the tunnel."""
    from repro.core.connection import SproutConfig
    from repro.experiments.competing import competing_scheme_parts

    spec = GridSpec(
        parameters=("sigma", "flows"),
        values=((120.0,), (3.0,)),
        schemes=("Sprout",),
        links=(LINK,),
    )
    ((scheme, _, _),) = expand_grid(spec, TINY)
    flows, tunnelled, sprout_config = competing_scheme_parts(scheme)
    assert (flows, tunnelled) == (3, True)
    assert isinstance(sprout_config, SproutConfig)
    assert sprout_config.model_params.sigma == 120.0


def test_grid_results_bit_identical_to_uncached_serial_cells(monkeypatch):
    """Acceptance bar: a 2-D grid == cell-by-cell uncached serial runs."""
    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0, 0.05), (1.0, 0.5)),
        schemes=("Vegas",),
        links=(LINK,),
    )
    fast = run_grid(spec, config=TINY, jobs=2)
    assert [p.coordinates for p in fast.points] == spec.coordinates()

    monkeypatch.setattr(global_cache(), "enabled", False)
    cells = expand_grid(spec, TINY)
    reference = [run_scheme_on_link(s, l, c) for s, l, c in cells]
    fast_rows = [r.as_dict() for p in fast.points for r in p.results]
    assert fast_rows == [r.as_dict() for r in reference]


def test_grid_data_lookup_and_slicing():
    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0, 0.05), (1.0, 0.5)),
        schemes=("Vegas",),
        links=(LINK,),
    )
    data = run_grid(spec, config=TINY)
    point = data.for_coordinates((0.05, 0.5))
    assert point.coordinate("loss") == 0.05
    assert point.coordinate("scale") == 0.5
    assert point.label == "loss = 0.05, scale = 0.5"
    with pytest.raises(KeyError):
        data.for_coordinates((0.2, 1.0))
    with pytest.raises(KeyError):
        point.coordinate("outage")
    half = data.slice("scale", 0.5)
    assert len(half) == 2
    assert all(p.coordinate("scale") == 0.5 for p in half)
    with pytest.raises(KeyError):
        data.slice("outage", 1.0)


# --------------------------------------------------------- scenario axes


def test_flows_axis_builds_tunnelled_scenarios():
    from repro.experiments.competing import competing_scheme_parts

    ((scheme, _, _),) = expand_grid(
        GridSpec(parameters=("flows",), values=((3.0,),), links=(LINK,)), TINY
    )
    flows, tunnelled, _ = competing_scheme_parts(scheme)
    assert (flows, tunnelled) == (3, True)
    assert scheme.name == "Competing x3 [tunnel]"
    assert scheme.category == "scenario"
    pickle.loads(pickle.dumps(scheme))  # must ship to worker processes


def test_tunnelled_axis_toggles_direct_vs_tunnel():
    from repro.experiments.competing import competing_scheme_parts

    spec = GridSpec(parameters=("tunnelled",), values=((0.0, 1.0),), links=(LINK,))
    cells = expand_grid(spec, TINY)
    parts = [competing_scheme_parts(scheme) for scheme, _, _ in cells]
    assert [(f, t) for f, t, _ in parts] == [(2, False), (2, True)]
    assert [scheme.name for scheme, _, _ in cells] == [
        "Competing x2 [direct]",
        "Competing x2 [tunnel]",
    ]


def test_flows_and_tunnelled_compose_in_either_order():
    from repro.experiments.competing import competing_scheme_parts

    for order in (("flows", "tunnelled"), ("tunnelled", "flows")):
        values = ((3.0,), (0.0,)) if order[0] == "flows" else ((0.0,), (3.0,))
        spec = GridSpec(parameters=order, values=values, links=(LINK,))
        ((scheme, _, _),) = expand_grid(spec, TINY)
        flows, tunnelled, _ = competing_scheme_parts(scheme)
        assert (flows, tunnelled) == (3, False)


def test_scenario_axis_value_validation():
    for parameter, bad in (("flows", 0.0), ("flows", 1.5), ("tunnelled", 2.0)):
        spec = GridSpec(parameters=(parameter,), values=((bad,),), links=(LINK,))
        with pytest.raises(ValueError):
            expand_grid(spec, TINY)


def test_scenario_axes_reject_non_sprout_schemes():
    spec = GridSpec(
        parameters=("flows",), values=((2.0,),), schemes=("Vegas",), links=(LINK,)
    )
    with pytest.raises(ValueError, match="does not apply"):
        expand_grid(spec, TINY)


# --------------------------------------------------------------- frontiers


def _result(scheme, tput, delay, link=LINK):
    from repro.metrics.summary import SchemeResult

    return SchemeResult(
        scheme=scheme,
        link=link,
        throughput_bps=tput,
        delay_95_s=delay,
        self_inflicted_delay_s=delay,
        utilization=0.5,
    )


def test_pareto_frontier_points_handles_nan_and_ties():
    from repro.experiments.sweeps import pareto_frontier_points

    flags = pareto_frontier_points(
        [
            (100.0, 0.1),  # dominated by the 200/0.1 point
            (200.0, 0.1),  # frontier
            (200.0, 0.2),  # dominated (same tput, worse delay)
            (50.0, 0.05),  # frontier (best delay)
            (300.0, float("nan")),  # no operating point at all
        ]
    )
    assert flags == [False, True, False, True, False]


def test_per_flow_frontier_sections_render_per_flow_series():
    from repro.experiments.sweeps import GridData, GridPoint, render_grid_frontiers
    from repro.metrics.flows import FlowMetrics

    def result_with_flows(tput, delay, skype_delay):
        row = _result("Competing x2 [direct]", tput, delay)
        row.flows = [
            FlowMetrics(throughput_bps=tput * 0.8, delay_95_s=delay, flow="cubic-1"),
            FlowMetrics(throughput_bps=tput * 0.2, delay_95_s=skype_delay, flow="skype"),
        ]
        return row

    spec = GridSpec(parameters=("aqm",), values=((0.0, 1.0),), links=(LINK,))
    data = GridData(
        spec=spec,
        points=[
            GridPoint(("aqm",), (0.0,), [result_with_flows(2e6, 0.8, 0.9)]),
            GridPoint(("aqm",), (1.0,), [result_with_flows(1.5e6, 0.2, 0.1)]),
        ],
    )
    text = render_grid_frontiers(data)
    assert f"{LINK} — per-flow" in text
    assert "cubic-1" in text and "skype" in text
    lines = [line for line in text.splitlines() if "skype" in line]
    # The aqm=1 skype point dominates on delay but not throughput: both
    # skype points are on the skype series' frontier, independently of the
    # much-higher-throughput cubic series.
    assert all(line.rstrip().endswith("*") for line in lines)


def test_frontiers_have_no_per_flow_section_without_flow_metrics():
    from repro.experiments.sweeps import GridData, GridPoint, render_grid_frontiers

    spec = GridSpec(parameters=("aqm",), values=((0.0,),), links=(LINK,))
    data = GridData(
        spec=spec,
        points=[GridPoint(("aqm",), (0.0,), [_result("Vegas", 1e6, 0.1)])],
    )
    assert "per-flow" not in render_grid_frontiers(data)


def test_pareto_frontier_flags_undominated_rows():
    rows = [
        _result("a", 1000.0, 0.1),   # frontier: fastest at its delay
        _result("b", 2000.0, 0.2),   # frontier: more tput, more delay
        _result("c", 900.0, 0.15),   # dominated by a (less tput, more delay)
        _result("d", 2000.0, 0.3),   # dominated by b (same tput, more delay)
    ]
    assert pareto_frontier(rows) == [True, True, False, False]
    # identical rows tie: neither dominates the other
    twins = [_result("x", 1.0, 1.0), _result("y", 1.0, 1.0)]
    assert pareto_frontier(twins) == [True, True]


def test_render_grid_and_frontiers():
    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0, 0.05), (1.0, 0.5)),
        schemes=("Vegas",),
        links=(LINK,),
    )
    data = run_grid(spec, config=TINY)
    text = render_grid(data)
    assert "Grid — loss × scale (2 × 2 = 4 points)" in text
    assert "loss = 0.05, scale = 0.5" in text
    assert text.count("Vegas") == 4

    frontier = render_grid_frontiers(data)
    assert "Frontier — throughput vs delay across the loss × scale grid" in frontier
    assert LINK in frontier
    assert "*" in frontier  # at least one point is always undominated
    # every (point, scheme) pair appears as a candidate
    assert frontier.count("Vegas") == 4


def test_render_grid_uses_sweep_format_for_one_axis():
    spec = GridSpec(
        parameters=("loss",), values=((0.0,),), schemes=("Vegas",), links=(LINK,)
    )
    data = run_grid(spec, config=TINY)
    text = render_grid(data)
    assert text.startswith("Sweep — loss (Bernoulli packet-loss rate)")
    assert "loss = 0" in text


def test_report_includes_grid_and_frontier_sections():
    from repro.experiments.report import ReportConfig, generate_report

    spec = GridSpec(
        parameters=("loss", "scale"),
        values=((0.0,), (1.0, 0.5)),
        schemes=("Vegas",),
        links=(LINK,),
    )
    cfg = ReportConfig(
        duration=6.0, warmup=1.0, include_sections=["grids"], grids=[spec]
    )
    report = generate_report(cfg, progress=None)
    assert "Grid — loss × scale" in report
    assert "Frontier — throughput vs delay" in report


def test_model_axis_after_scenario_axis_names_the_ordering_fix():
    spec = GridSpec(
        parameters=("flows", "sigma"),
        values=((2.0,), (120.0,)),
        links=(LINK,),
    )
    with pytest.raises(ValueError, match="before 'flows'/'tunnelled'"):
        expand_grid(spec, TINY)
