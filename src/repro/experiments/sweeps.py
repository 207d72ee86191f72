"""Multi-dimensional scenario grids over the scheme × link matrix.

The paper's headline figures come from one scheme × link matrix at the
paper's frozen parameters.  This module generalises that into N-dimensional
*grids*: a :class:`GridSpec` names any number of swept axes (from
:data:`SWEEP_PARAMETERS`) and the values to try per axis; the engine expands
the Cartesian product of every ``coordinate × scheme × link`` combination
into an explicit matrix cell and runs the whole flattened batch through
:func:`repro.experiments.parallel.run_cells` — one worker pool for the
entire grid, with the per-process trace memo (:mod:`repro.traces.cache`)
deduplicating trace generation across cells and each distinct swept
:class:`RateModelParams` built on demand, at most once per worker.  A
classic single-parameter sweep is a one-axis grid.

Sweepable axes (full semantics in ``docs/scenarios.md``):

``loss``
    Bernoulli packet-loss probability of the emulated link (the §5.6 axis);
    values are absolute loss rates in ``[0, 1)``.
``sigma``
    The forecaster's Brownian noise power σ (paper §3.1, frozen at 200);
    values are absolute σ in packets/s/√s.  Applies to the Sprout scheme.
``tick``
    Sprout's inference tick length (paper: 20 ms); values are absolute
    seconds.  Applies to the Sprout scheme.
``outage``
    Multiplier on the link's outage arrival rate (1.0 = the calibrated
    channel); the feedback direction keeps the calibrated channel, as in
    the paper's testbed where only the direction under test is degraded.
``scale``
    Multiplier on the link's mean rate, volatility, and rate cap — a whole
    -link capacity scaling.
``flows``
    Number of competing client flows (one Skype call plus N-1 Cubic bulk
    downloads, §5.7) carried through SproutTunnel; the measured cell is the
    whole scenario over the link (:mod:`repro.experiments.competing`).
``tunnelled``
    Direct-vs-tunnelled scenario toggle for the competing-flows mix:
    ``0`` shares the link's single queue directly, ``1`` carries the flows
    through SproutTunnel.
``aqm``
    Queue discipline of the emulated link's bottleneck queues (§5.4):
    ``0`` is the deep drop-tail buffer, ``1`` applies CoDel to both
    directions.  Carried on a copy of the link spec, so the trace (and the
    trace memo) are shared across disciplines — every discipline sees the
    identical delivery schedule, as the paper's comparison requires.
``qlimit``
    Byte limit of the bottleneck queues; ``0`` keeps the deep
    (effectively unbounded) buffer.  Composes with ``aqm`` in either order.
``rtt``
    Round-trip propagation delay of the emulated path in seconds (the
    emulator default is 40 ms); carried on a copy of the link spec like
    ``aqm``/``qlimit``, so every RTT variant of one link shares the
    identical delivery trace.
``codel_target``
    CoDel's target sojourn time in seconds (the algorithm's 5 ms default);
    rides :class:`~repro.simulation.queues.QueueConfig` like ``qlimit``,
    so it takes effect on any cell whose queue resolves to CoDel (the
    ``aqm = 1`` axis value or a CoDel scheme such as Cubic-CoDel) and is
    inert on drop-tail cells.
``codel_interval``
    CoDel's estimation interval in seconds (100 ms default); same carriage
    and composition rules as ``codel_target``.

Axes are applied to each cell in the order the spec lists them, so a
``sigma × flows`` grid (in that order) carries the swept stochastic model
into the tunnel's Sprout.  Every expansion is deterministic and picklable,
so grid cells parallelise exactly like ordinary matrix cells, and results
are bit-identical to running each expanded cell serially by hand
(``tests/test_sweeps.py``, ``tests/test_exports.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.connection import SproutConfig
from repro.core.rate_model import RateModelParams
from repro.experiments.competing import competing_scheme, competing_scheme_parts
from repro.experiments.parallel import Cell, CellOutcome, ProgressCallback, run_cells
from repro.experiments.policy import CellError, ErrorPolicy, is_cell_error
from repro.experiments.registry import (
    SchemeSpec,
    get_scheme,
    sprout_variant,
    sprout_variant_config,
)
from repro.experiments.runner import RunConfig
from repro.metrics.flows import FlowMetrics
from repro.metrics.summary import SchemeResult
from repro.simulation.queues import AQM_CODEL, AQM_DROP_TAIL, QueueConfig
from repro.traces.networks import LinkSpec, get_link, link_names

SchemeLike = Union[str, SchemeSpec]
LinkLike = Union[str, LinkSpec]

#: expander signature: (scheme, link, config, value) -> one matrix cell
CellExpander = Callable[[SchemeLike, LinkLike, RunConfig, float], Cell]


def _resolve_link(link: LinkLike) -> LinkSpec:
    return get_link(link) if isinstance(link, str) else link


def _sprout_base(scheme: SchemeLike, parameter: str) -> Tuple[str, SproutConfig]:
    """The base scheme's name and its full :class:`SproutConfig`.

    Starting the variant from the base's *own* config (not defaults) keeps
    a sweep over, say, ``sprout_with_confidence(0.25)`` honestly labelled:
    the measured cell really carries the 25% confidence plus the swept
    parameter.  Specs whose config cannot be recovered are rejected rather
    than silently re-run at paper defaults under the base's name.
    """
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    if competing_scheme_parts(spec) is not None:
        raise ValueError(
            f"the {parameter!r} axis cannot re-tune the already-built scenario "
            f"{spec.name!r}; list {parameter!r} before 'flows'/'tunnelled' so "
            "the model axis applies to the tunnel's Sprout"
        )
    if spec.category != "sprout" or spec.name == "Sprout-EWMA":
        raise ValueError(
            f"the {parameter!r} sweep tunes Sprout's stochastic model and does "
            f"not apply to scheme {spec.name!r}; sweep Sprout instead"
        )
    config = sprout_variant_config(spec)
    if config is not None:
        return spec.name, config
    if spec.name == "Sprout":
        return spec.name, SproutConfig()  # the registry default scheme
    raise ValueError(
        f"cannot recover the SproutConfig behind scheme {spec.name!r} for the "
        f"{parameter!r} sweep; build it with repro.experiments.registry.sprout_variant"
    )


def _expand_loss(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"loss rate must be in [0, 1), got {value}")
    return (scheme, link, replace(config, loss_rate=value))


def _expand_sigma(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value < 0:
        raise ValueError(f"sigma must be non-negative, got {value}")
    base_name, base_config = _sprout_base(scheme, "sigma")
    params = base_config.model_params or RateModelParams()
    variant = sprout_variant(
        f"{base_name} [sigma={value:g}]",
        replace(base_config, model_params=replace(params, sigma=value)),
    )
    return (variant, link, config)


def _expand_tick(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value <= 0:
        raise ValueError(f"tick length must be positive, got {value}")
    base_name, base_config = _sprout_base(scheme, "tick")
    params = base_config.model_params or RateModelParams()
    variant = sprout_variant(
        f"{base_name} [tick={value:g}s]",
        replace(
            base_config,
            tick_interval=value,
            model_params=replace(params, tick=value),
        ),
    )
    return (variant, link, config)


def _expand_outage(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value < 0:
        raise ValueError(f"outage multiplier must be non-negative, got {value}")
    spec = _resolve_link(link)
    channel = replace(spec.config, outage_rate=spec.config.outage_rate * value)
    return (scheme, replace(spec, config=channel), config)


def _expand_scale(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value <= 0:
        raise ValueError(f"link scale must be positive, got {value}")
    spec = _resolve_link(link)
    channel = replace(
        spec.config,
        mean_rate=spec.config.mean_rate * value,
        volatility=spec.config.volatility * value,
        max_rate=spec.config.max_rate * value,
    )
    return (scheme, replace(spec, config=channel), config)


def _scenario_base(
    scheme: SchemeLike, parameter: str
) -> Tuple[int, bool, Optional[SproutConfig]]:
    """Current ``(flows, tunnelled, sprout_config)`` behind ``scheme``.

    A scheme already built by :func:`~repro.experiments.competing.competing_scheme`
    keeps its settings (so ``flows`` and ``tunnelled`` compose in either
    order); a Sprout-category scheme contributes its recovered
    :class:`SproutConfig` to the tunnel and starts from the paper's §5.7
    defaults (two flows, tunnelled).  Anything else is rejected.
    """
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    parts = competing_scheme_parts(spec)
    if parts is not None:
        return parts
    _, sprout_config = _sprout_base(spec, parameter)
    return 2, True, sprout_config


def _expand_flows(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value != int(value) or value < 1:
        raise ValueError(f"flows must be a positive integer, got {value}")
    _, tunnelled, sprout_config = _scenario_base(scheme, "flows")
    return (competing_scheme(int(value), tunnelled, sprout_config), link, config)


def _expand_tunnelled(
    scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float
) -> Cell:
    if value not in (0.0, 1.0):
        raise ValueError(
            f"tunnelled must be 0 (direct) or 1 (via SproutTunnel), got {value}"
        )
    flows, _, sprout_config = _scenario_base(scheme, "tunnelled")
    return (competing_scheme(flows, bool(value), sprout_config), link, config)


def _link_queue(link: LinkLike) -> Tuple[LinkSpec, QueueConfig]:
    """The cell's link spec and its current (possibly inherit-all) queue."""
    spec = _resolve_link(link)
    return spec, spec.queue if spec.queue is not None else QueueConfig()


def _expand_aqm(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value not in (float(AQM_DROP_TAIL), float(AQM_CODEL)):
        raise ValueError(
            f"aqm must be {AQM_DROP_TAIL} (drop-tail) or {AQM_CODEL} (CoDel), got {value}"
        )
    spec, queue = _link_queue(link)
    return (scheme, replace(spec, queue=replace(queue, aqm=int(value))), config)


def _expand_qlimit(
    scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float
) -> Cell:
    if value != int(value) or value < 0:
        raise ValueError(
            f"qlimit must be a whole number of bytes (0 = deep buffer), got {value}"
        )
    spec, queue = _link_queue(link)
    limit = None if value == 0 else int(value)
    return (scheme, replace(spec, queue=replace(queue, byte_limit=limit)), config)


def _expand_rtt(scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float) -> Cell:
    if value <= 0:
        raise ValueError(f"rtt must be positive seconds, got {value}")
    spec = _resolve_link(link)
    # The axis value is the round-trip propagation; the emulator takes the
    # one-way wire delay.
    return (scheme, replace(spec, propagation_delay=value / 2.0), config)


def _expand_codel_target(
    scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float
) -> Cell:
    if value <= 0:
        raise ValueError(f"codel_target must be positive seconds, got {value}")
    spec, queue = _link_queue(link)
    return (scheme, replace(spec, queue=replace(queue, codel_target=value)), config)


def _expand_repeat(
    scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float
) -> Cell:
    # Inert axis: the live loopback harness (repro.transport.harness) labels
    # each repeated transfer with its repetition index so live results ride
    # the grid/export stack; on a simulated cell the repetition changes
    # nothing (the emulator is deterministic), so the cell passes through.
    if value != int(value) or value < 1:
        raise ValueError(f"repeat must be a positive integer, got {value}")
    return (scheme, link, config)


def _expand_codel_interval(
    scheme: SchemeLike, link: LinkLike, config: RunConfig, value: float
) -> Cell:
    if value <= 0:
        raise ValueError(f"codel_interval must be positive seconds, got {value}")
    spec, queue = _link_queue(link)
    return (
        scheme,
        replace(spec, queue=replace(queue, codel_interval=value)),
        config,
    )


@dataclass(frozen=True)
class SweepParameter:
    """One sweepable knob: its name, axis label, and cell expander."""

    name: str
    description: str
    expand: CellExpander = field(compare=False)


#: the registry of sweepable parameters, keyed by CLI/spec name
SWEEP_PARAMETERS: Dict[str, SweepParameter] = {
    parameter.name: parameter
    for parameter in (
        SweepParameter("loss", "Bernoulli packet-loss rate", _expand_loss),
        SweepParameter("sigma", "forecaster noise power sigma (pkt/s/sqrt(s))", _expand_sigma),
        SweepParameter("tick", "Sprout inference tick length (s)", _expand_tick),
        SweepParameter("outage", "link outage-rate multiplier", _expand_outage),
        SweepParameter("scale", "link capacity scale multiplier", _expand_scale),
        SweepParameter(
            "flows", "competing client flows (1 Skype + N-1 Cubic, sec. 5.7)", _expand_flows
        ),
        SweepParameter(
            "tunnelled", "competing flows direct (0) or via SproutTunnel (1)", _expand_tunnelled
        ),
        SweepParameter(
            "aqm", "bottleneck queue discipline: drop-tail (0) or CoDel (1), sec. 5.4", _expand_aqm
        ),
        SweepParameter(
            "qlimit", "bottleneck queue byte limit (0 = deep buffer)", _expand_qlimit
        ),
        SweepParameter(
            "rtt", "round-trip propagation delay of the path (s)", _expand_rtt
        ),
        SweepParameter(
            "codel_target",
            "CoDel target sojourn time (s) on CoDel cells, sec. 5.4",
            _expand_codel_target,
        ),
        SweepParameter(
            "codel_interval",
            "CoDel estimation interval (s) on CoDel cells, sec. 5.4",
            _expand_codel_interval,
        ),
        SweepParameter(
            "repeat",
            "live-harness repetition index (inert on simulated cells)",
            _expand_repeat,
        ),
    )
}


def sweep_parameter_names() -> List[str]:
    """All sweepable parameter names."""
    return list(SWEEP_PARAMETERS)


def get_sweep_parameter(name: str) -> SweepParameter:
    """Look up a sweepable parameter by name.

    Raises:
        KeyError: listing the valid names, if the parameter is unknown.
    """
    try:
        return SWEEP_PARAMETERS[name]
    except KeyError:
        raise KeyError(
            f"unknown sweep parameter {name!r}; valid parameters: "
            f"{', '.join(SWEEP_PARAMETERS)}"
        ) from None


# ------------------------------------------------------------------- grids


@dataclass(frozen=True)
class GridSpec:
    """An N-dimensional grid: axes, per-axis values, and the base matrix.

    The grid's points are the Cartesian product of the per-axis value lists,
    iterated *value-major*: the first axis varies slowest, the last fastest
    (``itertools.product`` order).  Every point measures the full
    ``schemes × links`` matrix.
    """

    parameters: Tuple[str, ...]
    values: Tuple[Tuple[float, ...], ...]
    schemes: Tuple[str, ...] = ("Sprout",)
    links: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "values", tuple(tuple(axis) for axis in self.values))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "links", tuple(self.links))
        if not self.parameters:
            raise ValueError("a grid needs at least one axis")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError(f"grid axes must be distinct, got {self.parameters}")
        for name in self.parameters:
            get_sweep_parameter(name)
        if len(self.values) != len(self.parameters):
            raise ValueError(
                f"{len(self.parameters)} axes but {len(self.values)} value lists; "
                "each axis needs its own values"
            )
        for name, axis in zip(self.parameters, self.values):
            if not axis:
                raise ValueError(f"axis {name!r} needs at least one value")
        if not self.schemes:
            raise ValueError("a grid needs at least one scheme")
        if not self.links:
            object.__setattr__(self, "links", tuple(link_names()))

    @property
    def shape(self) -> Tuple[int, ...]:
        """Points per axis, e.g. ``(3, 2)`` for a 3 × 2 grid."""
        return tuple(len(axis) for axis in self.values)

    @property
    def cells_per_point(self) -> int:
        return len(self.schemes) * len(self.links)

    def coordinates(self) -> List[Tuple[float, ...]]:
        """Every grid point, value-major (first axis slowest)."""
        return list(product(*self.values))

    def axis_values(self, parameter: str) -> Tuple[float, ...]:
        """The value list of one named axis."""
        try:
            return self.values[self.parameters.index(parameter)]
        except ValueError:
            raise KeyError(
                f"no axis {parameter!r} in this grid; axes: {', '.join(self.parameters)}"
            ) from None


@dataclass
class GridPoint:
    """All matrix results measured at one grid coordinate.

    Under the ``collect``/``retry`` error policies ``results`` may hold a
    :class:`~repro.experiments.policy.CellError` in a failed cell's
    position; :attr:`ok_results` and :attr:`errors` split the two.  Under
    the default fail-fast run every entry is a ``SchemeResult``.
    """

    parameters: Tuple[str, ...]
    coordinates: Tuple[float, ...]
    results: List[CellOutcome]

    @property
    def ok_results(self) -> List[SchemeResult]:
        """The point's successful results, in cell order."""
        return [row for row in self.results if not is_cell_error(row)]

    @property
    def errors(self) -> List[CellError]:
        """The point's failed cells, in cell order."""
        return [row for row in self.results if is_cell_error(row)]

    def coordinate(self, parameter: str) -> float:
        """This point's value on one named axis."""
        try:
            return self.coordinates[self.parameters.index(parameter)]
        except ValueError:
            raise KeyError(
                f"no axis {parameter!r}; axes: {', '.join(self.parameters)}"
            ) from None

    @property
    def label(self) -> str:
        """``"sigma = 100, loss = 0.01"`` — the point's display name."""
        return ", ".join(
            f"{name} = {value:g}" for name, value in zip(self.parameters, self.coordinates)
        )


@dataclass
class GridData:
    """A finished grid: one :class:`GridPoint` per coordinate, value-major."""

    spec: GridSpec
    points: List[GridPoint]

    def for_coordinates(self, coordinates: Sequence[float]) -> GridPoint:
        wanted = tuple(coordinates)
        for point in self.points:
            if point.coordinates == wanted:
                return point
        raise KeyError(f"no grid point at coordinates {wanted!r}")

    def slice(self, parameter: str, value: float) -> List[GridPoint]:
        """All points whose ``parameter`` coordinate equals ``value``."""
        self.spec.axis_values(parameter)  # validate the axis name
        return [point for point in self.points if point.coordinate(parameter) == value]

    @property
    def errors(self) -> List[CellError]:
        """Every failed cell across the grid, point-major cell order."""
        return [error for point in self.points for error in point.errors]


def expand_grid(spec: GridSpec, config: Optional[RunConfig] = None) -> List[Cell]:
    """Flatten a grid spec into explicit matrix cells, value-major.

    Cell order is ``coordinate -> scheme -> link``, mirroring the serial
    runner's scheme-major/link-minor order inside each point, so results
    slice back into :class:`GridPoint` chunks deterministically.  Each
    axis's expander is applied to the cell in spec order, so later axes see
    (and may refine) the schemes and links produced by earlier ones.
    """
    cfg = config if config is not None else RunConfig()
    expanders = [get_sweep_parameter(name).expand for name in spec.parameters]
    cells: List[Cell] = []
    for coordinate in spec.coordinates():
        for scheme in spec.schemes:
            for link in spec.links:
                cell: Cell = (scheme, link, cfg)
                for expand, value in zip(expanders, coordinate):
                    cell = expand(cell[0], cell[1], cell[2], value)
                cells.append(cell)
    return cells


def grid_points(spec: GridSpec, results: Sequence[CellOutcome]) -> List[GridPoint]:
    """Slice a flattened outcome list back into value-major grid points.

    ``results`` must be in :func:`expand_grid` cell order (one outcome per
    cell); this is the one place that knows how a flat batch folds back
    into :class:`GridPoint` chunks.
    """
    chunk = spec.cells_per_point
    expected = chunk * len(spec.coordinates())
    if len(results) != expected:
        raise ValueError(
            f"grid outcome count mismatch: got {len(results)} results for "
            f"{expected} cells"
        )
    return [
        GridPoint(
            parameters=spec.parameters,
            coordinates=coordinate,
            results=list(results[i * chunk : (i + 1) * chunk]),
        )
        for i, coordinate in enumerate(spec.coordinates())
    ]


def run_grid(
    spec: GridSpec,
    config: Optional[RunConfig] = None,
    progress: Optional[ProgressCallback] = None,
    jobs: Optional[int] = None,
    policy: Optional[ErrorPolicy] = None,
    backend: str = "processes",
) -> GridData:
    """Run one grid through the (shared-pool-aware) cell runner.

    The entire flattened batch is submitted at once, so a multi-point grid
    saturates the worker pool instead of draining between points, and every
    cell that shares a channel pulls its trace from the shared cache.

    ``policy`` (fail-fast when ``None`` — docs/robustness.md) governs
    failure handling; under ``collect``/``retry`` each failed cell surfaces
    as a :class:`~repro.experiments.policy.CellError` in its point's results.

    ``backend="batched"`` runs the grid's Sprout cells through the batched
    cross-cell engine instead of a worker pool (docs/performance.md
    "Layer 4"); results are bit-identical either way.
    """
    cells = expand_grid(spec, config)
    results = run_cells(
        cells,
        progress=progress,
        jobs=jobs,
        policy=policy,
        backend=backend,
    )
    return GridData(spec=spec, points=grid_points(spec, results))


# --------------------------------------------------------------- rendering

_RESULT_HEADER = (
    f"  {'scheme':22s} {'link':30s} {'tput (kbps)':>12s} "
    f"{'delay (ms)':>12s} {'util %':>8s}"
)


def _result_line(row: SchemeResult) -> str:
    return (
        f"  {row.scheme:22s} {row.link:30s} {row.throughput_kbps:12.0f} "
        f"{row.self_inflicted_delay_ms:12.0f} {100 * row.utilization:8.1f}"
    )


def _error_line(row: CellError) -> str:
    return (
        f"  {row.scheme:22s} {row.link:30s} FAILED "
        f"[{row.kind}, {row.attempts} attempt(s)] {row.summary}"
    )


def _outcome_lines(rows: Sequence[CellOutcome]) -> List[str]:
    return [
        _error_line(row) if is_cell_error(row) else _result_line(row) for row in rows
    ]


def _failure_footer(points: Sequence) -> List[str]:
    """The trailing "N cells failed" section, empty on all-green runs."""
    failed = sum(len(point.errors) for point in points)
    if not failed:
        return []
    total = sum(len(point.results) for point in points)
    return [f"{failed} of {total} cells failed", ""]


def render_grid(data: GridData) -> str:
    """Plain-text rendering: one block per grid point, value-major.

    One-axis grids render in the sweep format (``Sweep — loss (...)``) so
    ``repro sweep`` output is unchanged for single-parameter runs.  Failed
    cells render as ``FAILED`` lines in their cell's position, plus a
    trailing "N cells failed" section (docs/robustness.md).
    """
    spec = data.spec
    if len(spec.parameters) == 1:
        parameter = get_sweep_parameter(spec.parameters[0])
        header = f"Sweep — {parameter.name} ({parameter.description})"
    else:
        axes = " × ".join(spec.parameters)
        shape = " × ".join(str(n) for n in spec.shape)
        header = f"Grid — {axes} ({shape} = {len(data.points)} points)"
    lines: List[str] = [header, ""]
    for point in data.points:
        lines.append(point.label)
        lines.append(_RESULT_HEADER)
        lines.extend(_outcome_lines(point.results))
        lines.append("")
    lines.extend(_failure_footer(data.points))
    return "\n".join(lines)


# --------------------------------------------------------------- frontiers


def pareto_frontier_points(points: Sequence[Tuple[float, float]]) -> List[bool]:
    """Which ``(throughput, delay)`` points sit on the Pareto frontier.

    A point is on the frontier when no other point has both at least its
    throughput and at most its delay, with one strictly better — the
    upper-left boundary of the paper's Figure 7 plane.  ``nan`` delays
    (flows that saw no traffic in the window) never make the frontier.
    """
    flags: List[bool] = []
    for i, (throughput, delay) in enumerate(points):
        if delay != delay:  # nan delay: no measurable operating point
            flags.append(False)
            continue
        dominated = any(
            other_throughput >= throughput
            and other_delay <= delay
            and (other_throughput > throughput or other_delay < delay)
            for j, (other_throughput, other_delay) in enumerate(points)
            if j != i and other_delay == other_delay
        )
        flags.append(not dominated)
    return flags


def pareto_frontier(rows: Sequence[SchemeResult]) -> List[bool]:
    """Which rows sit on the throughput/delay Pareto frontier."""
    return pareto_frontier_points(
        [(row.throughput_bps, row.self_inflicted_delay_s) for row in rows]
    )


#: a per-flow candidate operating point: (grid point, result row, flow)
FlowEntry = Tuple[GridPoint, SchemeResult, FlowMetrics]


def _per_flow_frontier_lines(entries: Sequence[FlowEntry]) -> List[str]:
    """Frontier table for one link's per-flow series.

    The frontier is computed *within* each flow series (all grid points of
    one flow name), so a bulk flow's large throughput cannot blot out the
    interactive flow's frontier — the §5.7 comparison is per flow.
    """
    lines = [
        f"  {'point':30s} {'scheme':22s} {'flow':14s} {'tput (kbps)':>12s} "
        f"{'delay95 (ms)':>12s} {'frontier':>9s}"
    ]
    flow_names = sorted({flow.flow for _, _, flow in entries})
    for flow_name in flow_names:
        series = [entry for entry in entries if entry[2].flow == flow_name]
        flags = pareto_frontier_points(
            [(flow.throughput_bps, flow.delay_95_s) for _, _, flow in series]
        )
        ordered = sorted(
            zip(series, flags),
            key=lambda pair: (
                pair[0][2].delay_95_s != pair[0][2].delay_95_s,  # nan last
                pair[0][2].delay_95_s,
                -pair[0][2].throughput_bps,
            ),
        )
        for (point, row, flow), on_frontier in ordered:
            star = "*" if on_frontier else ""
            lines.append(
                f"  {point.label:30s} {row.scheme:22s} {flow.flow:14s} "
                f"{flow.throughput_kbps:12.0f} {flow.delay_95_ms:12.0f} {star:>9s}"
            )
    return lines


def render_grid_frontiers(data: GridData) -> str:
    """Per-link throughput/delay frontiers across every grid slice.

    For each link, every ``(grid point, scheme)`` measurement becomes one
    candidate operating point; candidates are listed by ascending delay and
    the Pareto-optimal ones (:func:`pareto_frontier`) are starred.  This is
    the report's frontier-comparison section (``docs/scenarios.md``).

    When results carry per-flow metrics (``RunConfig(per_flow=True)``), each
    link additionally gets a per-flow section: one candidate per ``(grid
    point, scheme, flow)``, starred by a frontier computed within each flow
    series — Skype's delay tail and Cubic's bulk throughput traced across
    the same scenario space.
    """
    spec = data.spec
    axes = " × ".join(spec.parameters)
    lines: List[str] = [f"Frontier — throughput vs delay across the {axes} grid", ""]
    failed = len(data.errors)
    if failed:
        # Failed cells have no operating point; the frontier is computed
        # over the cells that finished (the grid listing itemises failures).
        lines[1:1] = [f"({failed} failed cells excluded)", ""]
    for link in spec.links:
        link_name = link if isinstance(link, str) else link.name
        entries = [
            (point, row)
            for point in data.points
            for row in point.ok_results
            if row.link == link_name
        ]
        if not entries:
            continue
        flags = pareto_frontier([row for _, row in entries])
        ordered = sorted(
            zip(entries, flags),
            key=lambda pair: (
                pair[0][1].self_inflicted_delay_s,
                -pair[0][1].throughput_bps,
            ),
        )
        lines.append(link_name)
        lines.append(
            f"  {'point':30s} {'scheme':22s} {'tput (kbps)':>12s} "
            f"{'delay (ms)':>12s} {'frontier':>9s}"
        )
        for (point, row), on_frontier in ordered:
            star = "*" if on_frontier else ""
            lines.append(
                f"  {point.label:30s} {row.scheme:22s} {row.throughput_kbps:12.0f} "
                f"{row.self_inflicted_delay_ms:12.0f} {star:>9s}"
            )
        lines.append("")
        flow_entries: List[FlowEntry] = [
            (point, row, flow)
            for point, row in entries
            for flow in (row.flows or [])
        ]
        if flow_entries:
            lines.append(f"{link_name} — per-flow")
            lines.extend(_per_flow_frontier_lines(flow_entries))
            lines.append("")
    return "\n".join(lines)
