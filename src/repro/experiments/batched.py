"""Batched cross-cell simulation engine (docs/performance.md "Layer 4").

A grid of Sprout cells spends most of its time in the forecaster's per-tick
math: one belief evolution (a 256-vector × 256×256 transition product) and,
on feedback ticks, one cautious-quantile extraction against the shared
model artifact.  Every cell performs that math against the *same* read-only
:class:`~repro.core.rate_model.RateModel` arrays, on the same 20 ms tick
lattice — which makes the work batchable: stack the cells' beliefs into a
``(cells, bins)`` matrix and contract them against the shared artifact once
per tick round instead of once per cell per tick.

The engine here steps every eligible cell's event loop to its next receiver
tick (:meth:`EventLoop.run_until` with ``stop_before``, which pauses the
loop *exactly* before the tick event and after everything ordered ahead of
it), pre-reads each paused cell's pending observation
(:meth:`SproutReceiver.peek_observation`), computes all the belief updates
in one :meth:`RateModel.batched_tick` call — plus the cautious forecasts of
the cells about to send feedback in one
:meth:`RateModel.batched_cumulative_quantile` call — and installs each
cell's row on its forecaster (:meth:`BayesianForecaster.install_step`)
before resuming the loop to fire the tick.  The installed step only applies
if the tick arrives with exactly the predicted observation; any mismatch
falls back to the ordinary per-cell computation, so a driver mis-prediction
can cost speed but never correctness.  Because the batched kernels are
bit-identical to their serial counterparts (``tests/test_batched.py``),
results are bit-identical to the serial runner.

Irregular cells fall back to the existing per-cell event loop: competing /
tunnelled scenarios (the receiving endpoint is a multiplexer, not a
:class:`SproutReceiver`), Sprout-EWMA (no Bayesian model), CoDel cells
(either direction), and any scheme whose endpoints do not introspect as a
plain Sprout receiver.  Fallback cells run serially in the parent under the
batch's :class:`~repro.experiments.policy.ErrorPolicy`, exactly like the
``jobs=1`` path.

Entry point: :func:`run_indices_batched`, invoked by
:func:`repro.experiments.parallel.run_cells` for ``backend="batched"``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cellsim.cellsim import Cellsim, cellsim_for_link
from repro.core.forecaster import BayesianForecaster
from repro.core.receiver import SproutReceiver
from repro.experiments.policy import CellError, ErrorPolicy
from repro.experiments.registry import SchemeSpec, get_scheme
from repro.experiments.runner import RunConfig, collect_metrics
from repro.simulation.events import Event
from repro.simulation.queues import CoDelQueue
from repro.testing.faults import fire_faults
from repro.traces.networks import get_link


class _BatchedCell:
    """One eligible cell: its assembled emulation plus the driver handles."""

    __slots__ = (
        "index",
        "scheme_name",
        "link_name",
        "config",
        "sim",
        "receiver",
        "forecaster",
        "duration",
    )

    def __init__(
        self,
        index: int,
        scheme_name: str,
        link_name: str,
        config: RunConfig,
        sim: Cellsim,
        receiver: SproutReceiver,
        forecaster: BayesianForecaster,
    ) -> None:
        self.index = index
        self.scheme_name = scheme_name
        self.link_name = link_name
        self.config = config
        self.sim = sim
        self.receiver = receiver
        self.forecaster = forecaster
        self.duration = config.duration


def _eligible_spec(spec: object) -> bool:
    """Cheap pre-screen before building the cell's emulation.

    Only plain Sprout-category schemes can batch: scenario schemes
    (competing flows, tunnels) put a multiplexer at the receiving end,
    Sprout-EWMA has no Bayesian model, and CoDel cells are excluded as
    irregular (their drop timing makes tick work uneven; they run on the
    per-cell loop).  The post-build introspection in :func:`_try_build`
    re-verifies all of this against the actual endpoints, so the pre-screen
    only ever avoids wasted builds.
    """
    if not isinstance(spec, SchemeSpec):
        return False
    if spec.use_codel:
        return False
    if spec.category != "sprout" or spec.name == "Sprout-EWMA":
        return False
    return True


def _try_build(
    index: int, scheme: object, link: object, config: Optional[RunConfig]
) -> Optional[_BatchedCell]:
    """Assemble one cell's emulation if it is batchable, else ``None``.

    Mirrors :func:`~repro.experiments.runner.run_scheme_on_link` exactly up
    to (but not including) ``sim.run``, then verifies by introspection that
    the built endpoints really are a plain Sprout receiver with a Bayesian
    forecaster over drop-tail queues.  Anything else — however it was
    configured — is rejected to the per-cell fallback.
    """
    spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
    if not _eligible_spec(spec):
        return None
    link_spec = get_link(link) if isinstance(link, str) else link
    cfg = config if config is not None else RunConfig()
    sender, receiver = spec.factory()
    sim = cellsim_for_link(
        sender,
        receiver,
        link_spec,
        duration=cfg.duration,
        loss_rate=cfg.loss_rate,
        use_codel=spec.use_codel,
        queue_byte_limit=cfg.queue_byte_limit,
    )
    protocol = sim.receiver_host.protocol
    forecaster = getattr(protocol, "forecaster", None)
    if not isinstance(protocol, SproutReceiver) or not isinstance(
        forecaster, BayesianForecaster
    ):
        return None
    if isinstance(sim.path.forward.queue, CoDelQueue) or isinstance(
        sim.path.reverse.queue, CoDelQueue
    ):
        return None
    return _BatchedCell(
        index=index,
        scheme_name=spec.name,
        link_name=link_spec.name,
        config=cfg,
        sim=sim,
        receiver=protocol,
        forecaster=forecaster,
    )


def _advance(cell: _BatchedCell) -> Optional[Event]:
    """Advance one cell to its next receiver-tick pause, or to completion.

    Returns the pending tick event when the loop paused exactly before it
    (everything ordered ahead of the tick has fired; the clock still reads
    the previous event's time), or ``None`` when the cell reached its
    duration — in which case both hosts are stopped, completing the exact
    :meth:`Cellsim.run` sequence.
    """
    event = cell.sim.receiver_host._tick_event
    if event is not None and not event.cancelled and event.time <= cell.duration:
        if cell.sim.loop.run_until(cell.duration, stop_before=event):
            return event
    else:
        cell.sim.loop.run_until(cell.duration)
    cell.sim.sender_host.stop()
    cell.sim.receiver_host.stop()
    return None


def _run_group(
    group: List[_BatchedCell],
    record_success: Callable[[_BatchedCell], None],
    record_failure: Callable[[_BatchedCell, BaseException], None],
) -> None:
    """Step one shared-model group of cells in lockstep rounds.

    Each round advances every live cell to its next receiver tick, batches
    the belief updates (and the feedback cells' forecasts) into one kernel
    call apiece, installs the rows, and fires the ticks.  Cells whose next
    tick lies beyond their duration finish and are recorded; a cell whose
    emulation raises is handed to ``record_failure`` and dropped without
    disturbing the rest of the group.
    """
    model = group[0].forecaster.model
    live: List[_BatchedCell] = []
    for cell in group:
        try:
            fire_faults(cell.scheme_name, cell.link_name, 1, cell.index)
            cell.sim.sender_host.start()
            cell.sim.receiver_host.start()
        except Exception as error:
            record_failure(cell, error)
            continue
        live.append(cell)

    # The group's belief matrix, row-aligned with ``live``.  Installed
    # beliefs are row *views* of the previous round's kernel output, which
    # is safe because beliefs are never mutated in place (evolve/update
    # return fresh arrays) — so as long as every install was consumed, the
    # matrix already holds each forecaster's current belief and needs no
    # per-round re-stack.  Any fallback (the forecaster recomputed on its
    # own) or change in the live set invalidates the cached matrix.
    beliefs: Optional[np.ndarray] = None
    group_fallbacks = 0

    while live:
        paused: List[Tuple[_BatchedCell, Event]] = []
        for cell in live:
            try:
                event = _advance(cell)
            except Exception as error:
                record_failure(cell, error)
                continue
            if event is None:
                try:
                    record_success(cell)
                except Exception as error:
                    record_failure(cell, error)
            else:
                paused.append((cell, event))
        if not paused:
            return
        if beliefs is None or len(paused) != len(live):
            beliefs = np.stack([cell.forecaster.belief for cell, _ in paused])

        # One vectorized tick across every paused cell.  The observation is
        # pre-read at the tick's own time (the clock has not advanced yet),
        # converted to packets with the same scalar division the serial
        # forecaster performs, and the resulting rows are installed before
        # the ticks fire.  Nothing can run between an install and its tick
        # (the tick is the next queued event), so the install matches by
        # construction; the forecaster still verifies and falls back on any
        # mismatch.
        peeks = [cell.receiver.peek_observation(event.time) for cell, event in paused]
        packets = [
            None if observed is None else observed / cell.forecaster.mtu_bytes
            for (observed, _), (cell, _) in zip(peeks, paused)
        ]
        censored = [at_least for _, at_least in peeks]
        new_beliefs = model.batched_tick(beliefs, packets, censored)

        feedback = [
            i for i, (cell, _) in enumerate(paused) if cell.receiver.will_send_feedback()
        ]
        forecast_rows: Optional[np.ndarray] = None
        if feedback:
            forecast_rows = model.batched_cumulative_quantile(
                new_beliefs[np.asarray(feedback)],
                [paused[i][0].forecaster.percentile for i in feedback],
            )
            # One shared mtu per group (one model), so the bytes conversion
            # vectorizes; each row still matches the serial ``packets * mtu``
            # elementwise product bitwise.
            forecast_rows *= model.params.mtu_bytes

        next_live: List[_BatchedCell] = []
        next_feedback = 0
        for i, (cell, event) in enumerate(paused):
            observed, at_least = peeks[i]
            forecast_bytes = None
            if next_feedback < len(feedback) and feedback[next_feedback] == i:
                forecast_bytes = forecast_rows[next_feedback]
                next_feedback += 1
            cell.forecaster.install_step(
                observed, at_least, new_beliefs[i], forecast_bytes
            )
            try:
                cell.sim.loop.run_until(event.time)
            except Exception as error:
                record_failure(cell, error)
                continue
            next_live.append(cell)

        fallbacks = sum(cell.forecaster.batched_fallbacks for cell in next_live)
        if len(next_live) == len(paused) and fallbacks == group_fallbacks:
            beliefs = new_beliefs
        else:
            beliefs = None
            group_fallbacks = fallbacks
        live = next_live


def run_indices_batched(
    cells: Sequence[Tuple],
    indices: Sequence[int],
    policy: ErrorPolicy,
    record: Callable[[int, object], None],
) -> None:
    """Run a batch of cells through the batched cross-cell engine.

    Eligible cells are grouped by shared model artifact and stepped in
    lockstep; ineligible (or unbuildable) cells run serially in the parent
    afterwards, under the same :class:`ErrorPolicy` as the ``jobs=1`` path.
    Results land through ``record`` at each cell's own index, so ordering
    guarantees are untouched.  Per-cell failures follow the policy: raised
    under ``fail_fast``; under ``collect``/``retry`` the failed cell is
    either retried serially from scratch (the batched attempt counts as
    attempt one) or recorded as a :class:`CellError` in place.  Like the
    serial engine, this in-process driver cannot preempt a running cell, so
    ``cell_timeout`` batches are routed to the pooled fault-tolerant engine
    by :func:`~repro.experiments.parallel.run_cells` before reaching here.
    """
    from repro.experiments.parallel import _run_cell_serially

    groups: Dict[int, List[_BatchedCell]] = {}
    fallback: List[int] = []
    for index in indices:
        scheme, link, config = cells[index]
        try:
            built = _try_build(index, scheme, link, config)
        except Exception:
            # The serial fallback rebuilds from scratch and surfaces the
            # same (deterministic) error under the policy's semantics.
            built = None
        if built is None:
            fallback.append(index)
        else:
            groups.setdefault(id(built.forecaster.model), []).append(built)

    def record_success(cell: _BatchedCell) -> None:
        record(
            cell.index,
            collect_metrics(cell.sim, cell.scheme_name, cell.link_name, cell.config),
        )

    def record_failure(cell: _BatchedCell, error: BaseException) -> None:
        if policy.fail_fast:
            raise error
        if policy.retry_budget > 0:
            record(
                cell.index,
                _run_cell_serially(cells, cell.index, policy, start_attempt=2),
            )
        else:
            record(
                cell.index,
                CellError.from_exception(
                    cells[cell.index], error, attempts=1, kind="error"
                ),
            )

    for group in groups.values():
        _run_group(group, record_success, record_failure)

    for index in fallback:
        record(index, _run_cell_serially(cells, index, policy))
