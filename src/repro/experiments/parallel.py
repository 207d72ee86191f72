"""Parallel experiment matrix runner.

The evaluation's measurement matrix (every scheme over every link, the
substrate of Figures 7-8 and the introduction tables) is embarrassingly
parallel: each cell is an independent emulation.  :func:`run_cells` here
fans the cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns results in exactly the order of the cells it was given, so every
downstream consumer (tables, figures, reports) sees bit-identical output
regardless of ``jobs``.

A multi-batch run (the full report, a parameter sweep) opens **one**
pool with :func:`shared_pool` and reuses it for every batch instead of
paying worker start-up once per batch; :func:`run_cells` transparently
picks the shared pool up when one is active.

Each cell builds the rate model its Sprout needs on demand, in whichever
process runs it: a model builds in tens of milliseconds (docs/performance.md
"Layer 3") and is then shared in that process, so the scheduler needs no
notion of models at all.

Cells whose scheme cannot be pickled (ad-hoc :class:`SchemeSpec` instances
built around closures) are detected up front and run in the parent process
once the pool has its first window of work; the result ordering is
unaffected.  Registry-built sweep variants
(:func:`~repro.experiments.registry.sprout_variant`) pickle fine and
parallelise normally.

Every pooled batch runs on one scheduler, governed by an
:class:`~repro.experiments.policy.ErrorPolicy` (docs/robustness.md).  The
default — ``fail_fast`` — propagates the first cell exception and cancels
the rest, bit-identical to the serial runner.  Under ``collect``/``retry``
the same scheduler records failed cells as structured
:class:`~repro.experiments.policy.CellError` outcomes in-place, retries
within the policy's budget, heals a pool broken by a hard-dying worker
(bounded by ``max_pool_rebuilds``) and quarantines a cell that breaks the
pool twice to a serial in-parent run; with a ``cell_timeout`` it enforces
per-cell wall-clock deadlines by killing and rebuilding the worker pool.
Completed cells are journaled for checkpoint/resume under any policy.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from typing import (
    Callable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.policy import (
    CellError,
    CellTimeoutError,
    CheckpointJournal,
    ErrorPolicy,
    IncompleteBatchError,
    cell_key,
    cell_link_name,
    cell_scheme_name,
)
from repro.experiments.registry import SCHEMES, SchemeSpec
from repro.experiments.runner import (
    RunConfig,
    run_scheme_on_link,
)
from repro.metrics.summary import SchemeResult
from repro.testing.faults import fire_faults
from repro.traces.networks import LinkSpec

#: one matrix cell: (scheme, link, run parameters)
Cell = Tuple[Union[str, SchemeSpec], Union[str, LinkSpec], Optional[RunConfig]]

#: one plain pool task: a picklable zero-argument callable, in practice a
#: :func:`functools.partial` over a module-level function
Task = Callable[[], object]

#: one batch outcome: the cell's result, or its failure record under
#: the ``collect``/``retry`` error policies
CellOutcome = Union[SchemeResult, CellError]

#: callback invoked with each finished cell outcome of a batch.  Under the
#: default ``fail_fast`` policy this only ever sees ``SchemeResult``s; under
#: ``collect``/``retry`` it also receives the ``CellError`` of each failed cell.
ProgressCallback = Callable[[CellOutcome], None]


def default_jobs() -> int:
    """The default worker count: one per CPU."""
    return os.cpu_count() or 1


def _run_cell(
    scheme: Union[str, SchemeSpec],
    link: Union[str, LinkSpec],
    config: Optional[RunConfig],
    attempt: int = 1,
    index: Optional[int] = None,
) -> SchemeResult:
    """Execute one cell in whichever process hosts it.

    ``attempt`` and ``index`` exist for the fault-injection harness
    (:mod:`repro.testing.faults`): when ``REPRO_FAULT_SPEC`` is armed the
    harness can target a specific cell and attempt.  Unarmed, the hook is
    one environment lookup.
    """
    fire_faults(cell_scheme_name(scheme), cell_link_name(link), attempt, index)
    return run_scheme_on_link(scheme, link, config)


# ------------------------------------------------------------ model needs


def _cell_model_params(scheme: Union[str, SchemeSpec]):
    """The :class:`RateModelParams` the cell's Sprout will request, if any.

    Mirrors the recovery rules of the sweep expanders: registry
    ``sprout_variant`` specs carry their :class:`SproutConfig`
    (:func:`~repro.experiments.registry.sprout_variant_config`); tunnelled
    competing-flows scenarios carry the tunnel's; the plain registry
    ``Sprout`` uses defaults.  Schemes with no Bayesian model (TCP
    baselines, Sprout-EWMA, direct scenarios) and ad-hoc specs whose
    config cannot be recovered return ``None``.
    """
    from repro.core.connection import SproutConfig
    from repro.core.rate_model import RateModelParams
    from repro.experiments.competing import competing_scheme_parts
    from repro.experiments.registry import sprout_variant_config

    spec = SCHEMES.get(scheme) if isinstance(scheme, str) else scheme
    if not isinstance(spec, SchemeSpec):
        return None
    parts = competing_scheme_parts(spec)
    if parts is not None:
        _, tunnelled, sprout_config = parts
        if not tunnelled:
            return None
        config = sprout_config if sprout_config is not None else SproutConfig()
        return config.model_params or RateModelParams()
    if spec.category != "sprout" or spec.name == "Sprout-EWMA":
        return None
    config = sprout_variant_config(spec)
    if config is not None:
        if config.use_ewma:
            return None
        return config.model_params or RateModelParams()
    if spec.name == "Sprout":
        return RateModelParams()
    return None


def required_model_params(cells: Sequence[Cell]) -> List:
    """Distinct model parameter sets the cells will need, first-use order.

    Nothing in the engine needs it (each cell builds its own model on
    demand); it is for a caller that wants the models built, timed or
    counted ahead of a batch.
    """
    seen = {}
    for scheme, _, _ in cells:
        params = _cell_model_params(scheme)
        if params is not None and params not in seen:
            seen[params] = None
    return list(seen)


def _poolable(value: object) -> object:
    """Return a picklable stand-in for ``value``, or ``None`` if there is none.

    Registry-backed :class:`SchemeSpec` instances are sent by name (cheap and
    always picklable); anything else is kept only if it pickles as-is.
    """
    if isinstance(value, SchemeSpec) and SCHEMES.get(value.name) is value:
        return value.name
    try:
        pickle.dumps(value)
    except Exception:
        return None
    return value


# ----------------------------------------------------------- shared pool

#: the pool opened by the innermost active :func:`shared_pool`, if any
_SHARED_POOL: Optional[ProcessPoolExecutor] = None


def active_pool() -> Optional[ProcessPoolExecutor]:
    """The currently shared worker pool, or ``None`` outside shared_pool()."""
    return _SHARED_POOL


@contextmanager
def shared_pool(jobs: Optional[int] = None) -> Iterator[Optional[ProcessPoolExecutor]]:
    """Open one worker pool and share it across every matrix inside.

    All :func:`run_cells` calls made while the context is active reuse this
    pool instead of opening their own.
    ``jobs`` of ``None`` or ``1`` yields no pool at all — everything inside
    runs serially, which keeps ``shared_pool(cfg.jobs)`` a safe no-op on the
    serial path.  ``0`` means one worker per CPU.  Nested calls reuse the
    outer pool.
    """
    global _SHARED_POOL
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if _SHARED_POOL is not None:
        yield _SHARED_POOL
        return
    if jobs is None or jobs == 1:
        yield None
        return
    workers = default_jobs() if jobs == 0 else jobs
    pool = ProcessPoolExecutor(max_workers=workers)
    _SHARED_POOL = pool
    try:
        yield pool
    finally:
        # Pool self-healing may have replaced the shared pool since we
        # opened it; shut down whichever instance is current.
        current = _SHARED_POOL
        _SHARED_POOL = None
        if current is not None:
            current.shutdown(wait=True)


def start_tasks(tasks: Sequence[Task]) -> Callable[[], List]:
    """Queue plain tasks on the active shared pool; returns their collector.

    For the simulations that are not ``(scheme, link, config)`` cells
    (Figure 1's time series): submitted at once, ahead of whatever batch
    the caller runs next, and read back — in task order —
    by calling the returned function, which re-raises a task's exception.
    Without an active pool the tasks run in-process when collected.
    """
    pool = active_pool()
    if pool is None:
        return lambda: [task() for task in tasks]
    futures = [pool.submit(task) for task in tasks]

    def collect() -> List:
        try:
            return [future.result() for future in futures]
        finally:
            for future in futures:  # a failed task's siblings still queued
                future.cancel()

    return collect


def run_tasks(tasks: Sequence[Task], jobs: Optional[int] = None) -> List:
    """Run plain tasks side by side (``jobs`` as in :func:`shared_pool`)."""
    with shared_pool(jobs):
        return start_tasks(tasks)()


# ------------------------------------------------------------- execution


#: how long (seconds) to wait for a terminated worker process to reap
_KILL_JOIN_TIMEOUT = 5.0


class _PoolHost:
    """Owns one worker pool on behalf of a batch, replaceable mid-batch.

    The scheduler kills and rebuilds the pool after a worker dies hard or
    a cell timeout expires.  When the hosted pool is
    the :func:`shared_pool` one, a rebuild also swaps the module-level
    ``_SHARED_POOL`` so later batches (and the context manager's final
    shutdown) see the live replacement, never the corpse.
    """

    def __init__(self, pool: ProcessPoolExecutor, workers: int, shared: bool):
        self.pool = pool
        self.workers = max(1, workers)
        self.shared = shared

    def kill(self) -> None:
        """Terminate the pool's workers and abandon it (non-blocking).

        A graceful ``shutdown(wait=True)`` would block forever behind a
        hung worker, so the processes are terminated first.
        """
        processes = list(getattr(self.pool, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        for process in processes:
            try:
                process.join(_KILL_JOIN_TIMEOUT)
            except Exception:
                pass
        self.pool.shutdown(wait=False, cancel_futures=True)

    def rebuild(self) -> None:
        """Kill the current pool and stand up a fresh one."""
        global _SHARED_POOL
        replace_shared = self.shared and _SHARED_POOL is self.pool
        self.kill()
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        if replace_shared:
            _SHARED_POOL = self.pool


#: record(index, outcome) — the batch sink the engines feed
_RecordFn = Callable[[int, CellOutcome], None]


def _run_cell_serially(
    cells: Sequence[Cell],
    index: int,
    policy: ErrorPolicy,
    start_attempt: int = 1,
) -> CellOutcome:
    """Run one cell in this process under the policy's retry semantics.

    ``start_attempt`` continues the attempt numbering of earlier pool
    attempts (quarantine and serial-drain re-runs), which keeps the fault
    harness's per-attempt clauses deterministic across engine transitions.
    The per-cell timeout cannot be enforced in-process and is ignored
    here (docs/robustness.md).
    """
    scheme, link, config = cells[index]
    attempt = start_attempt
    failures = 0
    while True:
        try:
            return _run_cell(scheme, link, config, attempt=attempt, index=index)
        except Exception as error:
            if policy.fail_fast:
                raise
            failures += 1
            if failures > policy.retry_budget:
                return CellError.from_exception(
                    cells[index], error, attempts=attempt, kind="error"
                )
            attempt += 1


def _run_indices_serial(
    cells: Sequence[Cell],
    indices: Sequence[int],
    policy: ErrorPolicy,
    record: _RecordFn,
) -> None:
    for index in indices:
        record(index, _run_cell_serially(cells, index, policy))


def _split_poolable(
    cells: Sequence[Cell], indices: Sequence[int]
) -> Tuple[List[Tuple[int, Cell]], List[int]]:
    """Partition ``indices`` into pool-sendable cells and parent-run ones."""
    sendable: List[Tuple[int, Cell]] = []
    local: List[int] = []
    for index in indices:
        scheme, link, config = cells[index]
        poolable_scheme = _poolable(scheme)
        poolable_link = _poolable(link)
        poolable_config = _poolable(config) if config is not None else None
        if poolable_scheme is None or poolable_link is None or (
            config is not None and poolable_config is None
        ):
            local.append(index)
        else:
            sendable.append((index, (poolable_scheme, poolable_link, poolable_config)))
    return sendable, local


def _run_indices_fault_tolerant(
    host: _PoolHost,
    cells: Sequence[Cell],
    indices: Sequence[int],
    policy: ErrorPolicy,
    record: _RecordFn,
) -> None:
    """The pooled fan-out: retries, deadlines, healing, quarantine.

    Every pooled batch runs here.  Under fail-fast the first cell exception
    or pool break propagates and everything outstanding is cancelled.
    Otherwise a hung or hard-dying worker is handled by killing and
    rebuilding the pool (at most ``policy.max_pool_rebuilds`` times, after
    which the remainder of the batch drains serially in the parent); a cell
    in flight across two pool breaks is quarantined to a serial in-parent
    run so one pathological cell cannot wedge the batch.
    """
    sendable, local = _split_poolable(cells, indices)
    sendable_cell = dict(sendable)
    # One task per worker keeps a deadline honest (it runs from submit time)
    # and the suspect list short when the pool breaks.  A batch that needs
    # neither queues a second task behind each worker, so none idles for
    # the parent's round trip between short cells.
    plain_fail_fast = policy.fail_fast and policy.cell_timeout is None
    window = host.workers * (2 if plain_fail_fast else 1)
    # (index, attempt, suspicion): suspicion counts pool breaks survived
    # while this cell was in flight — two strikes quarantines it.
    ready = deque((index, 1, 0) for index, _ in sendable)
    in_flight = {}
    quarantined: List[Tuple[int, int]] = []
    rebuilds = 0
    drain_serially = False

    def fail_cell(index: int, attempt: int, error: BaseException, kind: str) -> bool:
        """Record or requeue one failed attempt; True if requeued."""
        if attempt <= policy.retry_budget:
            return True
        record(
            index,
            CellError.from_exception(cells[index], error, attempts=attempt, kind=kind),
        )
        return False

    def absorb_break(victims) -> None:
        """Redistribute in-flight cells after the pool died under them.

        Every victim *might* be the killer; certainty is impossible once
        the workers are gone.  Each gets a suspicion strike — the second
        strike quarantines — and its attempt number advances so the fault
        harness's per-attempt clauses see the re-run coming.
        """
        nonlocal rebuilds
        for index, attempt, suspicion in victims:
            if suspicion + 1 >= 2:
                quarantined.append((index, attempt + 1))
            else:
                ready.append((index, attempt + 1, suspicion + 1))
        in_flight.clear()
        rebuilds += 1

    try:
        while ready or in_flight or local:
            if rebuilds > policy.max_pool_rebuilds:
                host.kill()
                drain_serially = True
                break
            broken = False
            try:
                while ready and len(in_flight) < window:
                    index, attempt, suspicion = ready[0]
                    scheme, link, config = sendable_cell[index]
                    future = host.pool.submit(
                        _run_cell, scheme, link, config, attempt, index
                    )
                    ready.popleft()
                    deadline = (
                        time.monotonic() + policy.cell_timeout
                        if policy.cell_timeout is not None
                        else None
                    )
                    in_flight[future] = (index, attempt, suspicion, deadline)
            except BrokenExecutor:
                if policy.fail_fast:
                    raise
                absorb_break(
                    [(i, a, s) for i, a, s, _ in in_flight.values()]
                )
                host.rebuild()
                continue

            # Parent-side (unpicklable) cells, once the pool has its first
            # window of work to overlap them; same retry semantics.
            for index in local:
                record(index, _run_cell_serially(cells, index, policy))
            local.clear()

            poll = None
            if policy.cell_timeout is not None and in_flight:
                now = time.monotonic()
                poll = max(
                    0.05,
                    min(
                        deadline - now
                        for _, _, _, deadline in in_flight.values()
                    ),
                )
            done, _ = wait(in_flight, timeout=poll, return_when=FIRST_COMPLETED)

            for future in done:
                index, attempt, suspicion, _ = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenExecutor:
                    if policy.fail_fast:
                        raise
                    broken = True
                    # The pool died with this cell in flight; it is a
                    # suspect, not (yet) a failure.
                    in_flight[future] = (index, attempt, suspicion, None)
                    continue
                except Exception as error:
                    if policy.fail_fast:
                        raise
                    if fail_cell(index, attempt, error, "error"):
                        ready.append((index, attempt + 1, suspicion))
                    continue
                record(index, result)

            if broken:
                absorb_break([(i, a, s) for i, a, s, _ in in_flight.values()])
                host.rebuild()
                continue

            if policy.cell_timeout is not None and in_flight:
                now = time.monotonic()
                expired = [
                    (future, info)
                    for future, info in in_flight.items()
                    if info[3] is not None and now >= info[3]
                ]
                if expired:
                    if policy.fail_fast:
                        index = expired[0][1][0]
                        scheme, link, _ = cells[index]
                        host.kill()
                        raise CellTimeoutError(
                            f"cell ({cell_scheme_name(scheme)}, "
                            f"{cell_link_name(link)}) exceeded the "
                            f"{policy.cell_timeout:g}s cell_timeout"
                        )
                    expired_futures = {future for future, _ in expired}
                    for future, (index, attempt, suspicion, _) in expired:
                        scheme, link, _ = cells[index]
                        error = CellTimeoutError(
                            f"cell ({cell_scheme_name(scheme)}, "
                            f"{cell_link_name(link)}) attempt {attempt} "
                            f"exceeded the {policy.cell_timeout:g}s cell_timeout"
                        )
                        if fail_cell(index, attempt, error, "timeout"):
                            ready.append((index, attempt + 1, suspicion))
                    # The hung worker cannot be reclaimed individually;
                    # innocents in flight go back to the queue unjudged
                    # (same attempt, no suspicion) and the pool is rebuilt.
                    for future, (index, attempt, suspicion, _) in in_flight.items():
                        if future not in expired_futures:
                            ready.append((index, attempt, suspicion))
                    in_flight.clear()
                    rebuilds += 1
                    host.rebuild()

        if drain_serially:
            # The rebuild budget is spent: finish in the parent, where no
            # pool can break.  Quarantined cells join the serial queue.
            ready.extend((index, 1, 0) for index in local)
            for index, attempt, _ in ready:
                record(
                    index,
                    _run_cell_serially(cells, index, policy, start_attempt=attempt),
                )
            ready.clear()
    except BaseException:
        for future in in_flight:
            future.cancel()
        raise

    for index, attempt in quarantined:
        record(
            index, _run_cell_serially(cells, index, policy, start_attempt=attempt)
        )


#: the cell-execution backends ``run_cells`` accepts
BACKENDS = ("processes", "batched")


def run_cells(
    cells: Sequence[Cell],
    progress: Optional[ProgressCallback] = None,
    jobs: Optional[int] = None,
    policy: Optional[ErrorPolicy] = None,
    backend: str = "processes",
) -> List[CellOutcome]:
    """Run explicit ``(scheme, link, config)`` cells, preserving their order.

    This is the one way a batch of emulations runs — the figures, the
    tables, the report and the sweep engine
    (:mod:`repro.experiments.sweeps`) all declare cells and call it; every
    cell may carry its own :class:`RunConfig`.  Results are bit-identical
    to calling :func:`~repro.experiments.runner.run_scheme_on_link` cell by
    cell.

    ``jobs``: worker processes.  ``1`` always runs serially in-process;
    ``None`` reuses an active :func:`shared_pool` if one is open and runs
    serially otherwise; ``0`` means one worker per CPU.

    ``policy``: the batch's :class:`~repro.experiments.policy.ErrorPolicy`;
    ``None`` is the fail-fast default.  Under ``collect``/``retry`` the
    returned list holds a :class:`~repro.experiments.policy.CellError` at
    each failed cell's position (``docs/robustness.md``); every index is
    always filled — a hole raises
    :class:`~repro.experiments.policy.IncompleteBatchError` rather than
    silently shrinking the list.

    ``backend``: ``"processes"`` (the default) fans out over worker
    processes as described above; ``"batched"`` runs eligible Sprout cells
    through the in-process batched cross-cell engine
    (:mod:`repro.experiments.batched`, docs/performance.md "Layer 4"),
    which steps many cells' event loops in lockstep and vectorizes the
    forecaster math across them — bit-identical results, no worker pool.
    Ineligible cells (scenarios, Sprout-EWMA, CoDel, ad-hoc endpoints)
    fall back to the per-cell loop.  A ``cell_timeout`` needs preemptable
    workers, so such batches route to the pooled engine regardless of
    ``backend``.
    """
    if jobs is not None and jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if backend not in BACKENDS:
        raise ValueError(
            f"backend must be one of {', '.join(BACKENDS)}; got {backend!r}"
        )
    if jobs == 0:
        jobs = default_jobs()
    cell_list = list(cells)
    if not cell_list:
        return []
    active_policy = policy if policy is not None else ErrorPolicy()

    results: List[Optional[CellOutcome]] = [None] * len(cell_list)
    journal: Optional[CheckpointJournal] = None
    keys: Optional[List[str]] = None
    if active_policy.checkpoint:
        journal = CheckpointJournal(active_policy.checkpoint)
        keys = [cell_key(cell) for cell in cell_list]
        finished = journal.load()
        for index, key in enumerate(keys):
            if key in finished:
                # Resumed from the journal: no re-run, no progress event.
                results[index] = finished[key]

    def record(index: int, outcome: CellOutcome) -> None:
        results[index] = outcome
        if journal is not None and isinstance(outcome, SchemeResult):
            journal.record(keys[index], outcome)
        if progress is not None:
            progress(outcome)

    pending = [index for index, slot in enumerate(results) if slot is None]
    try:
        if pending:
            if backend == "batched" and active_policy.cell_timeout is None:
                from repro.experiments.batched import run_indices_batched

                run_indices_batched(cell_list, pending, active_policy, record)
            else:
                _dispatch(cell_list, pending, active_policy, record, jobs)
    finally:
        if journal is not None:
            journal.close()

    missing = [index for index, slot in enumerate(results) if slot is None]
    if missing:
        raise IncompleteBatchError(missing, len(cell_list))
    return results


def _dispatch(
    cells: Sequence[Cell],
    pending: Sequence[int],
    policy: ErrorPolicy,
    record: _RecordFn,
    jobs: Optional[int],
) -> None:
    """Route the pending cells to the serial or the pooled engine."""
    shared = active_pool()
    workers = min(jobs or 1, len(pending))
    if jobs == 1 or (shared is None and workers <= 1):
        _run_indices_serial(cells, pending, policy, record)
        return
    if shared is not None:
        host = _PoolHost(
            shared, getattr(shared, "_max_workers", None) or default_jobs(), True
        )
    else:
        host = _PoolHost(ProcessPoolExecutor(max_workers=workers), workers, False)
    try:
        _run_indices_fault_tolerant(host, cells, pending, policy, record)
    finally:
        if not host.shared:
            host.pool.shutdown(wait=True)
