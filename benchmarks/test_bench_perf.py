"""Performance benchmark: inference fast path and parallel matrix runner.

Each measurement is recorded to ``BENCH_PERF.json`` at the repository root —
a local, git-ignored record; the tracked trajectory is the repo benchmark's
(``python3 -m bench``, bench/README.md).  The assertions are exact things
only: bit-identity, work counters and loose catastrophic-regression floors,
never one wall-clock against another.

* ``forecaster``: sustained ticks/second of the paper-parameter Bayesian
  forecaster running the receiver's per-20 ms loop (one belief update plus
  one cautious forecast per tick, saturator-like observations);
* ``matrix``: wall-clock of a small scheme x link measurement matrix run
  serially and through the process-pool runner, with a bit-identity check
  between the two result sets;
* ``sweep``: wall-clock of a small parameter sweep through the full fast
  path (flattened batch, shared pool, shared trace cache) against the same
  cells run one by one with the trace cache disabled, again bit-identical;
* ``grid``: the same comparison for a 2-D grid (Cartesian product of two
  axes through ``repro.experiments.sweeps.run_grid``), so the N-dimensional
  expansion's overhead and cache behaviour stay on the record;
* ``aqm``: wall-clock of the queue-management grid (drop-tail vs CoDel ×
  deep vs bounded buffer, per-flow metrics on) against the same cells run
  one by one with the trace cache off — the discipline swap and per-flow
  collection must stay collection-cost-only, bit-identical physics;
* ``fault_recovery``: the error policies on the one pooled engine
  (docs/robustness.md) — a clean grid under ``collect`` vs ``fail_fast``
  (bit-identical), plus a crashing grid's recovery wall-clock;
* ``batched``: the batched cross-cell engine (docs/performance.md Layer 4)
  on a 256-cell single-scheme grid — cells/sec against the pooled engine
  on the same cells, bit-identical results required;
* ``live_loopback``: the real-socket transport (docs/transport.md) — one
  ``repro live`` harness transfer over clean loopback UDP, recording
  throughput and per-packet delay percentiles with deliberately loose
  gates (loopback timing wobbles on loaded runners).

The matrix speedup is hardware dependent (worker warm-up dominates on a
single core); the JSON record carries ``cpu_count`` so readers can judge
the numbers in context.  See docs/performance.md for methodology.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.forecaster import BayesianForecaster
from repro.core.rate_model import shared_rate_model
from repro.experiments.parallel import run_cells
from repro.experiments.policy import ErrorPolicy
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import (
    GridSpec,
    expand_grid,
    run_grid,
)
from repro.traces.cache import global_cache

pytestmark = pytest.mark.perf

#: where the perf record lands (repository root)
PERF_RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_PERF.json"

#: ticks measured by the forecaster microbenchmark
FORECASTER_TICKS = int(os.environ.get("REPRO_BENCH_FORECASTER_TICKS", "4000"))

#: the small matrix measured by the wall-clock benchmark
MATRIX_SCHEMES = ("Vegas", "Skype")
MATRIX_LINKS = ("AT&T LTE uplink", "Verizon LTE uplink")
MATRIX_CONFIG = RunConfig(duration=15.0, warmup=3.0)
MATRIX_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", str(os.cpu_count() or 1)))


def _record(section: str, payload: dict) -> None:
    """Merge ``payload`` into the ``section`` key of BENCH_PERF.json."""
    record = {}
    if PERF_RECORD_PATH.exists():
        try:
            record = json.loads(PERF_RECORD_PATH.read_text())
        except (ValueError, OSError):
            record = {}
    record.setdefault("environment", {}).update(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
        }
    )
    record[section] = payload
    PERF_RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def test_bench_forecaster_ticks_per_sec():
    model = shared_rate_model()
    forecaster = BayesianForecaster(model=model)
    rng = np.random.default_rng(20130419)
    # Saturator-like traffic: an integer number of MTU-sized packets per
    # tick around 400 packets/s, the regime of the paper's cellular traces.
    observations = (rng.poisson(8.0, size=FORECASTER_TICKS + 200) * 1500.0).astype(float)
    for observed in observations[:200]:  # warm caches and converge the belief
        forecaster.tick(observed)
        forecaster.forecast()
    start = time.perf_counter()
    for observed in observations[200:]:
        forecaster.tick(observed)
        forecaster.forecast()
    elapsed = time.perf_counter() - start
    ticks_per_sec = FORECASTER_TICKS / elapsed

    _record(
        "forecaster",
        {
            "ticks": FORECASTER_TICKS,
            "elapsed_s": round(elapsed, 4),
            "ticks_per_sec": round(ticks_per_sec, 1),
            "realtime_factor": round(ticks_per_sec * model.params.tick, 1),
        },
    )
    print(f"\nforecaster: {ticks_per_sec:,.0f} ticks/s "
          f"({ticks_per_sec * model.params.tick:,.0f}x realtime)")
    # Loose floor to catch catastrophic regressions without being flaky:
    # the seed implementation already managed ~3k ticks/s on one core.
    assert ticks_per_sec > 1500


def test_bench_matrix_wallclock():
    cells = [
        (scheme, link, MATRIX_CONFIG)
        for scheme in MATRIX_SCHEMES
        for link in MATRIX_LINKS
    ]
    start = time.perf_counter()
    serial = [run_scheme_on_link(*cell) for cell in cells]
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_cells(cells, jobs=MATRIX_JOBS)
    parallel_s = time.perf_counter() - start

    # The whole point of the parallel runner: identical output.
    assert [r.as_dict() for r in parallel] == [r.as_dict() for r in serial]

    _record(
        "matrix",
        {
            "schemes": list(MATRIX_SCHEMES),
            "links": list(MATRIX_LINKS),
            "duration_s": MATRIX_CONFIG.duration,
            "jobs": MATRIX_JOBS,
            "serial_wallclock_s": round(serial_s, 3),
            "parallel_wallclock_s": round(parallel_s, 3),
            "speedup": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
        },
    )
    print(f"\nmatrix: serial {serial_s:.2f}s, parallel (jobs={MATRIX_JOBS}) "
          f"{parallel_s:.2f}s")


#: the small sweep measured by the sweep wall-clock benchmark
SWEEP_SPEC = GridSpec(
    parameters=("loss",),
    values=((0.0, 0.01, 0.02),),
    schemes=("Vegas",),
    links=("AT&T LTE uplink",),
)


def test_bench_sweep_wallclock():
    cache = global_cache()
    cache.clear()
    hits_before = cache.stats.memory_hits + cache.stats.disk_hits

    start = time.perf_counter()
    fast = run_grid(SWEEP_SPEC, config=MATRIX_CONFIG, jobs=MATRIX_JOBS)
    fast_s = time.perf_counter() - start
    hits = (cache.stats.memory_hits + cache.stats.disk_hits) - hits_before

    # Reference: the same expanded cells, one by one, trace cache off.
    cells = expand_grid(SWEEP_SPEC, MATRIX_CONFIG)
    was_enabled = cache.enabled
    cache.enabled = False
    try:
        start = time.perf_counter()
        reference = [run_scheme_on_link(s, l, c) for s, l, c in cells]
        reference_s = time.perf_counter() - start
    finally:
        cache.enabled = was_enabled

    # The whole point of the sweep engine: identical physics, faster.
    fast_rows = [r.as_dict() for p in fast.points for r in p.results]
    assert fast_rows == [r.as_dict() for r in reference]

    _record(
        "sweep",
        {
            "parameter": SWEEP_SPEC.parameters[0],
            "values": list(SWEEP_SPEC.values[0]),
            "schemes": list(SWEEP_SPEC.schemes),
            "links": list(SWEEP_SPEC.links),
            "cells": len(cells),
            "duration_s": MATRIX_CONFIG.duration,
            "jobs": MATRIX_JOBS,
            "sweep_wallclock_s": round(fast_s, 3),
            "uncached_serial_wallclock_s": round(reference_s, 3),
            "speedup": round(reference_s / fast_s, 3) if fast_s > 0 else None,
            # With jobs > 1 the hits land in the worker processes' caches,
            # which the parent cannot observe — record null, not a lie.
            "trace_cache_hits": hits if MATRIX_JOBS == 1 else None,
        },
    )
    print(f"\nsweep: fast path {fast_s:.2f}s, uncached serial {reference_s:.2f}s "
          f"({len(cells)} cells, jobs={MATRIX_JOBS})")


#: the small 2-D grid measured by the grid wall-clock benchmark
GRID_SPEC = GridSpec(
    parameters=("loss", "scale"),
    values=((0.0, 0.02), (1.0, 0.5)),
    schemes=("Vegas",),
    links=("AT&T LTE uplink",),
)


def test_bench_grid_wallclock():
    cache = global_cache()
    cache.clear()

    start = time.perf_counter()
    fast = run_grid(GRID_SPEC, config=MATRIX_CONFIG, jobs=MATRIX_JOBS)
    fast_s = time.perf_counter() - start

    # Reference: the same expanded cells, one by one, trace cache off.
    cells = expand_grid(GRID_SPEC, MATRIX_CONFIG)
    was_enabled = cache.enabled
    cache.enabled = False
    try:
        start = time.perf_counter()
        reference = [run_scheme_on_link(s, l, c) for s, l, c in cells]
        reference_s = time.perf_counter() - start
    finally:
        cache.enabled = was_enabled

    # The acceptance bar: every grid cell bit-identical to its serial twin.
    fast_rows = [r.as_dict() for p in fast.points for r in p.results]
    assert fast_rows == [r.as_dict() for r in reference]

    _record(
        "grid",
        {
            "parameters": list(GRID_SPEC.parameters),
            "axis_values": [list(axis) for axis in GRID_SPEC.values],
            "shape": list(GRID_SPEC.shape),
            "schemes": list(GRID_SPEC.schemes),
            "links": list(GRID_SPEC.links),
            "cells": len(cells),
            "duration_s": MATRIX_CONFIG.duration,
            "jobs": MATRIX_JOBS,
            "grid_wallclock_s": round(fast_s, 3),
            "uncached_serial_wallclock_s": round(reference_s, 3),
            "speedup": round(reference_s / fast_s, 3) if fast_s > 0 else None,
        },
    )
    print(f"\ngrid: fast path {fast_s:.2f}s, uncached serial {reference_s:.2f}s "
          f"({len(cells)} cells, jobs={MATRIX_JOBS})")


#: the queue-management grid measured by the aqm wall-clock benchmark; the
#: flows axis makes the cells multiplexed scenarios (so per_flow=True
#: genuinely exercises the per-flow collection path) and tunnelled=0 shares
#: the carrier queue directly, where the discipline visibly matters
AQM_GRID_SPEC = GridSpec(
    parameters=("aqm", "qlimit", "flows", "tunnelled"),
    values=((0.0, 1.0), (0.0, 30000.0), (2.0,), (0.0,)),
    schemes=("Sprout",),
    links=("AT&T LTE uplink",),
)
AQM_CONFIG = RunConfig(duration=15.0, warmup=3.0, per_flow=True)


def test_bench_aqm_wallclock():
    cache = global_cache()
    cache.clear()

    start = time.perf_counter()
    fast = run_grid(AQM_GRID_SPEC, config=AQM_CONFIG, jobs=MATRIX_JOBS)
    fast_s = time.perf_counter() - start

    # Reference: the same expanded cells, one by one, trace cache off.
    cells = expand_grid(AQM_GRID_SPEC, AQM_CONFIG)
    was_enabled = cache.enabled
    cache.enabled = False
    try:
        start = time.perf_counter()
        reference = [run_scheme_on_link(s, l, c) for s, l, c in cells]
        reference_s = time.perf_counter() - start
    finally:
        cache.enabled = was_enabled

    # The acceptance bar: every queue-management cell bit-identical to its
    # serial twin, the disciplines genuinely differ, and per-flow metrics
    # were actually collected (otherwise this wall-clock measures nothing).
    fast_rows = [r.as_dict() for p in fast.points for r in p.results]
    assert fast_rows == [r.as_dict() for r in reference]
    drop_tail = [r.as_dict() for p in fast.slice("aqm", 0.0) for r in p.results]
    codel = [r.as_dict() for p in fast.slice("aqm", 1.0) for r in p.results]
    assert drop_tail != codel
    assert all(r.flows for p in fast.points for r in p.results)

    _record(
        "aqm",
        {
            "parameters": list(AQM_GRID_SPEC.parameters),
            "axis_values": [list(axis) for axis in AQM_GRID_SPEC.values],
            "schemes": list(AQM_GRID_SPEC.schemes),
            "links": list(AQM_GRID_SPEC.links),
            "cells": len(cells),
            "duration_s": AQM_CONFIG.duration,
            "per_flow": AQM_CONFIG.per_flow,
            "jobs": MATRIX_JOBS,
            "grid_wallclock_s": round(fast_s, 3),
            "uncached_serial_wallclock_s": round(reference_s, 3),
            "speedup": round(reference_s / fast_s, 3) if fast_s > 0 else None,
        },
    )
    print(f"\naqm: fast path {fast_s:.2f}s, uncached serial {reference_s:.2f}s "
          f"({len(cells)} cells, jobs={MATRIX_JOBS})")


#: the clean grid run under both error policies (docs/robustness.md)
FAULT_GRID_SPEC = GridSpec(
    parameters=("loss",),
    values=((0.0, 0.005, 0.01, 0.015, 0.02, 0.025),),
    schemes=("Vegas", "Skype"),
    links=("AT&T LTE uplink",),
)
#: two workers, so the schedulers genuinely queue (12 cells over 2 slots)
#: and the wall-clock is emulation-dominated rather than pool-spin-up noise
FAULT_JOBS = min(MATRIX_JOBS, 2) or 2


def test_bench_fault_recovery():
    """The robustness layer, on the record.

    Two measurements: a clean grid under ``collect`` and under ``fail_fast``
    (one engine runs both, so the results must be bit-identical; the
    wall-clocks are recorded best-of-two, interleaved so drift hits both),
    and a crashing grid under ``collect`` (one poison cell, the rest finish).
    """
    fail_fast = ErrorPolicy()
    collect = ErrorPolicy(on_error="collect")
    timings = {"fail_fast": [], "collect": []}
    outputs = {}
    for _ in range(2):
        for name, policy in (("fail_fast", fail_fast), ("collect", collect)):
            start = time.perf_counter()
            data = run_grid(
                FAULT_GRID_SPEC, config=MATRIX_CONFIG, policy=policy, jobs=FAULT_JOBS
            )
            timings[name].append(time.perf_counter() - start)
            outputs[name] = [r.as_dict() for p in data.points for r in p.results]

    # Same cells, same numbers — the policies differ only on failure.
    assert outputs["collect"] == outputs["fail_fast"]
    fail_fast_s = min(timings["fail_fast"])
    collect_s = min(timings["collect"])

    # Recovery run: one always-crashing cell must not sink the grid.
    spec_env = os.environ.get("REPRO_FAULT_SPEC")
    os.environ["REPRO_FAULT_SPEC"] = json.dumps([{"kind": "crash", "index": 1}])
    try:
        start = time.perf_counter()
        crashed = run_grid(
            FAULT_GRID_SPEC, config=MATRIX_CONFIG, policy=collect, jobs=FAULT_JOBS
        )
        recovery_s = time.perf_counter() - start
    finally:
        if spec_env is None:
            del os.environ["REPRO_FAULT_SPEC"]
        else:
            os.environ["REPRO_FAULT_SPEC"] = spec_env
    errors = crashed.errors
    assert len(errors) == 1 and errors[0].error_type == "InjectedFault"
    survivors = [r.as_dict() for p in crashed.points for r in p.ok_results]
    assert survivors == [r for i, r in enumerate(outputs["fail_fast"]) if i != 1]

    _record(
        "fault_recovery",
        {
            "parameters": list(FAULT_GRID_SPEC.parameters),
            "axis_values": [list(axis) for axis in FAULT_GRID_SPEC.values],
            "cells": len(expand_grid(FAULT_GRID_SPEC, MATRIX_CONFIG)),
            "duration_s": MATRIX_CONFIG.duration,
            "jobs": MATRIX_JOBS,
            "fail_fast_wallclock_s": round(fail_fast_s, 3),
            "collect_wallclock_s": round(collect_s, 3),
            "collect_overhead_pct": round(100 * (collect_s / fail_fast_s - 1), 2)
            if fail_fast_s > 0
            else None,
            "crash_recovery_wallclock_s": round(recovery_s, 3),
            "crash_recovery_failed_cells": len(errors),
        },
    )
    print(
        f"\nfault_recovery: fail_fast {fail_fast_s:.2f}s, collect {collect_s:.2f}s "
        f"({100 * (collect_s / fail_fast_s - 1):+.1f}%), "
        f"crash recovery {recovery_s:.2f}s ({len(errors)} failed cell)"
    )


#: the ≥256-cell single-scheme grid measured by the batched-engine
#: benchmark: 16 loss rates × 16 trace scales of plain Sprout on one slow
#: cellular uplink, the regime where the forecaster math dominates each
#: cell and every cell shares one model artifact
BATCHED_GRID_SPEC = GridSpec(
    parameters=("loss", "scale"),
    values=(
        tuple(round(0.0025 * i, 4) for i in range(16)),
        tuple(round(0.35 + 0.02 * i, 2) for i in range(16)),
    ),
    schemes=("Sprout",),
    links=("Verizon 3G (1xEV-DO) uplink",),
)
BATCHED_CONFIG = RunConfig(duration=6.0, warmup=1.5)
#: the pooled serial reference runs on two workers, like the fault bench
BATCHED_JOBS = min(MATRIX_JOBS, 2) or 2


def test_bench_batched_cells_per_sec():
    """The batched cross-cell engine's price of admission, on the record.

    One 256-cell Sprout grid through the pooled engine and through
    ``backend="batched"``; results must be bit-identical (that the batched
    engine really steps in lockstep rather than falling back per cell is
    pinned by its own counters in tests/test_batched.py).  Traces are
    prewarmed in the parent (sub-second) so neither engine is charged for
    trace generation — the pooled path builds traces in its workers, which
    the parent-side batched engine cannot reuse.
    """
    from repro.cellsim.cellsim import traces_for_link
    from repro.experiments.parallel import shared_pool

    cells = expand_grid(BATCHED_GRID_SPEC, BATCHED_CONFIG)
    assert len(cells) >= 256
    for _, link, config in cells:
        traces_for_link(link, config.duration)

    start = time.perf_counter()
    with shared_pool(BATCHED_JOBS):
        pooled = run_grid(BATCHED_GRID_SPEC, config=BATCHED_CONFIG, jobs=BATCHED_JOBS)
    pooled_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = run_grid(BATCHED_GRID_SPEC, config=BATCHED_CONFIG, backend="batched")
    batched_s = time.perf_counter() - start

    # The acceptance bar: every cell bit-identical to its pooled twin.
    assert [r.as_dict() for p in batched.points for r in p.results] == [
        r.as_dict() for p in pooled.points for r in p.results
    ]

    cells_n = len(cells)
    ratio = pooled_s / batched_s if batched_s > 0 else None

    _record(
        "batched",
        {
            "parameters": list(BATCHED_GRID_SPEC.parameters),
            "schemes": list(BATCHED_GRID_SPEC.schemes),
            "links": list(BATCHED_GRID_SPEC.links),
            "cells": cells_n,
            "duration_s": BATCHED_CONFIG.duration,
            "pooled_jobs": BATCHED_JOBS,
            "pooled_wallclock_s": round(pooled_s, 3),
            "pooled_cells_per_sec": round(cells_n / pooled_s, 2),
            "batched_wallclock_s": round(batched_s, 3),
            "batched_cells_per_sec": round(cells_n / batched_s, 2),
            "speedup": round(ratio, 3) if ratio is not None else None,
        },
    )
    print(
        f"\nbatched: pooled (jobs={BATCHED_JOBS}) {pooled_s:.1f}s "
        f"({cells_n / pooled_s:.2f} cells/s), batched {batched_s:.1f}s "
        f"({cells_n / batched_s:.2f} cells/s), {ratio:.2f}x"
    )


def test_bench_live_loopback():
    """Real-socket transport throughput/latency (docs/transport.md).

    One sized transfer of the ``repro live`` harness over loopback UDP —
    clean channel, so the number tracks the transport implementation's
    overhead (codec, selective repeat, wall-clock ticking), not loss
    recovery.  The gates are deliberately loose: loopback timing on a
    loaded CI runner wobbles, and the record, not the gate, carries the
    trajectory.  Skips where the environment forbids 127.0.0.1 sockets.
    """
    from repro.transport import LiveConfig, run_live_transfer, sockets_available

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")

    result = run_live_transfer(LiveConfig(transfer_bytes=128 * 1024, repeats=1))
    assert result.completed and result.lost_forever == 0
    p95_ms = 1000 * result.delay_percentiles_s.get("p95", float("nan"))
    # Loose gates: an order of magnitude under/over any measured value.
    assert result.throughput_bps > 100_000, "loopback transport under 100 kbps"
    assert p95_ms < 1000, f"loopback p95 delay {p95_ms:.1f} ms"

    _record(
        "live_loopback",
        {
            "transfer_bytes": result.transfer_bytes,
            "throughput_bps": round(result.throughput_bps),
            "delay_p50_ms": round(
                1000 * result.delay_percentiles_s.get("p50", float("nan")), 3
            ),
            "delay_p95_ms": round(p95_ms, 3),
            "datagrams_sent": result.datagrams_sent,
            "retransmits": result.total_retransmits,
            "duration_s": round(result.duration_s, 4),
        },
    )
    print(
        f"\nlive_loopback: {result.throughput_bps / 1e6:.2f} Mbit/s, "
        f"p95 delay {p95_ms:.2f} ms over {result.datagrams_sent} datagrams"
    )


def test_bench_live_impaired():
    """Throughput under the Gilbert–Elliott profile (docs/robustness.md).

    The same sized transfer as ``live_loopback``, but through the
    adversarial impairment pipeline's bursty-loss stage — the record
    tracks how much throughput the selective-repeat machinery preserves
    when ~5% of datagrams die in bursts of ~8.  Loose gates for the same
    CI-wobble reasons as the clean benchmark; the determinism replay gate
    is exact, because it must be.
    """
    from repro.transport import LiveConfig, run_live_transfer, sockets_available

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")

    result = run_live_transfer(
        LiveConfig(
            transfer_bytes=128 * 1024,
            repeats=1,
            impair="ge:p=0.05,burst=8",
            impair_seed=42,
        )
    )
    assert result.completed and result.lost_forever == 0
    assert result.failure == ""
    assert result.impair_replay_ok is True  # exact, not a loose gate
    assert result.throughput_bps > 50_000, "impaired transport under 50 kbps"
    assert result.duration_s < 30.0

    dropped = sum(
        count for key, count in result.impair_counters.items() if "drop" in key
    )
    _record(
        "live_impaired",
        {
            "impair_spec": "ge:p=0.05,burst=8",
            "transfer_bytes": result.transfer_bytes,
            "throughput_bps": round(result.throughput_bps),
            "delay_p95_ms": round(
                1000 * result.delay_percentiles_s.get("p95", float("nan")), 3
            ),
            "datagrams_sent": result.datagrams_sent,
            "datagrams_dropped": dropped,
            "retransmits": result.total_retransmits,
            "longest_stall_s": round(result.longest_stall_s, 4),
            "duration_s": round(result.duration_s, 4),
        },
    )
    print(
        f"\nlive_impaired: {result.throughput_bps / 1e6:.2f} Mbit/s with "
        f"{dropped} injected drops and {result.total_retransmits} retransmits"
    )
