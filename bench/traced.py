"""The traced pass: one workload run serially with a span at each layer boundary.

End-to-end numbers never come from here (tracing is off for those); this pass
gives the per-layer numbers.  It repeats, with spans in between, the few lines
``run_scheme_on_link`` is made of, so the time of a cell splits into
``cellsim.build``, ``cellsim.run`` and ``metrics.collect``; what is left of the
``cell`` span is the runner's own overhead.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

from repro.cellsim.cellsim import cellsim_for_link, traces_for_link
from repro.core.rate_model import model_cache, shared_rate_model
from repro.experiments.exports import export_csv, export_json, parse_csv, parse_json
from repro.experiments.parallel import required_model_params, run_cells, shared_pool
from repro.experiments.policy import ErrorPolicy
from repro.experiments.registry import get_scheme
from repro.experiments.report import generate_report
from repro.experiments.runner import collect_metrics
from repro.experiments.sweeps import (
    GridData,
    GridSpec,
    expand_grid,
    grid_points,
    render_grid,
    render_grid_frontiers,
)
from repro.metrics.summary import SchemeResult
from repro.traces.cache import global_cache
from repro.traces.networks import get_link

from bench import workloads
from bench.spec import J
from bench.tracing import Span, Tracer, cpu_seconds

Metrics = Dict[str, float]


def _median_ms(spans: Sequence[Span]) -> float:
    return 1e3 * statistics.median(span.duration for span in spans) if spans else 0.0


def _digest(spec: GridSpec, results: Sequence[object]) -> str:
    data = GridData(spec=spec, points=grid_points(spec, results))
    return hashlib.sha256(export_json(data).encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- grids


def prefetch(tracer: Tracer, cells: Sequence[tuple]) -> None:
    """Fill the model and trace caches, one span per fetch.

    A cell fetches both inline; fetching them first, as ``prewarm_models``
    does for a pooled batch, puts the cold builds under spans named for their
    layer and leaves the cells below as warm as the untraced runs they are
    compared with.
    """
    for params in required_model_params(cells):
        with tracer.span("rate_model.get", detail=f"sigma {params.sigma:g} tick {params.tick:g}"):
            shared_rate_model(params)
    for _, link, config in cells:
        link_spec = get_link(link) if isinstance(link, str) else link
        with tracer.span("traces.get", detail=link_spec.name):
            traces_for_link(link_spec, config.duration)


def traced_cells(tracer: Tracer, cells: Sequence[tuple]) -> Tuple[List[SchemeResult], int]:
    """Run cells one by one under spans; returns results and events fired."""
    results: List[SchemeResult] = []
    events = 0
    for scheme, link, config in cells:
        spec = get_scheme(scheme) if isinstance(scheme, str) else scheme
        link_spec = get_link(link) if isinstance(link, str) else link
        with tracer.span("cell", detail=f"{spec.name} | {link_spec.name}"):
            sender, receiver = spec.factory()
            with tracer.span("cellsim.build"):
                sim = cellsim_for_link(
                    sender,
                    receiver,
                    link_spec,
                    duration=config.duration,
                    loss_rate=config.loss_rate,
                    use_codel=spec.use_codel,
                    queue_byte_limit=config.queue_byte_limit,
                )
            with tracer.span("cellsim.run"):
                sim.run(config.duration)
            with tracer.span("metrics.collect"):
                results.append(collect_metrics(sim, spec.name, link_spec.name, config))
        events += sim.loop.events_processed
    return results, events


def _cache_counts() -> Dict[str, int]:
    trace_stats, model_stats = global_cache().stats, model_cache().stats
    return {
        "traces.cache_hits": trace_stats.memory_hits + trace_stats.disk_hits,
        "traces.cache_misses": trace_stats.misses,
        "rate_model.cache_misses": model_stats.misses,
        "rate_model.cache_disk_hits": model_stats.disk_hits,
    }


def _cache_metrics(before: Dict[str, int]) -> Metrics:
    """What this process's trace and model caches did since ``before``."""
    metrics = {name: float(count - before[name]) for name, count in _cache_counts().items()}
    lookups = metrics["traces.cache_hits"] + metrics["traces.cache_misses"]
    metrics["traces.cache_hit_ratio"] = metrics["traces.cache_hits"] / lookups if lookups else 0.0
    return metrics


def trace_grid(tracer: Tracer, inputs: workloads.GridInputs) -> Tuple[Metrics, List[str], int]:
    """Traced pass over the sub-grid, then the same cells untraced four ways."""
    spec = inputs.traced
    before = _cache_counts()
    with tracer.span("grid.expand"):
        cells = expand_grid(spec, inputs.config)
    prefetch(tracer, cells)
    results, events = traced_cells(tracer, cells)
    data = GridData(spec=spec, points=grid_points(spec, results))
    with tracer.span("grid.render"):
        render_grid(data)
        render_grid_frontiers(data)
    with tracer.span("export.csv"):
        csv_text = export_csv(data)
    with tracer.span("export.json"):
        json_text = export_json(data)
    with tracer.span("export.parse"):
        rows = len(parse_csv(csv_text))
        parse_json(json_text)
    metrics = _cache_metrics(before)

    own = tracer.self_times()

    def one(name: str) -> float:
        return tracer.named(name)[0].duration

    metrics.update(
        {
            "event_loop.events": float(events),
            "link.queue_drops": sum(r.extra["forward_queue_drops"] for r in results),
            "link.loss_drops": sum(r.extra["forward_loss_drops"] for r in results),
            "metrics.utilization_pct": 100.0 * statistics.fmean(r.utilization for r in results),
            "rate_model.get_ms_p50": _median_ms(tracer.named("rate_model.get")),
            "traces.get_ms_p50": _median_ms(tracer.named("traces.get")),
            "cellsim.build_ms_p50": _median_ms(tracer.named("cellsim.build")),
            "cellsim.run_ms_p50": _median_ms(tracer.named("cellsim.run")),
            "metrics.collect_ms_p50": _median_ms(tracer.named("metrics.collect")),
            "runner.overhead_ms_p50": 1e3 * statistics.median(own[span.id] for span in tracer.named("cell")),
            "sweeps.expand_us_per_cell": 1e6 * one("grid.expand") / len(cells),
            "sweeps.render_ms": 1e3 * one("grid.render"),
            "exports.csv_rows_per_s": rows / one("export.csv"),
            "exports.json_rows_per_s": rows / one("export.json"),
            "exports.parse_rows_per_s": 2 * rows / one("export.parse"),
        }
    )
    for scheme in ("Cubic", "Vegas", "LEDBAT", "Skype"):
        mine = [
            run
            for run in tracer.named("cellsim.run")
            if tracer.spans[run.parent].detail.startswith(f"{scheme} |")
        ]
        metrics[f"baselines.{scheme.lower()}.run_ms_p50"] = _median_ms(mine)

    failures = [why for why in map(workloads.cell_failure, results) if why]
    untraced, same, serial_cell_s = _four_ways(tracer, spec, cells, _digest(spec, results))
    metrics.update(untraced)
    if not same:
        failures.append("serial, pooled, batched, collect and traced results differ")
    # Cell by cell, traced against untraced, and the median of that: the
    # traced pass runs first and pays each model's and scheme's one-time costs
    # in its first cells, which a comparison of the totals would book as
    # tracing overhead.  The two passes run seconds apart, so on a shared host
    # this still reads the host's drift (several percent either way) on top of
    # the four spans a cell costs.
    ratios = [
        span.duration / untraced_s for span, untraced_s in zip(tracer.named("cell"), serial_cell_s)
    ]
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    return metrics, failures, len(cells)


def _four_ways(
    tracer: Tracer, spec: GridSpec, cells: Sequence[tuple], traced_digest: str
) -> Tuple[Metrics, bool, List[float]]:
    """The sub-grid through each engine, untraced.

    Returns cells/s of each, whether all results agree, and the seconds each
    cell of the serial pass took.
    """
    digests = {traced_digest}

    def cells_per_s(engine: str, jobs, **options) -> Tuple[float, float, List[float]]:
        """Cells per second, CPU ms per cell, and the time from pool open to each result."""
        done: List[float] = []
        cpu = cpu_seconds()
        with tracer.span(f"parallel.{engine}") as span, shared_pool(jobs):
            results = run_cells(
                cells,
                progress=lambda outcome: done.append(time.perf_counter() - span.start),
                jobs=jobs,
                **options,
            )
        cpu_ms = 1e3 * (cpu_seconds() - cpu) / len(cells)  # the pool's workers are reaped by now
        digests.add(_digest(spec, results))
        return len(cells) / span.duration, cpu_ms, done

    serial, serial_cpu_ms, serial_done = cells_per_s("serial", 1)
    pooled, pooled_cpu_ms, pooled_done = cells_per_s("pooled", J)
    batched, _, _ = cells_per_s("batched", None, backend="batched")
    collect, _, _ = cells_per_s("collect", J, policy=ErrorPolicy(on_error="collect"))
    same = len(digests) == 1
    first_cell = pooled_done[0]
    serial_cell_s = [end - start for start, end in zip([0.0] + serial_done, serial_done)]
    return (
        {
            "parallel.serial_cells_per_s": serial,
            "parallel.pooled_cells_per_s": pooled,
            "parallel.pool_efficiency": pooled / (serial * J),
            "parallel.serial_cpu_ms_per_cell": serial_cpu_ms,
            "parallel.pooled_cpu_ms_per_cell": pooled_cpu_ms,
            "parallel.batched_cells_per_s": batched,
            "parallel.collect_cells_per_s": collect,
            "parallel.first_cell_s": first_cell,
            "parallel.bit_identical": float(same),
        },
        same,
        serial_cell_s,
    )


# ------------------------------------------------------------------ report

#: a progress note of ``generate_report`` -> the span its section gets
REPORT_NOTES = (
    ("Figure 7 measurement matrix", "report.matrix"),
    ("Figure 1", "report.figure1"),
    ("Figure 2", "report.figure2"),
    ("Figure 9", "report.figure9"),
    ("loss-resilience", "report.loss"),
    ("competing-traffic", "report.tunnel"),
)


def trace_report(tracer: Tracer, inputs: workloads.ReportInputs) -> Tuple[Metrics, List[str], int]:
    """One span per section, from the times of ``generate_report``'s notes."""
    before = _cache_counts()
    stamps: List[Tuple[float, str]] = []

    def stamp(message: str) -> None:
        if not message.startswith("  "):  # per-cell notes are indented
            stamps.append((time.perf_counter(), message))

    text = generate_report(inputs.config, progress=stamp)
    stamps.append((time.perf_counter(), ""))
    metrics = _cache_metrics(before)
    for (start, message), (end, _) in zip(stamps, stamps[1:]):
        name = next((span for note, span in REPORT_NOTES if note in message), None)
        # A section this file does not know still gets its span, not a metric.
        tracer.add(name or "report.other", start, end)
        if name:
            metrics[f"{name}_s"] = end - start
    outcome = workloads.check_report(inputs, text)
    return metrics, outcome.failures, outcome.attempted


# -------------------------------------------------------------------- live


def _timed_transfers(tracer: Tracer, name: str, configs: Sequence) -> Tuple[list, List[float]]:
    """Run transfers under spans; returns results and CPU ms per MB of each."""
    from repro.transport.harness import run_live_transfer

    results, cpu_ms_per_mb = [], []
    for k, config in enumerate(configs):
        cpu = time.process_time()
        with tracer.span(name, detail=f"{config.transfer_bytes} bytes"):
            result = run_live_transfer(config, repeat=k + 1)
        results.append(result)
        cpu_ms_per_mb.append(
            1e3 * (time.process_time() - cpu) / (config.transfer_bytes / workloads.MIB)
        )
    return results, cpu_ms_per_mb


def trace_live(tracer: Tracer, inputs: workloads.LiveInputs) -> Tuple[Metrics, List[str], int]:
    """The impaired transfers, then two clean ones (the no-pipeline fast path)."""
    impaired, cpu = _timed_transfers(tracer, "transfer", inputs.configs)
    clean_configs = [replace(config, impair="") for config in inputs.configs[:2]]
    clean, clean_cpu = _timed_transfers(tracer, "transfer.clean", clean_configs)

    def delay_ms(key: str) -> float:
        return 1e3 * statistics.median(r.delay_percentiles_s[key] for r in impaired)

    sent = sum(r.datagrams_sent for r in impaired)
    everything = impaired + clean
    metrics = {
        "transport.cpu_ms_per_mb": statistics.median(cpu),
        "transport.delay_p50_ms": delay_ms("p50"),
        "transport.delay_p95_ms": delay_ms("p95"),
        "transport.delay_p99_ms": delay_ms("p99"),
        "transport.retransmit_ratio": sum(r.total_retransmits for r in impaired) / sent,
        "transport.timeout_retransmits": float(sum(r.timeout_retransmits for r in impaired)),
        "transport.fast_retransmits": float(sum(r.fast_retransmits for r in impaired)),
        "transport.ticks_skipped": float(sum(r.ticks_skipped for r in impaired)),
        "transport.longest_stall_ms": 1e3 * max(r.longest_stall_s for r in impaired),
        "transport.close_unacked": float(sum(not r.close_acked for r in everything)),
        "transport.replay_mismatches": float(sum(r.impair_replay_ok is False for r in everything)),
        "transport.clean_goodput_mbps": statistics.median(r.throughput_bps for r in clean) / 1e6,
        "transport.clean_cpu_ms_per_mb": statistics.median(clean_cpu),
    }
    failures = [why for why in map(workloads.transfer_failure, everything) if why]
    return metrics, failures, len(everything)


def trace_workload(tracer: Tracer, inputs) -> Tuple[Metrics, List[str], int]:
    """(metrics, failed-operation lines, operations attempted) of the traced pass."""
    if isinstance(inputs, workloads.GridInputs):
        return trace_grid(tracer, inputs)
    if isinstance(inputs, workloads.ReportInputs):
        return trace_report(tracer, inputs)
    return trace_live(tracer, inputs)
