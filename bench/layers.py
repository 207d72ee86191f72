"""Micro-benchmarks: one layer's public calls, timed from outside, no workload.

Every function returns ``{metric name: value}``.  They run in each traced run
(the same inputs whatever the workload), so a layer's number can be read
beside the span times of the workload that leans on it.  Rates are the median
over batches: one slow batch (a collection, a scheduler hiccup) does not move
them.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List

import numpy as np

from repro.core.forecaster import BayesianForecaster, EWMAForecaster
from repro.core.rate_model import (
    RateModel,
    RateModelParams,
    clear_shared_models,
    model_cache,
    shared_rate_model,
)
from repro.simulation.event_loop import EventLoop
from repro.simulation.packet import Packet
from repro.simulation.path import OneWayPipe
from repro.simulation.queues import CoDelQueue, DropTailQueue
from repro.traces.networks import get_link, link_trace
from repro.transport.impair import build_pipelines
from repro.transport.reliable import RetransmitBuffer, ReorderWindow
from repro.transport.wire import (
    DataFrame,
    WireFormatError,
    decode_frame,
    encode_data,
    seq_add,
)

from bench.tracing import high_percentile
from bench.workloads import LIVE_IMPAIR

Metrics = Dict[str, float]

#: seconds each rate measurement runs for (``--toy`` shrinks it)
BUDGET = 0.1
FORECASTER_TICKS = 4000
#: frames the wire benchmark encodes, and then corrupts one byte of
WIRE_FRAMES = 500


def seconds_per_op(batch: Callable[[], int], budget: float) -> float:
    """Median seconds per operation; ``batch()`` does work and returns its op count."""
    batch()  # warm caches, allocators and lazy set-up
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < 3 or time.perf_counter() < deadline:
        start = time.perf_counter()
        ops = batch()
        samples.append((time.perf_counter() - start) / ops)
    return statistics.median(samples)


def traces(budget: float) -> Metrics:
    link = get_link("Verizon LTE downlink")
    offsets = iter(range(7000, 10**9))  # realisations nothing else asks for

    def cold() -> int:
        link_trace(link, 30.0, seed_offset=next(offsets))
        return 1

    def warm() -> int:
        for _ in range(20):
            link_trace(link, 30.0, seed_offset=7000)
        return 20

    return {
        "traces.synth_ms_per_link": 1e3 * seconds_per_op(cold, budget),
        "traces.cache_hit_us": 1e6 * seconds_per_op(warm, budget),
    }


def rate_model(budget: float) -> Metrics:
    params = RateModelParams()
    shared_rate_model(params)  # set-up built it; make sure it is on disk

    def disk_load() -> int:
        model_cache().clear()
        clear_shared_models()
        RateModel(params)
        return 1

    def memory_hit() -> int:
        for _ in range(5):
            RateModel(params)
        return 5

    model = shared_rate_model(params)
    belief = model.update(model.uniform_prior(), 8.0)

    def update() -> int:
        b = belief
        for k in range(200):
            b = model.update(b, float(k % 16))
        return 200

    def quantile() -> int:
        for _ in range(200):
            model.cumulative_quantile(belief, 0.05)
        return 200

    return {
        "rate_model.disk_load_ms": 1e3 * seconds_per_op(disk_load, budget),
        "rate_model.memory_hit_us": 1e6 * seconds_per_op(memory_hit, budget),
        "rate_model.update_us": 1e6 * seconds_per_op(update, budget),
        "rate_model.quantile_us": 1e6 * seconds_per_op(quantile, budget),
    }


def _tick_times(forecaster, ticks: int) -> list:
    """Seconds of each tick + forecast, after 200 warm-up ticks."""
    rng = np.random.default_rng(20130419)
    # Saturator-like traffic around 400 packets/s, as in benchmarks/.
    observed = (rng.poisson(8.0, size=ticks + 200) * 1500.0).astype(float)
    for value in observed[:200]:
        forecaster.tick(value)
        forecaster.forecast()
    times = []
    for value in observed[200:]:
        start = time.perf_counter()
        forecaster.tick(value)
        forecaster.forecast()
        times.append(time.perf_counter() - start)
    return times


def forecaster(ticks: int = FORECASTER_TICKS) -> Metrics:
    model = shared_rate_model()
    times = _tick_times(BayesianForecaster(model=model), ticks)
    ewma = _tick_times(EWMAForecaster(), ticks)
    p99 = high_percentile(times, 99.0)
    return {
        "forecaster.tick_us_p50": 1e6 * statistics.median(times),
        "forecaster.tick_us_p99": 1e6 * p99,
        "forecaster.ticks_per_s": len(times) / sum(times),
        "forecaster.ewma_tick_us_p50": 1e6 * statistics.median(ewma),
        "forecaster.tick_budget_pct": 100.0 * p99 / model.params.tick,
    }


def _noop() -> None:
    pass


def event_loop(budget: float) -> Metrics:
    def batch() -> int:
        loop = EventLoop()
        for instant in range(1000):
            for _ in range(10):
                loop.schedule_at(instant * 0.001, _noop)
        loop.run_until(1.0)
        return loop.events_processed

    return {"event_loop.events_per_s": 1.0 / seconds_per_op(batch, budget)}


def link(budget: float) -> Metrics:
    trace = link_trace(get_link("Verizon LTE downlink"), 10.0)

    def pipe() -> int:
        loop = EventLoop()
        delivered = []
        one_way = OneWayPipe(loop, trace, lambda packet, now: delivered.append(packet))
        for _ in range(len(trace)):  # one packet per opportunity: saturated
            one_way.send(Packet(), 0.0)
        loop.run_until(10.0)
        return len(delivered)

    def queue_ops(queue) -> Callable[[], int]:
        def batch() -> int:
            now = 0.0
            for _ in range(500):
                queue.enqueue(Packet(), now)
                queue.enqueue(Packet(), now)
                now += 0.001
                queue.dequeue(now)
                queue.dequeue(now)
            return 2000

        return batch

    return {
        "link.packets_per_s": 1.0 / seconds_per_op(pipe, budget),
        "queues.droptail_ops_per_s": 1.0 / seconds_per_op(queue_ops(DropTailQueue()), budget),
        "queues.codel_ops_per_s": 1.0 / seconds_per_op(queue_ops(CoDelQueue()), budget),
    }


def wire(budget: float) -> Metrics:
    frames = [
        DataFrame(wire_seq=k, seq_bytes=1400 * k, throwaway_bytes=0, time_to_next=0.02, timestamp=0.001 * k, size=1400)
        for k in range(WIRE_FRAMES)
    ]
    encoded = [encode_data(frame) for frame in frames]

    def encode() -> int:
        for frame in frames:
            encode_data(frame)
        return len(frames)

    def decode() -> int:
        for datagram in encoded:
            decode_frame(datagram)
        return len(encoded)

    rejected = 0
    for k, datagram in enumerate(encoded):
        torn = bytearray(datagram)
        torn[(37 * k) % len(torn)] ^= 0x5A
        try:
            decode_frame(bytes(torn))
        except WireFormatError:
            rejected += 1
    return {
        "wire.encode_frames_per_s": 1.0 / seconds_per_op(encode, budget),
        "wire.decode_frames_per_s": 1.0 / seconds_per_op(decode, budget),
        "wire.corrupt_rejected": float(rejected),
    }


def impair(budget: float) -> Metrics:
    datagram = b"\x00" * 1400
    counters: Dict[str, int] = {}
    replays: List[bool] = []

    def batch() -> int:
        up, _ = build_pipelines(LIVE_IMPAIR, seed=20130419)
        now = 0.0
        for _ in range(2000):
            up.submit(datagram, now)
            up.pump(now)
            now += 0.0005
        counters.update(up.counters_snapshot())
        if not replays:  # outside the timed batches: the first call warms up
            replays.append(up.replay_determinism_check())
        return 2000

    per_op = seconds_per_op(batch, budget)
    drops = sum(count for action, count in counters.items() if action.startswith("drop:"))
    return {
        "impair.submit_datagrams_per_s": 1.0 / per_op,
        "impair.drop_ratio": drops / counters["submitted"],
        # On this clock every hold is released by the datagrams that pass it,
        # never by its timer, so the replay must agree (``workloads.transfer_failure``).
        "impair.replay_ok": float(replays[0]),
    }


def reliable(budget: float) -> Metrics:
    encoded = b"\x00" * 1400

    def track_ack() -> int:
        # 64 in flight; every feedback acks the oldest 8 and SACKs two beyond
        # a hole, so the dupthresh scan and due() walk a realistic window.
        buffer = RetransmitBuffer()
        now, head, ack = 0.0, 0, 0
        for _ in range(64):
            buffer.track(head, encoded, now)
            head = seq_add(head)
        for _ in range(100):
            now += 0.02
            ack = seq_add(ack, 8)
            buffer.on_feedback(ack, 0b110, now)
            buffer.due(now)
            while len(buffer) < 64:
                buffer.track(head, encoded, now)
                head = seq_add(head)
        return 100

    def reorder_accept() -> int:
        # Every eighth datagram arrives four late.
        window = ReorderWindow()
        late = []
        for seq in range(4000):
            if seq % 8 == 0:
                late.append(seq)
                continue
            window.accept(seq & 0xFFFF)
            if late and seq - late[0] >= 4:
                window.accept(late.pop(0) & 0xFFFF)
            if seq % 16 == 1:
                window.sack_bitmap()
        return 4000

    return {
        "reliable.track_ack_ops_per_s": 1.0 / seconds_per_op(track_ack, budget),
        "reliable.reorder_accept_ops_per_s": 1.0 / seconds_per_op(reorder_accept, budget),
    }


def cli(runs: int = 3) -> Metrics:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            check=True,
            stdout=subprocess.DEVNULL,
            env=os.environ,
        )
        times.append(time.perf_counter() - start)
    return {"cli.startup_ms": 1e3 * statistics.median(times)}


def run_all(tracer, toy: bool = False) -> Metrics:
    """Every micro-benchmark, one span each under a ``layers`` span."""
    budget = 0.01 if toy else BUDGET
    groups = (
        ("traces", lambda: traces(budget)),
        ("rate_model", lambda: rate_model(budget)),
        ("forecaster", lambda: forecaster(300 if toy else FORECASTER_TICKS)),
        ("event_loop", lambda: event_loop(budget)),
        ("link", lambda: link(budget)),
        ("wire", lambda: wire(budget)),
        ("impair", lambda: impair(budget)),
        ("reliable", lambda: reliable(budget)),
        ("cli", lambda: cli(1 if toy else 3)),
    )
    metrics: Metrics = {}
    with tracer.span("layers"):
        for name, group in groups:
            with tracer.span(f"layers.{name}"):
                metrics.update(group())
    return metrics
