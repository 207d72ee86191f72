"""One fresh process: cold set-up, then the measured phase or the traced pass.

``python -m bench.child --workload W --seed N --size F --mode setup|run|trace``
prints one JSON object as its last stdout line.  The driver (``__main__``)
gives every child its own empty model and trace cache directories.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def calibration_ms() -> float:
    """A fixed pure-Python + numpy loop: how fast this box is right now."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k % 7
    matrix = np.arange(160_000, dtype=float).reshape(400, 400) / 1e5
    for _ in range(5):
        matrix = matrix @ matrix / 400.0
    return 1e3 * (time.perf_counter() - start)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    return (
        max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        / 1024.0
    )


def open_sockets() -> int:
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return 0
    count = 0
    for name in names:
        try:
            count += os.readlink(f"/proc/self/fd/{name}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor is gone by now
    return count


def leaks(sockets_at_start: int) -> list:
    """Pool processes, threads and sockets still around (there must be none)."""
    found = [f"process left behind: {p.name}" for p in multiprocessing.active_children()]
    found += [
        f"thread left behind: {t.name}"
        for t in threading.enumerate()
        if t is not threading.main_thread()
    ]
    sockets = open_sockets() - sockets_at_start  # stdin or stdout may be one
    if sockets > 0:
        found.append(f"{sockets} socket(s) left open")
    return found


def run(args: argparse.Namespace, tracer, start: float) -> dict:
    """Set-up (timed from ``start``) and one phase of one workload."""
    live = args.workload == "live"
    with tracer.span(args.workload, start=start) as root:
        import repro.experiments  # noqa: F401

        if live:
            import repro.transport.harness  # noqa: F401
        from bench import workloads

        tracer.add("setup.import", start, time.perf_counter())
        workload = workloads.WORKLOADS[args.workload]
        inputs = workload.make_inputs(args.seed, args.size, args.toy)
        with tracer.span("setup.model"):
            workloads.setup_model()
        if live:
            with tracer.span("setup.live"):
                workloads.setup_live()
        else:
            with tracer.span("setup.traces"):
                workloads.setup_traces(workload, inputs)
        result = {"workload": args.workload, "setup_s": time.perf_counter() - start}
        if args.mode == "run":
            from bench.pacer import Pacer
            from bench.tracing import cpu_seconds

            before_ms = calibration_ms()
            with Pacer() as pacer:
                cpu, wall = cpu_seconds(), time.perf_counter()
                output = workload.run(inputs)
                raw_wall_s = time.perf_counter() - wall
                raw_cpu_s = cpu_seconds() - cpu  # the pacer is not reaped yet
            outcome = workload.check(inputs, output)
            result.update(
                wall_s=raw_wall_s / pacer.load if workload.cpu_bound else raw_wall_s,
                raw_wall_s=raw_wall_s,
                raw_cpu_s=raw_cpu_s,
                host_load=pacer.load,
                calibration_ms=[before_ms, calibration_ms()],
                attempted=outcome.attempted,
                failures=outcome.failures,
                throughput_mbps=outcome.throughput_mbps,
                # Simulated delay is exact; a loopback datagram's delay is the
                # receiver thread working through the burst ahead of it.
                delay_ms=outcome.delay_ms if workload.cpu_bound else outcome.delay_ms / pacer.load,
                digest=outcome.digest,
            )
        elif args.mode == "trace":
            from bench import traced

            layers, failures, attempted = traced.trace_workload(tracer, inputs)
            layers["rate_model.cold_build_s"] = tracer.named("setup.model")[-1].duration
            result.update(attempted=attempted, failures=failures, layers=layers)
    if args.mode == "trace":
        own = tracer.self_times()
        result["layers"]["trace.coverage_pct"] = 100.0 * (1.0 - own[root.id] / root.duration)
    return result


def main(argv=None) -> int:
    from bench import spec

    names = spec.workload_names(spec.load())
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--toy", action="store_true", help="toy sizes (the smoke test)")
    parser.add_argument("--trace-out", help="write the spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.toy:
        parser.error("--workload all is for --toy only; a real run is one workload per process")

    from bench.tracing import Tracer

    sockets_at_start = open_sockets()
    tracer = Tracer(args.workload)
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = tracer.workload = name
        results.append(run(args, tracer, time.perf_counter() if results else _T0))
    if args.mode == "trace":
        from bench import layers

        micro = layers.run_all(tracer, args.toy)
        for result in results:
            result["layers"].update(micro)
            if micro["wire.corrupt_rejected"] != layers.WIRE_FRAMES:
                result["failures"].append("a corrupted frame was decoded without error")
            if not micro["impair.replay_ok"]:
                result["failures"].append("the impairment pipeline's replay differs from its run")
        if args.trace_out:
            tracer.write(args.trace_out)
    import numpy

    for result in results:
        result["peak_rss_mb"] = peak_rss_mb()
        result.setdefault("failures", []).extend(leaks(sockets_at_start))
        result["environment"] = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        }
    print(json.dumps(results if len(results) > 1 else results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
