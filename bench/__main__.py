"""The benchmark's driver process: closed loop, one command at a time.

One run (what ``BENCHMARK.json`` names)::

    python3 -m bench --workload sprout_grid --seed 7 --seconds 10 --trace 0

Every workload, ``--repeats`` interleaved rounds, then one traced pass each::

    python3 -m bench --seed 20130419 [--out run.json] [--trace-out spans.jsonl]

This process never imports ``repro``: each measurement is a fresh
``bench.child`` process with its own empty model and trace cache directories.
The last stdout line is one JSON document; tables go to stderr; the exit code
is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from bench import spec
from bench.compare import quartiles

#: set-up samples behind one ``setup_s`` (the run's own, plus set-up-only children)
SETUP_SAMPLES = 3
#: one run's children that have not all finished by then are killed (the
#: contract allows 180 s a run)
RUN_TIMEOUT_S = 170.0
TMP_ROOT = spec.ROOT / ".bench_tmp"


class BenchError(RuntimeError):
    """A child process failed; there is no result to report."""


def child_environment(directory: str) -> dict:
    """The environment of a ``bench.child`` whose caches and temp files live in ``directory``."""
    # No REPRO_* knob of the caller's may reach the program under test.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(spec.ROOT / "src"), str(spec.ROOT)]),
        REPRO_MODEL_CACHE_DIR=os.path.join(directory, "model"),
        REPRO_TRACE_CACHE_DIR=os.path.join(directory, "trace"),
        TMPDIR=directory,
        # The program's pool is the only concurrency: BLAS threads under J
        # workers oversubscribe the cores, and identical runs then differ by
        # tens of percent.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(
    mode: str, workload: str, seed: int, size: float, deadline: float, trace_out: Optional[str] = None
) -> dict:
    """One ``bench.child`` in a fresh process with fresh, empty cache directories.

    ``deadline`` is on ``time.monotonic()``; a child still running then is killed.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    env = child_environment(tmp)
    command = [sys.executable, "-m", "bench.child", "--workload", workload]
    command += ["--seed", str(seed), "--size", repr(size), "--mode", mode]
    if trace_out:
        command += ["--trace-out", os.path.abspath(trace_out)]
    # Its own process group, so that whatever it leaves behind (pool workers,
    # the pacer) can be stopped with it.
    process = subprocess.Popen(
        command, cwd=spec.ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} ({mode}) did not finish in time") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the group is already empty
        process.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's directories are still in it
    if process.returncode != 0 or not stdout.strip():
        raise BenchError(f"{workload} ({mode}) exited with code {process.returncode}")
    return json.loads(stdout.splitlines()[-1])


def run_once(benchmark: dict, workload: str, seed: int, seconds: float, trace: bool, trace_out: Optional[str] = None) -> dict:
    """One run of one workload: its metrics, operation counts and failed checks."""
    size = seconds / spec.NOMINAL_SECONDS
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if trace:
        child = run_child("trace", workload, seed, size, deadline, trace_out)
        known = spec.metrics_by_name(benchmark, "per_layer")
        unknown = sorted(set(child["layers"]) - set(known))
        if unknown:
            raise BenchError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        # A layer this workload does not touch reads 0.
        values = {name: child["layers"].get(name, 0.0) for name in known}
    else:
        child = run_child("run", workload, seed, size, deadline)
        setups = [child["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child("setup", workload, seed, size, deadline)["setup_s"])
        known = spec.metrics_by_name(benchmark, "end_to_end")
        values = {name: child[name] for name in known if name != "setup_s"}
        values["setup_s"] = statistics.median(setups)
    return {
        "workload": workload,
        "seed": seed,
        "attempted": child["attempted"],
        "failures": child["failures"],
        "metrics": {name: {"value": values[name], "unit": known[name]["unit"]} for name in known},
        "digest": child.get("digest", ""),
        "calibration_ms": child.get("calibration_ms"),
        # what the pacer's correction was applied to, and the correction
        "host": {key: child.get(key) for key in ("raw_wall_s", "raw_cpu_s", "host_load")},
        "environment": child["environment"],
    }


def contract_line(run: dict) -> str:
    """The result object the ``BENCHMARK.json`` contract asks for."""
    return json.dumps(
        {
            "correct": not run["failures"],
            "attempted": run["attempted"],
            "failed": min(len(run["failures"]), run["attempted"]),
            "metrics": run["metrics"],
        }
    )


def print_run(run: dict) -> None:
    for name, metric in run["metrics"].items():
        print(f"  {name:38s} {metric['value']:16.6g} {metric['unit']}", file=sys.stderr)
    print(f"  ops_attempted {run['attempted']}  ops_failed {len(run['failures'])}", file=sys.stderr)
    for line in run["failures"]:
        print(f"  FAILED: {line}", file=sys.stderr)


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=spec.ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def suite(benchmark: dict, args: argparse.Namespace) -> int:
    """Interleaved rounds of every workload, then one traced pass of each."""
    names = spec.workload_names(benchmark)
    runs: Dict[str, List[dict]] = {name: [] for name in names}
    for round_number in range(1, args.repeats + 1):
        for name in names:
            print(f"round {round_number}/{args.repeats}: {name}", file=sys.stderr)
            runs[name].append(run_once(benchmark, name, args.seed, args.seconds, trace=False))
    traced = {}
    for name in names:
        print(f"traced pass: {name}", file=sys.stderr)
        out = f"{args.trace_out}.{name}" if args.trace_out else None
        traced[name] = run_once(benchmark, name, args.seed, args.seconds, trace=True, trace_out=out)

    document = {
        "environment": dict(
            runs[names[0]][0]["environment"],
            cpu_count=os.cpu_count(),
            jobs=spec.J,
            machine=platform.machine(),
            commit=git_commit(),
        ),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "workloads": {},
    }
    failed = False
    for name in names:
        failures = [line for run in runs[name] + [traced[name]] for line in run["failures"]]
        # Simulated results and exports repeat exactly at one seed.
        if len({run["digest"] for run in runs[name]}) > 1:
            failures.append("output digest differs between rounds at one seed")
        samples = {
            metric: [run["metrics"][metric]["value"] for run in runs[name]]
            for metric in runs[name][0]["metrics"]
        }
        document["workloads"][name] = {
            "samples": samples,
            "quartiles": {metric: quartiles(values) for metric, values in samples.items()},
            "ops_attempted": sum(run["attempted"] for run in runs[name]) + traced[name]["attempted"],
            "ops_failed": len(failures),
            "failures": failures,
            "digest": runs[name][0]["digest"],
            "calibration_ms": [run["calibration_ms"] for run in runs[name]],
            "host": [run["host"] for run in runs[name]],
            "per_layer": {m: v["value"] for m, v in traced[name]["metrics"].items()},
        }
        failed = failed or bool(failures)
        print(f"\n{name}: median of {args.repeats} run(s) [quartiles]", file=sys.stderr)
        for metric, (low, mid, high) in document["workloads"][name]["quartiles"].items():
            unit = runs[name][0]["metrics"][metric]["unit"]
            print(f"  {metric:38s} {mid:12.5g} [{low:.5g}, {high:.5g}] {unit}", file=sys.stderr)
        print("  per layer (one traced run; 0 = layer not used by this workload):", file=sys.stderr)
        print_run(dict(traced[name], failures=failures))
    text = json.dumps(document)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return 1 if failed else 0


def main(argv=None) -> int:
    try:
        benchmark = spec.load()
    except OSError as error:
        print(f"bench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    names = spec.workload_names(benchmark)
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="run this one workload once")
    parser.add_argument("--seed", type=int, default=20130419, help="generates the inputs")
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="length of the measured phase the sizes are scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass (per-layer metrics)")
    parser.add_argument("--repeats", type=int, default=3, help="rounds of the full suite")
    parser.add_argument("--out", help="full suite: also write the JSON document here")
    parser.add_argument("--trace-out", help="write the spans here as JSON lines "
                        "(the full suite appends .<workload>)")
    args = parser.parse_args(argv)
    # A terminated driver unwinds through run_child's clean-up like an interrupted one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.workload is None:
            return suite(benchmark, args)
        run = run_once(benchmark, args.workload, args.seed, args.seconds, bool(args.trace), args.trace_out)
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    print_run(run)
    print(contract_line(run))
    return 1 if run["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
