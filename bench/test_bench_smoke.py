"""Smoke test of the benchmark: every workload and the traced pass at toy sizes.

No timing is asserted.  The toy pass runs in one ``bench.child`` process
(2-cell grids at 2 s traces, a 2-section report, one 64 KiB transfer), which
is the code a real run goes through, and keeps its caches, pool and sockets
out of the test process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import spec
from bench.__main__ import child_environment, contract_line, run_once

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    """One cache directory for both toy children: the second need not rebuild the model."""
    return tmp_path_factory.mktemp("bench-caches")


def toy_child(caches, mode: str, *extra: str) -> list:
    command = [sys.executable, "-m", "bench.child", "--workload", "all", "--seed", "5"]
    done = subprocess.run(
        command + ["--toy", "--mode", mode, *extra],
        cwd=spec.ROOT, env=child_environment(str(caches)), stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_and_units():
    benchmark = spec.load()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = spec.workload_names(benchmark)
    for kind in ("end_to_end", "per_layer"):
        for name, metric in spec.metrics_by_name(benchmark, kind).items():
            names.append(name)
            assert metric["unit"] and metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in spec.metrics_by_name(benchmark, "end_to_end")


def test_toy_run_of_every_workload(caches):
    from repro.transport.harness import sockets_available

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    benchmark = spec.load()
    results = toy_child(caches, "run")
    assert [r["workload"] for r in results] == spec.workload_names(benchmark)
    wanted = set(spec.metrics_by_name(benchmark, "end_to_end"))
    for result in results:
        assert result["failures"] == [], result
        assert result["attempted"] >= 1
        assert wanted <= set(result)
        assert all(result[name] == result[name] for name in wanted)  # none is NaN


def test_toy_traced_pass_and_trace_file(caches, tmp_path):
    from repro.transport.harness import sockets_available

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    benchmark = spec.load()
    spans_path = tmp_path / "spans.jsonl"
    results = toy_child(caches, "trace", "--trace-out", str(spans_path))
    emitted = set()
    for result in results:
        assert result["failures"] == [], result
        emitted |= set(result["layers"])
    # Between them the workloads report every per-layer metric and no other;
    # the toy report has only the Figure 1 and Figure 2 sections.
    known = set(spec.metrics_by_name(benchmark, "per_layer"))
    assert emitted <= known
    assert known - emitted == {
        "report.matrix_s", "report.figure9_s", "report.loss_s", "report.tunnel_s"
    }

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    ids = {span["id"] for span in spans}
    assert len(ids) == len(spans)
    for span in spans:
        assert span["parent"] is None or span["parent"] in ids
        assert span["end"] >= span["start"]
    roots = [span["name"] for span in spans if span["parent"] is None]
    assert roots == spec.workload_names(benchmark) + ["layers"]


def test_result_line_has_the_contract_keys(monkeypatch):
    """``run_once`` turns a child's answer into the object the contract asks for."""
    benchmark = spec.load()
    child = {
        "setup_s": 2.0, "wall_s": 9.0, "peak_rss_mb": 128.0,
        "throughput_mbps": 1.0, "delay_ms": 100.0, "attempted": 4,
        "failures": ["cell 3: no packet delivered"], "digest": "d", "environment": {},
        "layers": {"event_loop.events": 12.0},
    }
    monkeypatch.setattr("bench.__main__.run_child", lambda *args, **kwargs: dict(child))
    line = json.loads(contract_line(run_once(benchmark, "tcp_grid", 1, 10.0, trace=False)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 4, 1)
    assert set(line["metrics"]) == set(spec.metrics_by_name(benchmark, "end_to_end"))
    traced = json.loads(contract_line(run_once(benchmark, "tcp_grid", 1, 10.0, trace=True)))
    assert set(traced["metrics"]) == set(spec.metrics_by_name(benchmark, "per_layer"))
    assert traced["metrics"]["event_loop.events"] == {"value": 12.0, "unit": "count"}
    assert traced["metrics"]["transport.cpu_ms_per_mb"]["value"] == 0.0
