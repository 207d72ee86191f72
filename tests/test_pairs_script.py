"""``scripts/pairs.py`` on canned result lines: no benchmark run, no socket."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs_script", os.path.join(REPO_ROOT, "scripts", "pairs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _line(wall_s, failed=0, delay_ms=179.416):
    """One stdout result line of ``python3 -m bench --workload ...``."""
    values = {
        "setup_s": (0.5, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (150.0, "MB"),
        "throughput_mbps": (0.37821, "Mbit/s"),
        "delay_ms": (delay_ms, "ms"),
    }
    return json.dumps(
        {
            "correct": not failed,
            "attempted": 64,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
        }
    )


PARENT_WALL = [12.91, 12.70, 12.53, 13.38, 11.78, 12.23, 12.13, 11.75, 11.53, 11.01]


def _report(pairs, contract, change_wall, **kwargs):
    parent = [json.loads(_line(w)) for w in PARENT_WALL]
    change = [json.loads(_line(w, **kwargs)) for w in change_wall]
    return pairs.summarise(parent, change, contract)


def _row(report, metric):
    return next(line for line in report.splitlines() if line.startswith(metric + " "))


def test_gain_needs_nine_tenths_of_pairs_and_more_than_the_parents_quartiles(pairs, contract):
    faster = [10.21, 10.34, 9.10, 9.87, 9.09, 10.09, 9.66, 8.81, 9.00, 8.25]
    report = _report(pairs, contract, faster)
    assert _row(report, "wall_s").endswith("change better in 10/10 -> gain")
    assert "parent median 12.18" in report and "change median 9.38" in report
    # Metrics that did not move are ties in every pair: no gain, none lost.
    assert _row(report, "peak_rss_mb").endswith("change better in 0/10 -> within-bound")
    assert "ops failed / attempted, change: 0 / 640" in report
    assert "delay_ms repeats exactly across all runs: yes" in report
    # Eight wins of ten is not enough, however far apart the medians are.
    mixed = faster[:8] + [13.0, 13.0]
    assert "8/10 -> within-bound" in _row(_report(pairs, contract, mixed), "wall_s")
    # Ten wins by less than the parent's quartile distance is not a gain either.
    barely = [w - 0.05 for w in PARENT_WALL]
    assert "10/10 -> within-bound" in _row(_report(pairs, contract, barely), "wall_s")


def test_worse_than_bound_unresolved_and_failed_operations(pairs, contract):
    slower = [w * 1.5 for w in PARENT_WALL]
    report = _report(pairs, contract, slower, failed=1, delay_ms=180.0)
    assert _row(report, "wall_s").endswith("0/10 -> worse-than-bound")
    assert "ops failed / attempted, change: 10 / 640" in report
    assert "delay_ms repeats exactly across all runs: no (2 distinct values)" in report
    # peak_rss_mb's bound is 5 %: sides that overlap with a wider spread of
    # their own cannot tell unchanged from worse.
    parent = [json.loads(_line(12.0)) for _ in range(4)]
    change = [json.loads(_line(12.0)) for _ in range(4)]
    for runs, values in ((parent, (140, 150, 160, 170)), (change, (150, 145, 175, 165))):
        for run, value in zip(runs, values):
            run["metrics"]["peak_rss_mb"]["value"] = float(value)
    assert "-> unresolved" in _row(pairs.summarise(parent, change, contract), "peak_rss_mb")


def test_higher_is_better_metrics_count_wins_the_other_way(pairs):
    assert pairs.verdict([40.0] * 10, [50.0] * 10, "higher", 0.15) == (10, "gain")
    assert pairs.verdict([40.0] * 10, [30.0] * 10, "higher", 0.15) == (0, "worse-than-bound")
    assert pairs.verdict([40.0] * 10, [50.0] * 10, "lower", 0.25) == (0, "within-bound")
