#!/usr/bin/env python
"""Alternating parent/change runs of one benchmark workload, with the verdict.

What a PR that claims (or denies) a speed change has to show, as one command
(``make pairs PARENT=../parent W=sprout_grid SEED=7 N=10``)::

    python scripts/pairs.py --parent ../parent --workload sprout_grid --seed 7 --pairs 10

``--parent`` is any checkout of the parent commit (a ``git worktree`` or a
clone); the change is the checkout this script sits in.  Each pair runs the
command ``BENCHMARK.json`` declares, once per side, the side that goes first
alternating from pair to pair.  Then, per end-to-end metric: both sides'
samples, median and quartiles, in how many pairs the change read better, and
a verdict by the rule of the choosing-metrics guide, section 8:

``gain``
    the change is better in at least nine tenths of all pairs (ties count
    for neither side) and the medians are further apart than the parent's
    own quartiles;
``worse-than-bound``
    the change's median is worse than the parent's by more than the bound
    ``BENCHMARK.json`` fixes for the metric;
``unresolved``
    a side's own quartile distance is wider than the bound and the two
    sides' runs overlap, so these runs cannot tell unchanged from worse;
``within-bound``
    none of the above: no gain shown, none lost.

It also prints operations failed / attempted per side and whether
``throughput_mbps`` and ``delay_ms`` repeat exactly across every run (on the
simulated workloads they must).  Metric names, directions, bounds, the
command and the run length all come from ``BENCHMARK.json``; nothing is
imported from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: metrics the simulated workloads compute from the seed alone
SIMULATED = ("throughput_mbps", "delay_ms")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a lone value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> Tuple[int, str]:
    """(pairs in which the change read better, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * b < sign * a for a, b in zip(parent, change))
    low, median_parent, high = quartiles(parent)
    change_low, median_change, change_high = quartiles(change)
    gained = sign * (median_parent - median_change)
    if 10 * wins >= 9 * len(parent) and gained > high - low:
        return wins, "gain"
    scale = abs(median_parent) or 1.0
    spread = max(high - low, change_high - change_low) / scale
    overlap = not (
        max(sign * b for b in change) < min(sign * a for a in parent)
        or max(sign * a for a in parent) < min(sign * b for b in change)
    )
    if spread > bound and overlap:
        return wins, "unresolved"
    return wins, "worse-than-bound" if -gained / scale > bound else "within-bound"


def summarise(parent: List[dict], change: List[dict], benchmark: dict) -> str:
    """The report for two equally long lists of parsed result lines."""
    lines = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        sides = [[run["metrics"][name]["value"] for run in runs] for runs in (parent, change)]
        wins, word = verdict(sides[0], sides[1], metric["better"], metric["bound"])
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better, bound "
            f"{100 * metric['bound']:g} %): change better in {wins}/{len(parent)} -> {word}"
        )
        for label, values in zip(("parent", "change"), sides):
            low, mid, high = quartiles(values)
            samples = " ".join(f"{value:.6g}" for value in values)
            lines.append(f"  {label} median {mid:.6g} [q1 {low:.6g}, q3 {high:.6g}]  {samples}")
    for label, runs in (("parent", parent), ("change", change)):
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        lines.append(f"ops failed / attempted, {label}: {failed} / {attempted}")
    for name in SIMULATED:
        values = {run["metrics"][name]["value"] for run in parent + change}
        repeats = "yes" if len(values) == 1 else f"no ({len(values)} distinct values)"
        lines.append(f"{name} repeats exactly across all runs: {repeats}")
    return "\n".join(lines)


def run_bench(checkout: str, benchmark: dict, workload: str, seed: int) -> dict:
    """One run of ``BENCHMARK.json``'s command in ``checkout``: its parsed result line."""
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"pairs: no result from {' '.join(command)} in {checkout} (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="a checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    checkouts = {"parent": os.path.abspath(args.parent), "change": REPO_ROOT}
    for pair in range(args.pairs):
        for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
            run = run_bench(checkouts[side], benchmark, args.workload, args.seed)
            runs[side].append(run)
            values = "  ".join(f"{k} {v['value']:.6g}" for k, v in run["metrics"].items())
            print(f"pair {pair + 1}/{args.pairs} {side}: {values}", file=sys.stderr, flush=True)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} alternating pairs")
    print(summarise(runs["parent"], runs["change"], benchmark))
    return 0


if __name__ == "__main__":
    sys.exit(main())
