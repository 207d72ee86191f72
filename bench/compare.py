"""Compare two full-suite documents: ``python3 -m bench.compare A.json B.json``.

``A`` is the parent, ``B`` the change; both come from
``python3 -m bench --out``.  For every (workload, end-to-end metric) it prints
both medians with their quartiles, how much worse ``B`` reads as a share of
``A``'s median, the metric's bound, and a verdict:

``ok``
    ``B``'s median is not worse than ``A``'s by more than the bound.
``regressed``
    it is worse by more than the bound.
``unresolved``
    the spread of either side's own runs (quartile distance over median) is
    wider than the bound and the two sides' runs overlap, so the runs cannot
    tell "unchanged" from "worse"; more runs are needed.

Exits non-zero on any ``regressed`` row or when ``B`` fails a larger share of
its operations than ``A``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Sequence

from bench import spec


def quartiles(values: Sequence[float]) -> List[float]:
    """[first quartile, median, third quartile]; a lone value is all three."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _spread(values: Sequence[float]) -> float:
    low, mid, high = quartiles(values)
    return (high - low) / abs(mid) if mid else 0.0


def verdict(a: List[float], b: List[float], better: str, bound: float) -> tuple:
    """(share by which ``b`` is worse than ``a``, verdict)."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    # Every run of one side reads better than every run of the other.
    apart = max(sign * x for x in b) < min(sign * x for x in a) or max(
        sign * x for x in a
    ) < min(sign * x for x in b)
    if max(_spread(a), _spread(b)) > bound and not apart:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def failed_share(workload: dict) -> float:
    return workload["ops_failed"] / max(workload["ops_attempted"], 1)


def compare(a: dict, b: dict, benchmark: dict) -> int:
    metrics = spec.metrics_by_name(benchmark, "end_to_end")
    bad = 0
    print(f"{'workload':12s} {'metric':16s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
          f"{'worse':>8s} {'bound':>6s}  verdict")
    for name in spec.workload_names(benchmark):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric, meta in metrics.items():
            runs_a, runs_b = side_a["samples"][metric], side_b["samples"][metric]
            worse, word = verdict(runs_a, runs_b, meta["better"], meta["bound"])
            bad += word == "regressed"
            cells = []
            for runs in (runs_a, runs_b):
                low, mid, high = quartiles(runs)
                cells.append(f"{mid:12.5g} [{low:.5g}, {high:.5g}]")
            print(f"{name:12s} {metric:16s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{100 * worse:+7.2f}% {100 * meta['bound']:5.1f}%  {word}")
        if failed_share(side_b) > failed_share(side_a):
            bad += 1
            print(f"{name:12s} failed operations: {side_a['ops_failed']}/{side_a['ops_attempted']} -> "
                  f"{side_b['ops_failed']}/{side_b['ops_attempted']}  regressed")
    return 1 if bad else 0


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.loads(handle.read().splitlines()[-1]))
    return compare(documents[0], documents[1], spec.load())


if __name__ == "__main__":
    sys.exit(main())
