"""Result records and cross-link aggregation.

Every experiment run produces a :class:`SchemeResult`; the table generators
aggregate them the way the paper's introduction does — the *average relative*
throughput gain and delay reduction of Sprout over each other scheme, taken
over all measured links — and Figure 8 style averages of utilization and
self-inflicted delay.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.metrics.flows import EXPORTED_FLOW_FIELDS, FlowMetrics


@dataclass
class SchemeResult:
    """Metrics of one scheme over one emulated link.

    ``flows`` is the optional per-flow breakdown (Section 5.7: each client
    flow's throughput and delay tail), populated when the run was collected
    with ``RunConfig(per_flow=True)`` and the receiving endpoint kept
    per-flow logs; ``None`` otherwise, and omitted from :meth:`as_dict` so
    aggregate-only results serialise exactly as before.
    """

    scheme: str
    link: str
    throughput_bps: float
    delay_95_s: float
    self_inflicted_delay_s: float
    utilization: float
    capacity_bps: float = 0.0
    omniscient_delay_95_s: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    flows: Optional[List[FlowMetrics]] = None

    @property
    def throughput_kbps(self) -> float:
        return self.throughput_bps / 1000.0

    @property
    def self_inflicted_delay_ms(self) -> float:
        return self.self_inflicted_delay_s * 1000.0

    def as_dict(self) -> dict:
        data = asdict(self)
        if self.flows is None:
            del data["flows"]
        else:
            # Flow dicts carry the downlink fields only: the diagnostic
            # uplink counters stay out of the (v3) export schema, so the
            # serialised shape is stable whether or not a sender-side mux
            # log was available to count the feedback direction.
            data["flows"] = [
                {key: flow[key] for key in EXPORTED_FLOW_FIELDS}
                for flow in data["flows"]
            ]
        data["throughput_kbps"] = self.throughput_kbps
        data["self_inflicted_delay_ms"] = self.self_inflicted_delay_ms
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SchemeResult":
        """Rebuild a result from :meth:`as_dict` output.

        Derived keys (``throughput_kbps``, ``self_inflicted_delay_ms``) and
        anything unknown are ignored; ``flows`` dicts are rehydrated into
        :class:`~repro.metrics.flows.FlowMetrics`.
        """
        known = {f.name for f in fields(cls)}
        payload = {k: v for k, v in data.items() if k in known}
        flows = payload.get("flows")
        if flows is not None:
            payload["flows"] = [
                flow if isinstance(flow, FlowMetrics) else FlowMetrics(**flow)
                for flow in flows
            ]
        return cls(**payload)


@dataclass
class RelativeComparison:
    """Average relative performance of a reference scheme vs. another scheme.

    ``speedup`` is how many times more throughput the *reference* achieved
    than the other scheme (the paper's "Avg. speedup vs Sprout" column reads
    the other way round: a value of 2.2 next to Skype means Sprout carried
    2.2x Skype's bit rate).  ``delay_reduction`` likewise is how many times
    larger the other scheme's self-inflicted delay is than the reference's.
    """

    scheme: str
    reference: str
    speedup: float
    delay_reduction: float
    mean_delay_s: float
    mean_throughput_bps: float


def _by_scheme(results: Iterable[SchemeResult]) -> Dict[str, Dict[str, SchemeResult]]:
    """Index results as scheme -> link -> result."""
    table: Dict[str, Dict[str, SchemeResult]] = {}
    for result in results:
        table.setdefault(result.scheme, {})[result.link] = result
    return table


def relative_to_reference(
    results: Iterable[SchemeResult],
    reference: str,
    floor_delay_s: float = 0.001,
) -> List[RelativeComparison]:
    """The introduction-table comparison: every scheme vs. the reference.

    For each link where both the scheme and the reference were measured, the
    per-link throughput ratio (reference / scheme) and self-inflicted-delay
    ratio (scheme / reference) are computed; the reported numbers are the
    averages of those per-link ratios, which mirrors the paper's "averaged
    over all four cellular networks in both directions".

    Args:
        results: all measured results.
        reference: scheme name the comparison is relative to (e.g. "Sprout").
        floor_delay_s: delays are floored at this value before forming
            ratios so that a near-zero denominator cannot blow up the ratio.
    """
    table = _by_scheme(results)
    if reference not in table:
        raise KeyError(f"no results for reference scheme {reference!r}")
    reference_results = table[reference]

    comparisons: List[RelativeComparison] = []
    for scheme, by_link in sorted(table.items()):
        speedups: List[float] = []
        delay_ratios: List[float] = []
        delays: List[float] = []
        throughputs: List[float] = []
        for link, result in by_link.items():
            ref = reference_results.get(link)
            if ref is None:
                continue
            if result.throughput_bps > 0:
                speedups.append(ref.throughput_bps / result.throughput_bps)
            ref_delay = max(ref.self_inflicted_delay_s, floor_delay_s)
            scheme_delay = max(result.self_inflicted_delay_s, floor_delay_s)
            delay_ratios.append(scheme_delay / ref_delay)
            delays.append(result.self_inflicted_delay_s)
            throughputs.append(result.throughput_bps)
        if not delays:
            continue
        comparisons.append(
            RelativeComparison(
                scheme=scheme,
                reference=reference,
                speedup=float(np.mean(speedups)) if speedups else float("nan"),
                delay_reduction=float(np.mean(delay_ratios)),
                mean_delay_s=float(np.mean(delays)),
                mean_throughput_bps=float(np.mean(throughputs)),
            )
        )
    return comparisons


def average_by_scheme(results: Iterable[SchemeResult]) -> Dict[str, Dict[str, float]]:
    """Figure 8-style averages: mean utilization and delay per scheme."""
    table = _by_scheme(results)
    averages: Dict[str, Dict[str, float]] = {}
    for scheme, by_link in table.items():
        values = list(by_link.values())
        averages[scheme] = {
            "mean_utilization": float(np.mean([r.utilization for r in values])),
            "mean_self_inflicted_delay_s": float(
                np.mean([r.self_inflicted_delay_s for r in values])
            ),
            "mean_throughput_bps": float(np.mean([r.throughput_bps for r in values])),
            "links": float(len(values)),
        }
    return averages


def format_results_table(results: Iterable[SchemeResult]) -> str:
    """Human-readable fixed-width table of per-link results."""
    rows = sorted(results, key=lambda r: (r.link, r.scheme))
    header = (
        f"{'link':34s} {'scheme':16s} {'tput kbps':>10s} "
        f"{'delay ms':>10s} {'util %':>8s}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.link:34s} {r.scheme:16s} {r.throughput_kbps:10.0f} "
            f"{r.self_inflicted_delay_ms:10.0f} {100 * r.utilization:8.1f}"
        )
    return "\n".join(lines)
