"""Benchmark: regenerate the Section 5.7 table (a Cubic bulk download and a
Skype call over the Verizon LTE downlink, run directly vs through
SproutTunnel).

Paper reference points: running both flows through SproutTunnel cuts
Skype's 95% delay by an order of magnitude (6.0 s -> 0.17 s, -97%) and
raises its throughput, while Cubic loses roughly half of its throughput
(-55%) because the tunnel's forecast-bounded queue stops it from filling
the carrier buffer.
"""

from __future__ import annotations

import os

from repro.experiments.competing import render_competing
from repro.experiments.tables import tunnel_table

BENCH_DURATION = float(os.environ.get("REPRO_BENCH_DURATION", "60"))


def test_bench_table_tunnel(benchmark):
    comparison = benchmark.pedantic(
        lambda: tunnel_table(duration=BENCH_DURATION, warmup=min(10.0, BENCH_DURATION / 4)),
        rounds=1,
        iterations=1,
    )
    print()
    print(render_competing(comparison))

    direct = comparison.direct.flows
    tunnelled = comparison.tunnelled.flows

    # Skype's delay collapses once tunnelled.
    assert tunnelled["skype"].delay_95_s < 0.5 * direct["skype"].delay_95_s
    # Cubic pays a substantial throughput penalty.
    assert tunnelled["cubic"].throughput_bps < direct["cubic"].throughput_bps
