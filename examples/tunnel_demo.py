#!/usr/bin/env python3
"""SproutTunnel demo: isolate a Skype call from a competing bulk download.

Reproduces the Section 5.7 experiment: a TCP Cubic bulk transfer and a
Skype call share a Verizon LTE downlink, first directly (both flows pile
into the same deep carrier queue) and then through SproutTunnel (per-flow
queues at the tunnel ingress, total queue bounded by Sprout's forecast).

Run it with::

    python examples/tunnel_demo.py [--duration SECONDS]
"""

from __future__ import annotations

import argparse
import os

from repro.experiments.competing import render_competing, run_competing_comparison

# make docs-check runs every example with REPRO_SMOKE=1: same code path,
# seconds-long defaults
SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--link", default="Verizon LTE downlink")
    parser.add_argument("--duration", type=float, default=10.0 if SMOKE else 60.0)
    parser.add_argument("--warmup", type=float, default=2.0 if SMOKE else 10.0)
    args = parser.parse_args()

    print(f"Running Cubic + Skype over {args.link}, directly and through "
          f"SproutTunnel ({args.duration:.0f} s each)...\n")
    comparison = run_competing_comparison(
        args.link, duration=args.duration, warmup=args.warmup
    )
    print(render_competing(comparison))
    print()
    skype_change = comparison.change_percent("skype", "delay_95_s")
    print(f"Skype 95% delay change through the tunnel: {skype_change:+.0f}% "
          "(the paper reports -97%)")


if __name__ == "__main__":
    main()
