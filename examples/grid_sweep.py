#!/usr/bin/env python3
"""Grid sweep: a sigma × loss grid over one link, exported as tidy CSV,
followed by a per-flow queue-management grid (aqm × tunnelled).

This example shows the moving parts of the scenario-grid layer
(docs/scenarios.md):

1. declare an N-dimensional ``GridSpec`` (here: forecaster noise power
   sigma × Bernoulli loss rate, the Cartesian product of both axes),
2. run it through ``run_grid`` — one flattened batch of matrix cells,
   bit-identical to running every cell serially by hand,
3. export the result as tidy long-format CSV (``repro.experiments.exports``)
   and print the per-link throughput/delay frontier,
4. run a second grid over the queue-management axes (``aqm``: drop-tail
   vs CoDel, §5.4; ``tunnelled``: direct vs SproutTunnel, §5.7) with
   ``RunConfig(per_flow=True)``, so every cell also reports Skype's delay
   tail and Cubic's throughput per flow — the paper's headline three-way
   comparison in one frontier print-out.

Run it with::

    python examples/grid_sweep.py [--duration SECONDS] [--out grid.csv]

Set ``REPRO_SMOKE=1`` (as ``make docs-check`` does) to shrink both grids to
a seconds-long smoke configuration that skips the per-sigma model rebuild.
"""

from __future__ import annotations

import argparse
import os

from repro.experiments.exports import export_csv, write_export
from repro.experiments.runner import RunConfig
from repro.experiments.sweeps import GridSpec, render_grid_frontiers, run_grid

SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--duration", type=float, default=6.0 if SMOKE else 30.0,
        help="trace seconds to emulate per cell",
    )
    parser.add_argument(
        "--warmup", type=float, default=1.0 if SMOKE else 6.0,
        help="seconds excluded from metrics",
    )
    parser.add_argument("--link", default="Verizon LTE downlink")
    parser.add_argument("--out", help="also write the CSV export to this file")
    args = parser.parse_args()

    # Each non-default sigma builds its own rate model (tens of
    # milliseconds); the smoke grid stays at the paper's sigma=200, which
    # reuses the shared model.
    sigmas = (200.0,) if SMOKE else (140.0, 200.0, 280.0)
    losses = (0.0, 0.03)

    spec = GridSpec(
        parameters=("sigma", "loss"),
        values=(sigmas, losses),
        schemes=("Sprout",),
        links=(args.link,),
    )
    shape = " × ".join(str(n) for n in spec.shape)
    print(f"running a sigma × loss grid ({shape} points, "
          f"{args.duration:.0f} s per cell) on {args.link}...\n")

    data = run_grid(spec, config=RunConfig(duration=args.duration, warmup=args.warmup))

    print(render_grid_frontiers(data))
    if args.out:
        write_export(data, "csv", args.out)
        print(f"CSV export written to {args.out}")
    else:
        print("CSV export (tidy long format, docs/scenarios.md):\n")
        print(export_csv(data), end="")

    # ---- per-flow worked example: the queue-management grid (sec. 5.4/5.7)
    # aqm 0/1 toggles drop-tail vs CoDel at the carrier queue; tunnelled 0/1
    # shares the queue directly vs rides SproutTunnel.  per_flow=True adds
    # Skype's delay tail and Cubic's throughput to every cell, and the
    # frontier print-out gains a per-flow section per link.
    aqm_values = (0.0,) if SMOKE else (0.0, 1.0)
    aqm_spec = GridSpec(
        parameters=("aqm", "tunnelled"),
        values=(aqm_values, (0.0, 1.0)),
        schemes=("Sprout",),
        links=(args.link,),
    )
    shape = " × ".join(str(n) for n in aqm_spec.shape)
    print(f"\nrunning an aqm × tunnelled grid ({shape} points, per-flow) "
          f"on {args.link}...\n")
    aqm_data = run_grid(
        aqm_spec,
        config=RunConfig(
            duration=args.duration, warmup=args.warmup, per_flow=True
        ),
    )
    print(render_grid_frontiers(aqm_data))


if __name__ == "__main__":
    main()
