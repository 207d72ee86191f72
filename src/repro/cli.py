"""Command-line interface: ``python -m repro <command>`` / ``repro-sprout``.

Commands:

* ``run``        — run one scheme over one link and print its metrics
* ``figure``     — regenerate one of the paper's figures (1, 2, 7, 8, 9)
* ``table``      — regenerate one of the paper's tables (intro, ewma, loss, tunnel)
* ``report``     — run the full reproduction and print/write the report
* ``sweep``      — run a scenario grid over the matrix: one ``--param`` is a
  classic single-parameter sweep, several ``--param`` flags form the
  Cartesian product (e.g. a sigma × loss grid); axes include loss, sigma,
  tick, outage, scale, flows, tunnelled, aqm, qlimit, codel_target, and
  codel_interval, and results can be exported as tidy CSV or structured
  JSON (``--export``, docs/scenarios.md).  Each distinct swept model
  parameter set is built on demand, in tens of milliseconds, at most
  once per process (docs/performance.md)
* ``live``       — run sized transfers over the real-socket loopback
  transport (``repro.transport``, docs/transport.md): Sprout over actual
  UDP datagrams with selective repeat and adaptive RTO, reporting
  throughput and per-packet delay percentiles; results export through the
  same CSV/JSON export stack as simulated sweeps
* ``trace``      — generate a synthetic delivery trace file for a modelled link
* ``list``       — list the available schemes, links, and sweep/grid axes
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.experiments.analytic import render_divergences, validate_grid
from repro.experiments.competing import render_competing
from repro.experiments.figure1 import render_figure1, run_figure1
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.figure7 import render_figure7, run_figure7
from repro.experiments.figure8 import render_figure8, run_figure8
from repro.experiments.figure9 import render_figure9, run_figure9
from repro.experiments.policy import ErrorPolicy
from repro.experiments.registry import scheme_names
from repro.experiments.report import ReportConfig, generate_report
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.parallel import shared_pool
from repro.experiments.exports import export_text, write_export
from repro.experiments.sweeps import (
    GridSpec,
    expand_grid,
    get_sweep_parameter,
    render_grid,
    render_grid_frontiers,
    run_grid,
    sweep_parameter_names,
)
from repro.experiments.tables import (
    ewma_table,
    intro_table,
    loss_table,
    render_ewma_table,
    render_intro_table,
    render_loss_table,
    tunnel_table,
)
from repro.traces.format import write_trace
from repro.traces.networks import get_link, link_names, link_trace


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (exit 2 + usage on bad input)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _probability(text: str) -> float:
    """argparse type: a probability in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"expected a probability in [0, 1), got {text}")
    return value


def _impair_spec(text: str) -> str:
    """argparse type: validate an --impair spec string at parse time."""
    from repro.transport.impair import ImpairSpecError, parse_impair_spec

    try:
        parse_impair_spec(text)
    except ImpairSpecError as error:
        raise argparse.ArgumentTypeError(str(error))
    return text


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=60.0, help="trace seconds to emulate")
    parser.add_argument("--warmup", type=float, default=10.0, help="seconds excluded from metrics")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=os.cpu_count(),
        help="worker processes for every command that runs more than one "
        "emulation (1 = serial; results are identical regardless)",
    )


class _UsageError(Exception):
    """A bad argument combination argparse cannot see: message + exit 2."""


def _run_config(args: argparse.Namespace) -> RunConfig:
    try:
        return RunConfig(
            duration=args.duration,
            warmup=args.warmup,
            per_flow=getattr(args, "per_flow", False),
        )
    except ValueError as error:
        raise _UsageError(str(error)) from None


def _cmd_run(args: argparse.Namespace) -> int:
    result = run_scheme_on_link(args.scheme, args.link, _run_config(args))
    print(f"scheme:               {result.scheme}")
    print(f"link:                 {result.link}")
    print(f"throughput:           {result.throughput_kbps:.0f} kbps")
    print(f"self-inflicted delay: {result.self_inflicted_delay_ms:.0f} ms")
    print(f"utilization:          {100 * result.utilization:.1f} %")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if args.number == 1:
        print(render_figure1(run_figure1(duration=args.duration, jobs=args.jobs)))
    elif args.number == 2:
        print(render_figure2(run_figure2(duration=max(args.duration, 120.0))))
    elif args.number == 7:
        print(render_figure7(run_figure7(config=config, jobs=args.jobs)))
    elif args.number == 8:
        print(render_figure8(run_figure8(config=config, jobs=args.jobs)))
    elif args.number == 9:
        print(render_figure9(run_figure9(config=config, jobs=args.jobs)))
    else:
        print(f"no such figure: {args.number} (valid: 1, 2, 7, 8, 9)", file=sys.stderr)
        return 2
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    config = _run_config(args)
    if args.name == "intro":
        print(render_intro_table(intro_table(config=config, jobs=args.jobs)))
    elif args.name == "ewma":
        print(render_ewma_table(ewma_table(config=config, jobs=args.jobs)))
    elif args.name == "loss":
        print(render_loss_table(loss_table(config=config, jobs=args.jobs)))
    elif args.name == "tunnel":
        print(
            render_competing(
                tunnel_table(duration=args.duration, warmup=args.warmup, jobs=args.jobs)
            )
        )
    else:
        print(f"no such table: {args.name}", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    run = _run_config(args)
    config = ReportConfig(duration=run.duration, warmup=run.warmup, jobs=args.jobs)
    report = generate_report(config)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(report)
        print(f"report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params: List[str] = args.param or []
    values: List[List[float]] = args.values or []
    if not params:
        print("sweep requires at least one --param", file=sys.stderr)
        return 2
    if len(params) != len(values):
        print(
            f"got {len(params)} --param but {len(values)} --values; "
            "each --param needs its own --values list",
            file=sys.stderr,
        )
        return 2
    if args.out and not args.export:
        print("--out requires --export (csv or json)", file=sys.stderr)
        return 2
    if args.tolerance is not None:
        if not args.validate:
            print("--tolerance requires --validate", file=sys.stderr)
            return 2
        if not 0.0 < args.tolerance < float("inf"):
            print(
                f"--tolerance must be a positive finite number, got {args.tolerance}",
                file=sys.stderr,
            )
            return 2
    if args.retries and args.on_error == "fail_fast":
        print(
            "--retries requires --on-error collect or retry "
            "(fail_fast aborts on the first failure)",
            file=sys.stderr,
        )
        return 2
    links = tuple(args.links) if args.links else ()
    config = _run_config(args)
    try:
        policy = ErrorPolicy(
            on_error=args.on_error,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            checkpoint=args.checkpoint,
        )
        # Several --param flags form ONE grid: the Cartesian product of the
        # axes, every point measuring the schemes × links matrix.
        spec = GridSpec(
            parameters=tuple(params),
            values=tuple(tuple(value_list) for value_list in values),
            schemes=tuple(args.schemes),
            links=links,
        )
        # Validate the full expansion up front (it is cheap) so a bad value
        # in a late axis cannot waste the minutes of emulation before it.
        expand_grid(spec, config)
    except ValueError as error:
        # Expander rejections (loss outside [0,1), sigma on a non-Sprout
        # scheme, ...) and bad policy knobs are user errors, not tracebacks.
        print(f"sweep error: {error}", file=sys.stderr)
        return 2
    # The batched backend runs in-process; don't stand up a worker pool
    # that would never receive a cell.
    with shared_pool(args.jobs if args.backend == "processes" else None):
        data = run_grid(
            spec,
            config=config,
            jobs=args.jobs,
            policy=policy,
            backend=args.backend,
        )
    print(render_grid(data))
    if len(spec.parameters) > 1 or args.per_flow:
        print(render_grid_frontiers(data))
    if args.export:
        if args.out:
            write_export(data, args.export, args.out)
            print(f"{args.export} export written to {args.out}")
        else:
            print(export_text(data, args.export), end="")
    exit_code = 0
    failed = len(data.errors)
    if failed:
        total = sum(len(point.results) for point in data.points)
        print(
            f"warning: {failed} of {total} cells failed "
            "(see the FAILED lines above; docs/robustness.md)",
            file=sys.stderr,
        )
        if failed == total:
            # Under --on-error collect/retry a fully-failed grid still
            # renders and exports (every row a FAILED line), but reporting
            # success for a run that measured nothing would let CI green-
            # light an all-red grid.
            print(
                "error: every cell failed; no measurements were produced",
                file=sys.stderr,
            )
            exit_code = 1
    if args.validate:
        divergences = validate_grid(data, config, tolerance=args.tolerance)
        print(render_divergences(divergences))
        if divergences:
            # The differential oracle is a CI gate: divergence is a failure.
            exit_code = 1
    return exit_code


def _cmd_live(args: argparse.Namespace) -> int:
    # Imported lazily: the transport stack is only needed by this command,
    # and keeping it out of module import keeps `repro list` etc. light.
    from repro.transport import LiveConfig, run_live_suite, sockets_available
    from repro.transport.harness import render_live_results

    if args.out and not args.export:
        print("--out requires --export (csv or json)", file=sys.stderr)
        return 2
    try:
        config = LiveConfig(
            transfer_bytes=args.bytes,
            repeats=args.repeats,
            loss_rate=args.loss,
            deadline=args.deadline,
            ewma=args.ewma,
            impair=args.impair,
            impair_seed=args.impair_seed,
            watchdog=args.watchdog,
        )
    except ValueError as error:
        print(f"live error: {error}", file=sys.stderr)
        return 2
    if not sockets_available():
        print(
            "live error: loopback UDP sockets are unavailable in this "
            "environment (docs/transport.md)",
            file=sys.stderr,
        )
        return 2
    grid, results = run_live_suite(config)
    print(render_live_results(results))
    print(render_grid(grid))
    if args.export:
        if args.out:
            write_export(grid, args.export, args.out)
            print(f"{args.export} export written to {args.out}")
        else:
            print(export_text(grid, args.export), end="")
    incomplete = [r for r in results if not r.completed]
    if incomplete:
        aborted = sum(1 for r in incomplete if r.failure)
        detail = (
            f"{aborted} aborted with a diagnosis, "
            f"{len(incomplete) - aborted} ran out the deadline"
            if aborted
            else "unacked packets remained at the deadline"
        )
        print(
            f"error: {len(incomplete)} of {len(results)} transfer(s) did not "
            f"complete ({detail})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    link = get_link(args.link)
    trace = link_trace(link, args.duration)
    write_trace(args.output, trace)
    print(f"wrote {len(trace)} delivery opportunities ({args.duration:.0f} s of "
          f"{link.name}) to {args.output}")
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    del args
    print("schemes:")
    for name in scheme_names():
        print(f"  {name}")
    print("links:")
    for name in link_names():
        print(f"  {name}")
    print("sweep parameters:")
    for name in sweep_parameter_names():
        print(f"  {name} — {get_sweep_parameter(name).description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sprout",
        description="Reproduction of Sprout (NSDI 2013): run schemes over emulated "
        "cellular links and regenerate the paper's figures and tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scheme over one link")
    run_parser.add_argument("scheme", choices=scheme_names())
    run_parser.add_argument("link", choices=link_names())
    _add_run_options(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    figure_parser = sub.add_parser("figure", help="regenerate a figure (1, 2, 7, 8, 9)")
    figure_parser.add_argument("number", type=int)
    _add_run_options(figure_parser)
    figure_parser.set_defaults(func=_cmd_figure)

    table_parser = sub.add_parser("table", help="regenerate a table")
    table_parser.add_argument("name", choices=["intro", "ewma", "loss", "tunnel"])
    _add_run_options(table_parser)
    table_parser.set_defaults(func=_cmd_table)

    report_parser = sub.add_parser("report", help="run the full reproduction")
    _add_run_options(report_parser)
    report_parser.add_argument("--output", "-o", help="write the report to this file")
    report_parser.set_defaults(func=_cmd_report)

    sweep_parser = sub.add_parser(
        "sweep", help="run a scenario grid (1-D sweep or N-D Cartesian product)"
    )
    sweep_parser.add_argument(
        "--param",
        action="append",
        choices=sweep_parameter_names(),
        help="axis to sweep; repeating adds grid dimensions (two --param "
        "flags form a 2-D grid over the axes' Cartesian product)",
    )
    sweep_parser.add_argument(
        "--values",
        action="append",
        nargs="+",
        type=float,
        metavar="VALUE",
        help="values for the preceding --param",
    )
    sweep_parser.add_argument(
        "--per-flow",
        action="store_true",
        dest="per_flow",
        help="collect per-client-flow metrics (Skype delay vs Cubic "
        "throughput, sec. 5.7) on cells with multiplexed flows; adds "
        "per-flow frontier sections and flow_id columns to exports",
    )
    sweep_parser.add_argument(
        "--export",
        choices=["csv", "json"],
        help="also emit the grid as tidy CSV or structured JSON "
        "(schema in docs/scenarios.md)",
    )
    sweep_parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the --export payload to this file instead of stdout",
    )
    sweep_parser.add_argument(
        "--schemes",
        nargs="+",
        default=["Sprout"],
        choices=scheme_names(),
        metavar="SCHEME",
        help="schemes to measure at every swept value (default: Sprout)",
    )
    sweep_parser.add_argument(
        "--links",
        nargs="+",
        choices=link_names(),
        metavar="LINK",
        help="links to measure on (default: all eight)",
    )
    sweep_parser.add_argument(
        "--on-error",
        choices=["fail_fast", "collect", "retry"],
        default="fail_fast",
        dest="on_error",
        help="what a failing cell does to the grid: fail_fast aborts the "
        "whole run (default), collect records the failure and keeps going, "
        "retry re-runs the cell --retries times before recording it "
        "(docs/robustness.md)",
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run a failing cell up to N extra times before recording "
        "the failure (needs --on-error collect or retry)",
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        dest="cell_timeout",
        help="wall-clock budget per cell when running on a worker pool; an "
        "overrunning worker is killed and the cell retried or recorded as "
        "failed per --on-error",
    )
    sweep_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="journal completed cells to PATH (JSONL) and, when re-run with "
        "the same PATH, skip cells already completed there",
    )
    sweep_parser.add_argument(
        "--validate",
        action="store_true",
        help="differential validation: after the run, compare simulated "
        "Reno/Cubic throughput against the analytic prediction and report "
        "divergences beyond the calibrated tolerance; exits 1 on any "
        "divergence (docs/analytic.md)",
    )
    sweep_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRACTION",
        help="relative-error tolerance for --validate, positive and finite "
        "(default: the calibrated ORACLE_TOLERANCE, docs/analytic.md)",
    )
    sweep_parser.add_argument(
        "--backend",
        choices=["processes", "batched"],
        default="processes",
        help="cell execution engine: worker processes (default) or the "
        "in-process batched cross-cell engine, which vectorizes the Sprout "
        "forecaster across cells (bit-identical results; "
        "docs/performance.md)",
    )
    _add_run_options(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    live_parser = sub.add_parser(
        "live",
        help="run sized transfers over the real-socket loopback transport "
        "(docs/transport.md)",
    )
    live_parser.add_argument(
        "--bytes",
        type=_positive_int,
        default=256 * 1024,
        help="payload bytes per transfer (default %(default)s)",
    )
    live_parser.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        help="how many transfers to run (default %(default)s)",
    )
    live_parser.add_argument(
        "--loss",
        type=_probability,
        default=0.0,
        metavar="PROBABILITY",
        help="sender-side datagram-loss probability in [0, 1): shorthand for "
        "a 'loss:p=PROBABILITY,dir=up' stage ahead of --impair, seeded by "
        "--impair-seed (selective repeat must recover everything; "
        "default %(default)s)",
    )
    live_parser.add_argument(
        "--deadline",
        type=_positive_float,
        default=30.0,
        metavar="SECONDS",
        help="wall-clock budget per transfer (default %(default)s)",
    )
    live_parser.add_argument(
        "--impair",
        type=_impair_spec,
        default="",
        metavar="SPEC",
        help="adversarial impairment pipeline applied at the socket "
        "boundary, e.g. 'ge:p=0.05,burst=8;reorder:p=0.02;"
        "blackout:at=2s,len=1.5s' (stage table in docs/transport.md)",
    )
    live_parser.add_argument(
        "--impair-seed",
        type=int,
        default=0,
        dest="impair_seed",
        help="seed of the deterministic impairment draws (default %(default)s)",
    )
    live_parser.add_argument(
        "--watchdog",
        type=float,
        default=None,
        metavar="SECONDS",
        help="peer-inactivity abort interval; default derives from "
        "--deadline, 0 disables the watchdog",
    )
    live_parser.add_argument(
        "--ewma",
        action="store_true",
        help="use the Sprout-EWMA forecaster instead of the Bayesian one",
    )
    live_parser.add_argument(
        "--export",
        choices=["csv", "json"],
        help="also emit the results as CSV or JSON (same stack "
        "as `repro sweep`)",
    )
    live_parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the --export payload to this file instead of stdout",
    )
    live_parser.set_defaults(func=_cmd_live)

    trace_parser = sub.add_parser("trace", help="write a synthetic trace file")
    trace_parser.add_argument("link", choices=link_names())
    trace_parser.add_argument("output")
    trace_parser.add_argument("--duration", type=float, default=120.0)
    trace_parser.set_defaults(func=_cmd_trace)

    list_parser = sub.add_parser(
        "list", help="list schemes, links, and sweep/grid axes"
    )
    list_parser.set_defaults(func=_cmd_list)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as error:
        print(f"{args.command} error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
