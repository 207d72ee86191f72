"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.traces.format import read_trace


def test_parser_knows_all_commands():
    parser = build_parser()
    for command in ("run", "figure", "table", "report", "sweep", "trace", "list", "live"):
        args = parser.parse_args([command] + _minimal_args(command))
        assert args.command == command


def _minimal_args(command):
    return {
        "run": ["Sprout", "Verizon LTE downlink"],
        "figure": ["1"],
        "table": ["intro"],
        "report": [],
        "sweep": ["--param", "loss", "--values", "0", "0.01"],
        "trace": ["Verizon LTE downlink", "/tmp/ignored.txt"],
        "list": [],
        "live": [],
    }[command]


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "Sprout" in out
    assert "Verizon LTE downlink" in out


def test_run_command_prints_metrics(capsys):
    code = main(["run", "Vegas", "AT&T LTE uplink", "--duration", "12", "--warmup", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "self-inflicted delay" in out


def test_trace_command_writes_file(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    code = main(["trace", "AT&T LTE uplink", str(path), "--duration", "10"])
    assert code == 0
    trace = read_trace(path)
    assert len(trace) > 50
    assert trace == sorted(trace)


def test_unknown_figure_number_fails(capsys):
    code = main(["figure", "3", "--duration", "10", "--warmup", "2"])
    assert code == 2


def test_unknown_scheme_rejected_by_argparse():
    with pytest.raises(SystemExit):
        main(["run", "QUIC", "Verizon LTE downlink"])


@pytest.mark.parametrize(
    "argv, driver",
    [
        (["figure", "1"], "run_figure1"),
        (["figure", "9"], "run_figure9"),
        (["table", "loss"], "loss_table"),
        (["table", "tunnel"], "tunnel_table"),
    ],
)
def test_jobs_reaches_every_command_that_runs_several_emulations(monkeypatch, argv, driver):
    """``--jobs`` used to be accepted and dropped by these four."""
    from repro import cli

    class Reached(Exception):
        pass

    def spy(**kwargs):
        raise Reached(kwargs["jobs"])

    monkeypatch.setattr(cli, driver, spy)
    with pytest.raises(Reached, match="^2$"):
        main(argv + ["--duration", "12", "--warmup", "2", "--jobs", "2"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "Sprout", "Verizon LTE downlink"],
        ["figure", "9"],
        ["table", "loss"],
        ["table", "tunnel"],
        ["sweep", "--param", "loss", "--values", "0"],
        ["report"],
    ],
    ids=["run", "figure", "table-loss", "table-tunnel", "sweep", "report"],
)
def test_an_impossible_window_is_a_usage_error_for_every_command(argv, capsys):
    """The default warm-up is 10 s: ``--duration 8`` used to end in a traceback."""
    assert main(argv + ["--duration", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{argv[0]} error: warmup must be within [0, duration)\n"
    assert captured.out == ""


def test_list_command_names_sweep_parameters(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sweep parameters:" in out
    for name in ("loss", "sigma", "tick", "outage", "scale", "flows", "tunnelled"):
        assert name in out


def test_sweep_command_single_parameter_keeps_sweep_output(capsys):
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0", "0.05",
            "--schemes", "Vegas",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep — loss" in out
    assert "Frontier" not in out  # 1-D runs stay in the classic format
    assert out.count("Vegas") == 2


def test_sweep_command_multiple_parameters_form_a_grid(capsys):
    """Several --param flags are one Cartesian-product grid, not sweeps."""
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0", "0.05",
            "--param", "outage", "--values", "1", "4",
            "--param", "scale", "--values", "1", "0.5",
            "--schemes", "Vegas",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Grid — loss × outage × scale (2 × 2 × 2 = 8 points)" in out
    assert "loss = 0.05, outage = 4, scale = 0.5" in out
    assert "Frontier — throughput vs delay" in out
    # 8 grid rows + 8 frontier candidate rows
    assert out.count("Vegas") == 16


def test_sweep_command_exports_csv_and_json(tmp_path, capsys):
    from repro.experiments.exports import grid_data_from_json, parse_csv

    csv_path = tmp_path / "grid.csv"
    base = [
        "sweep",
        "--param", "loss", "--values", "0", "0.05",
        "--param", "scale", "--values", "1",
        "--schemes", "Vegas",
        "--links", "AT&T LTE uplink",
        "--duration", "6", "--warmup", "1", "--jobs", "1",
    ]
    code = main(base + ["--export", "csv", "--out", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert f"csv export written to {csv_path}" in out
    rows = parse_csv(csv_path.read_text())
    assert len(rows) == 2
    assert {row["loss"] for row in rows} == {0.0, 0.05}

    # without --out the payload lands on stdout
    code = main(base + ["--export", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = out[out.index("{"):]
    data = grid_data_from_json(payload)
    assert data.spec.parameters == ("loss", "scale")


def test_sweep_command_per_flow_prints_flow_frontiers_and_exports_flow_rows(
    tmp_path, capsys
):
    from repro.experiments.exports import parse_csv

    csv_path = tmp_path / "aqm.csv"
    code = main(
        [
            "sweep",
            "--param", "aqm", "--values", "0", "1",
            "--param", "flows", "--values", "2",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
            "--per-flow",
            "--export", "csv", "--out", str(csv_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "AT&T LTE uplink — per-flow" in out
    assert "skype" in out
    rows = parse_csv(csv_path.read_text())
    aggregate = [row for row in rows if row["flow_id"] is None]
    per_flow = [row for row in rows if row["flow_id"] is not None]
    assert len(aggregate) == 2  # one cell per aqm value
    assert {row["flow_id"] for row in per_flow} >= {"skype", "cubic-1"}
    for row in per_flow:
        assert row["flow_throughput_bps"] is not None
        assert row["throughput_bps"] is None


def test_sweep_command_per_flow_single_axis_still_prints_frontier(capsys):
    code = main(
        [
            "sweep",
            "--param", "flows", "--values", "2",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
            "--per-flow",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    # One-axis sweeps normally skip the frontier; --per-flow forces it so
    # the per-flow series are visible.
    assert "Frontier — throughput vs delay" in out
    assert "per-flow" in out


def test_sweep_command_requires_param(capsys):
    assert main(["sweep", "--duration", "6"]) == 2
    assert "at least one --param" in capsys.readouterr().err


def test_sweep_command_rejects_mismatched_values(capsys):
    code = main(
        ["sweep", "--param", "loss", "--param", "scale", "--values", "0", "0.1"]
    )
    assert code == 2
    assert "--values" in capsys.readouterr().err


def test_sweep_command_rejects_unknown_parameter():
    with pytest.raises(SystemExit):
        main(["sweep", "--param", "bandwidth", "--values", "1"])


def test_sweep_command_validates_every_axis_before_running_any(capsys):
    # A late axis's bad value must fail fast — before the grid's emulation
    # burns minutes of wall-clock.
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0",
            "--param", "scale", "--values", "-1",
            "--schemes", "Vegas", "--links", "AT&T LTE uplink",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "scale must be positive" in captured.err
    assert "Sweep —" not in captured.out  # nothing was run or printed
    assert "Grid —" not in captured.out


def test_sweep_command_rejects_duplicate_axes(capsys):
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0",
            "--param", "loss", "--values", "0.05",
            "--schemes", "Vegas", "--links", "AT&T LTE uplink",
        ]
    )
    assert code == 2
    assert "distinct" in capsys.readouterr().err


def test_sweep_command_reports_expander_errors_without_traceback(capsys):
    # sigma does not apply to Vegas; loss 1.5 is out of range — both are
    # user errors and must exit 2 with a message, not a traceback.
    code = main(["sweep", "--param", "sigma", "--values", "100", "--schemes", "Vegas"])
    assert code == 2
    assert "sweep error:" in capsys.readouterr().err
    code = main(["sweep", "--param", "loss", "--values", "1.5"])
    assert code == 2
    assert "loss rate" in capsys.readouterr().err


def test_sweep_command_out_requires_export(capsys):
    code = main(
        ["sweep", "--param", "loss", "--values", "0", "--out", "/tmp/grid.csv"]
    )
    assert code == 2
    assert "--out requires --export" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tolerance", "0.1"], "--tolerance requires --validate"),
        (["--validate", "--tolerance", "-1"], "positive finite"),
        (["--validate", "--tolerance", "nan"], "positive finite"),
        (["--validate", "--tolerance", "inf"], "positive finite"),
    ],
    ids=["without-validate", "negative", "nan", "inf"],
)
def test_sweep_command_checks_tolerance_before_running_any_cell(
    monkeypatch, capsys, flags, message
):
    from repro import cli

    def no_cells(*args, **kwargs):
        raise AssertionError("the grid ran before --tolerance was checked")

    monkeypatch.setattr(cli, "run_grid", no_cells)
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0.02",
            "--schemes", "Reno", "--links", "AT&T LTE uplink",
            *flags,
        ]
    )
    assert code == 2
    assert message in capsys.readouterr().err


# -------------------------------------------------------- exit-code matrix


def test_sweep_all_cells_failed_exits_nonzero(monkeypatch, capsys):
    """--on-error collect keeps a partially failed grid green, but a grid
    where *every* cell failed measured nothing and must not exit 0."""
    monkeypatch.setenv("REPRO_FAULT_SPEC", '[{"kind": "crash"}]')
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0", "0.05",
            "--schemes", "Vegas",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
            "--on-error", "collect",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "every cell failed" in captured.err
    assert "2 of 2 cells failed" in captured.err
    assert "FAILED" in captured.out  # the grid still rendered


def test_sweep_partial_failures_still_exit_zero(monkeypatch, capsys):
    """One healthy cell means measurements were produced: warn, exit 0."""
    monkeypatch.setenv(
        "REPRO_FAULT_SPEC", '[{"kind": "crash", "index": 0}]'
    )
    code = main(
        [
            "sweep",
            "--param", "loss", "--values", "0", "0.05",
            "--schemes", "Vegas",
            "--links", "AT&T LTE uplink",
            "--duration", "6", "--warmup", "1", "--jobs", "1",
            "--on-error", "collect",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "1 of 2 cells failed" in captured.err
    assert "every cell failed" not in captured.err


# ------------------------------------------------------- the live command


def test_live_out_requires_export(capsys):
    code = main(["live", "--out", "/tmp/live.csv"])
    assert code == 2
    assert "--out requires --export" in capsys.readouterr().err


def test_live_rejects_bad_knobs(capsys):
    # argparse-level validation: exit 2 with a usage message naming the
    # offending option, never a deep traceback out of LiveConfig.
    for argv in (
        ["live", "--loss", "1.5"],
        ["live", "--loss", "-0.1"],
        ["live", "--loss", "nope"],
        ["live", "--loss-seed", "3"],  # --loss is seeded by --impair-seed
        ["live", "--bytes", "0"],
        ["live", "--bytes", "-5"],
        ["live", "--repeats", "0"],
        ["live", "--deadline", "0"],
        ["live", "--deadline", "-2"],
        ["live", "--impair", "bogus:p=0.1"],
        ["live", "--impair", "ge:p=2"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert argv[1].lstrip("-") in err


@pytest.mark.transport
def test_live_command_runs_and_exports(tmp_path, capsys):
    from repro.experiments.exports import parse_csv as _parse_csv
    from repro.transport import sockets_available

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    out = tmp_path / "live.csv"
    code = main(
        [
            "live",
            "--bytes", "16384", "--repeats", "1",
            "--export", "csv", "--out", str(out),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Live loopback" in captured.out
    rows = _parse_csv(out.read_text())
    assert len(rows) == 1
    assert rows[0]["scheme"] == "Sprout (live)"
