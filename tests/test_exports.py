"""Tests for the structured export layer (repro.experiments.exports).

Three lines of defence, per docs/scenarios.md:

* golden fixtures — the exact CSV and JSON bytes of a tiny 2-D grid are
  checked in (``tests/fixtures/golden_grid_export.*``); any simulation or
  schema drift shows up as an exact-compare failure;
* round-trips — export → parse → compare recovers bit-identical values in
  both formats, and the JSON path rebuilds a full ``GridData``;
* grid equivalence — a 2-D grid cell is pinned against the same cell run
  serially by hand through ``run_scheme_on_link``, the PR's acceptance bar.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.experiments.exports import (
    ERROR_COLUMN,
    EXPORT_SCHEMA_VERSION,
    FLOW_COLUMNS,
    METRIC_COLUMNS,
    csv_columns,
    export_csv,
    export_json,
    export_rows,
    export_text,
    grid_data_from_json,
    parse_csv,
    parse_json,
    write_export,
)
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import (
    SWEEP_PARAMETERS,
    GridData,
    GridPoint,
    GridSpec,
    run_grid,
)
from repro.metrics.flows import FlowMetrics
from repro.metrics.summary import SchemeResult

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_CSV = FIXTURES / "golden_grid_export.csv"
GOLDEN_JSON = FIXTURES / "golden_grid_export.json"

#: the tiny grid frozen in the golden fixtures
GOLDEN_SPEC = GridSpec(
    parameters=("loss", "scale"),
    values=((0.0, 0.02), (1.0, 0.5)),
    schemes=("Vegas",),
    links=("AT&T LTE uplink",),
)
GOLDEN_CONFIG = RunConfig(duration=6.0, warmup=1.0)


@pytest.fixture(scope="module")
def grid_data():
    return run_grid(GOLDEN_SPEC, config=GOLDEN_CONFIG, jobs=1)


# ------------------------------------------------------------------ golden


def test_csv_export_matches_golden_fixture(grid_data):
    assert export_csv(grid_data) == GOLDEN_CSV.read_text()


def test_json_export_matches_golden_fixture(grid_data):
    assert export_json(grid_data) == GOLDEN_JSON.read_text()


def test_grid_cells_bit_identical_to_serial_single_cells(grid_data):
    """Acceptance bar: every 2-D grid cell == the same cell run serially."""
    loss_expand = SWEEP_PARAMETERS["loss"].expand
    scale_expand = SWEEP_PARAMETERS["scale"].expand
    for point in grid_data.points:
        loss, scale = point.coordinates
        scheme, link, config = ("Vegas", "AT&T LTE uplink", GOLDEN_CONFIG)
        scheme, link, config = loss_expand(scheme, link, config, loss)
        scheme, link, config = scale_expand(scheme, link, config, scale)
        reference = run_scheme_on_link(scheme, link, config)
        (row,) = point.results
        assert row.as_dict() == reference.as_dict()


# -------------------------------------------------------------- round-trip


def test_csv_round_trip_is_exact(grid_data):
    rows = parse_csv(export_csv(grid_data))
    assert rows == export_rows(grid_data)
    for row in rows:
        assert row["schema_version"] == EXPORT_SCHEMA_VERSION


def test_json_round_trip_rebuilds_grid_data(grid_data):
    rebuilt = grid_data_from_json(export_json(grid_data))
    assert rebuilt.spec == grid_data.spec
    assert len(rebuilt.points) == len(grid_data.points)
    for mine, theirs in zip(grid_data.points, rebuilt.points):
        assert mine.coordinates == theirs.coordinates
        assert [r.as_dict() for r in mine.results] == [
            r.as_dict() for r in theirs.results
        ]


def test_json_payload_structure(grid_data):
    payload = parse_json(export_json(grid_data))
    assert payload["schema_version"] == EXPORT_SCHEMA_VERSION
    assert payload["kind"] == "grid"
    assert payload["parameters"] == ["loss", "scale"]
    assert payload["axis_values"] == [[0.0, 0.02], [1.0, 0.5]]
    assert payload["schemes"] == ["Vegas"]
    assert len(payload["points"]) == 4
    first = payload["points"][0]
    assert first["coordinates"] == {"loss": 0.0, "scale": 1.0}
    assert first["results"][0]["scheme"] == "Vegas"
    assert "throughput_bps" in first["results"][0]


def test_csv_column_order_is_documented_shape(grid_data):
    header = export_csv(grid_data).splitlines()[0].split(",")
    assert header == csv_columns(GOLDEN_SPEC)
    assert header[0] == "schema_version"
    assert header[1:3] == ["loss", "scale"]
    assert header[3:5] == ["scheme", "link"]
    assert header[5 : 5 + len(METRIC_COLUMNS)] == METRIC_COLUMNS
    assert header[5 + len(METRIC_COLUMNS) :] == [*FLOW_COLUMNS, ERROR_COLUMN]


def test_aggregate_rows_leave_flow_columns_empty(grid_data):
    for row in parse_csv(export_csv(grid_data)):
        assert row["flow_id"] is None
        assert row["flow_throughput_bps"] is None
        assert row["flow_delay_95_s"] is None
        assert row["throughput_bps"] is not None


def test_success_rows_leave_error_column_empty(grid_data):
    for row in parse_csv(export_csv(grid_data)):
        assert row[ERROR_COLUMN] is None
    payload = parse_json(export_json(grid_data))
    for point in payload["points"]:
        assert "errors" not in point  # all-green exports carry no error key


def test_sweep_data_exports_as_one_axis_grid():
    """A single-parameter sweep exports with its one axis column."""
    spec = GridSpec(("loss",), ((0.0,),), ("Vegas",), ("AT&T LTE uplink",))
    data = run_grid(spec, config=GOLDEN_CONFIG)
    rows = parse_csv(export_csv(data))
    assert len(rows) == 1
    assert rows[0]["loss"] == 0.0
    assert rows[0]["scheme"] == "Vegas"
    assert grid_data_from_json(export_json(data)).spec == spec


# ------------------------------------------------------- non-finite floats


def _nonfinite_grid() -> GridData:
    """A one-cell grid whose metrics are all three non-finite floats.

    nan is reachable in practice (a flow with no delay-signal segments in
    the window); the infinities appear in failed-cell-adjacent ratio
    metrics.  Either way the export layer must carry them losslessly.
    """
    spec = GridSpec(
        parameters=("loss",),
        values=((0.0,),),
        schemes=("Sprout",),
        links=("AT&T LTE uplink",),
    )
    result = SchemeResult(
        scheme="Sprout",
        link="AT&T LTE uplink",
        throughput_bps=float("inf"),
        delay_95_s=float("nan"),
        self_inflicted_delay_s=float("-inf"),
        utilization=0.5,
        capacity_bps=1e6,
        omniscient_delay_95_s=0.1,
        flows=[
            FlowMetrics(
                throughput_bps=float("inf"),
                delay_95_s=float("nan"),
                flow="client",
                packets=3,
                bytes=4200,
            )
        ],
    )
    point = GridPoint(parameters=("loss",), coordinates=(0.0,), results=[result])
    return GridData(spec=spec, points=[point])


def test_csv_round_trip_preserves_nonfinite_metrics():
    text = export_csv(_nonfinite_grid())
    aggregate, flow_row = parse_csv(text)
    assert aggregate["throughput_bps"] == float("inf")
    assert aggregate["throughput_kbps"] == float("inf")
    assert math.isnan(aggregate["delay_95_s"])
    assert aggregate["self_inflicted_delay_s"] == float("-inf")
    assert aggregate["self_inflicted_delay_ms"] == float("-inf")
    assert aggregate["utilization"] == 0.5
    assert flow_row["flow_id"] == "client"
    assert flow_row["flow_throughput_bps"] == float("inf")
    assert math.isnan(flow_row["flow_delay_95_s"])


def test_json_export_of_nonfinite_values_stays_strict_rfc8259():
    """No bare NaN/Infinity tokens: jq / JavaScript must accept the file."""
    text = export_json(_nonfinite_grid())

    def reject(token):  # json only calls this on non-RFC tokens
        raise AssertionError(f"export emitted bare token {token!r}")

    payload = json.loads(text, parse_constant=reject)
    exported = payload["points"][0]["results"][0]
    assert exported["delay_95_s"] is None  # nan -> null
    assert exported["throughput_bps"] == "Infinity"
    assert exported["self_inflicted_delay_s"] == "-Infinity"


def test_json_round_trip_restores_nonfinite_metrics():
    rebuilt = grid_data_from_json(export_json(_nonfinite_grid()))
    (result,) = rebuilt.points[0].results
    assert result.throughput_bps == float("inf")
    assert math.isnan(result.delay_95_s)
    assert result.self_inflicted_delay_s == float("-inf")
    assert result.utilization == 0.5
    (flow,) = result.flows
    assert flow.flow == "client"
    assert flow.packets == 3 and flow.bytes == 4200
    assert flow.throughput_bps == float("inf")
    assert math.isnan(flow.delay_95_s)


# -------------------------------------------------------------- validation


def test_unknown_export_format_rejected(grid_data):
    with pytest.raises(ValueError, match="csv, json"):
        export_text(grid_data, "yaml")


def test_parse_rejects_wrong_schema_version(grid_data):
    bumped = export_json(grid_data).replace(
        f'"schema_version": {EXPORT_SCHEMA_VERSION}', '"schema_version": 999'
    )
    with pytest.raises(ValueError, match="schema version"):
        parse_json(bumped)
    csv_text = export_csv(grid_data)
    header, first, rest = csv_text.split("\n", 2)
    assert first.startswith(f"{EXPORT_SCHEMA_VERSION},")
    mutated = "999" + first[len(str(EXPORT_SCHEMA_VERSION)) :]
    with pytest.raises(ValueError, match="schema version"):
        parse_csv("\n".join([header, mutated, rest]))


@pytest.mark.parametrize("older", [3, 4])
def test_parse_refuses_an_older_schema_version_by_number(older):
    """One reader: the repo writes v5 only, and no older file is accepted."""
    refused = f"unsupported export schema version {older} "
    text = GOLDEN_JSON.read_text().replace(
        f'"schema_version": {EXPORT_SCHEMA_VERSION}', f'"schema_version": {older}'
    )
    with pytest.raises(ValueError, match=refused):
        parse_json(text)
    with pytest.raises(ValueError, match=refused):
        grid_data_from_json(json.loads(text))
    header, *rows = GOLDEN_CSV.read_text().splitlines()
    older_rows = [str(older) + row[len(str(EXPORT_SCHEMA_VERSION)) :] for row in rows]
    with pytest.raises(ValueError, match=refused):
        parse_csv("\n".join([header, *older_rows]) + "\n")


def test_parse_csv_rejects_non_export_text():
    with pytest.raises(ValueError, match="schema_version"):
        parse_csv("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="empty"):
        parse_csv("")


def test_write_export_creates_parseable_files(grid_data, tmp_path):
    csv_path = tmp_path / "grid.csv"
    json_path = tmp_path / "grid.json"
    write_export(grid_data, "csv", str(csv_path))
    write_export(grid_data, "json", str(json_path))
    assert parse_csv(csv_path.read_text()) == export_rows(grid_data)
    rebuilt = grid_data_from_json(json_path.read_text())
    assert rebuilt.spec == grid_data.spec


def test_parse_csv_rejects_truncated_rows(grid_data):
    text = export_csv(grid_data)
    lines = text.splitlines()
    truncated = "\n".join(lines[:-1] + [lines[-1].rsplit(",", 2)[0]]) + "\n"
    with pytest.raises(ValueError, match="truncated"):
        parse_csv(truncated)
