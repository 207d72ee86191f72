"""Structured exports of sweep/grid results: tidy CSV and structured JSON.

Every finished :class:`~repro.experiments.sweeps.GridData` can be serialised
for plotting or archival without re-running a single emulation.  Two formats,
both schema-versioned (:data:`EXPORT_SCHEMA_VERSION`) and documented
column-by-column / key-by-key in ``docs/scenarios.md``:

* **CSV** (:func:`export_csv`) — tidy long format: one row per measured
  ``(grid point, scheme, link)`` cell, plus — when a cell carries per-flow
  metrics — one row per ``(cell, flow)``.  The first column is
  ``schema_version``, then one column per grid axis (named after the axis,
  in grid order), then ``scheme``, ``link``, the metric columns of
  :data:`METRIC_COLUMNS`, the per-flow columns of :data:`FLOW_COLUMNS`,
  and the trailing ``error`` column.  Aggregate rows leave the
  flow columns empty; per-flow rows leave the aggregate metric columns
  empty (the discriminator is ``flow_id``); a *failed* cell — a
  :class:`~repro.experiments.policy.CellError` collected under the
  ``collect``/``retry`` error policies (docs/robustness.md) — exports one
  row with every metric empty and ``error`` holding
  ``"ErrorType: message"``.  Floats are written with ``repr`` (shortest
  round-trip form), so parsing the CSV back recovers bit-identical values —
  including non-finite ones, which ``repr`` writes as ``nan`` / ``inf`` /
  ``-inf`` and ``float()`` reads straight back.
* **JSON** (:func:`export_json`) — the full grid structure: spec
  (parameters, per-axis values, schemes, links), then one entry per grid
  point with its coordinates (keyed by axis name), the complete
  :class:`~repro.metrics.summary.SchemeResult` dictionaries of its
  successful cells (including the optional per-flow ``flows`` list), and —
  only when the point had failures — an ``errors`` list of structured
  :class:`~repro.experiments.policy.CellError` records, each carrying the
  ``index`` of its cell within the point so the interleaved cell order
  reconstructs exactly.

Both directions are covered: :func:`parse_csv` / :func:`parse_json` read a
current (v5) export back — any other ``schema_version`` is refused by
number — and :func:`grid_data_from_json` rebuilds a full ``GridData``
(failed cells come back as ``CellError`` outcomes in their original
positions); the round-trip is exact (``tests/test_exports.py``).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import fields
from typing import Dict, List, Union

from repro.experiments.policy import CellError, is_cell_error
from repro.experiments.sweeps import GridData, GridPoint, GridSpec
from repro.metrics.flows import FlowMetrics
from repro.metrics.summary import SchemeResult

#: bump when a column/key is added, removed, or changes meaning
EXPORT_SCHEMA_VERSION = 5

#: schema versions :func:`parse_csv` / :func:`parse_json` understand
SUPPORTED_SCHEMA_VERSIONS = (EXPORT_SCHEMA_VERSION,)

#: metric columns of the CSV export, in order (docs/scenarios.md)
METRIC_COLUMNS: List[str] = [
    "throughput_bps",
    "throughput_kbps",
    "delay_95_s",
    "self_inflicted_delay_s",
    "self_inflicted_delay_ms",
    "utilization",
    "capacity_bps",
    "omniscient_delay_95_s",
]

#: per-flow columns of the CSV export, after the metric columns
FLOW_COLUMNS: List[str] = [
    "flow_id",
    "flow_throughput_bps",
    "flow_delay_95_s",
]

#: the trailing failure column of the CSV export: empty on
#: success rows, ``"ErrorType: message"`` on a failed cell's row
ERROR_COLUMN = "error"

_INF = float("inf")


def csv_columns(spec: GridSpec) -> List[str]:
    """The CSV header row for one grid: version, axes, identity, metrics."""
    return [
        "schema_version",
        *spec.parameters,
        "scheme",
        "link",
        *METRIC_COLUMNS,
        *FLOW_COLUMNS,
        ERROR_COLUMN,
    ]


def export_rows(grid: GridData) -> List[Dict[str, object]]:
    """The tidy long-format rows of an export.

    One aggregate row per measured cell (flow columns ``None``) followed
    by one per-flow row per flow the cell recorded (aggregate metric
    columns ``None``, flow columns set) — row kind is discriminated by
    ``flow_id``.  A failed cell contributes one row with every metric and
    flow column ``None`` and the ``error`` column set.
    """
    rows: List[Dict[str, object]] = []
    for point in grid.points:
        for result in point.results:
            base: Dict[str, object] = {"schema_version": EXPORT_SCHEMA_VERSION}
            base.update(zip(point.parameters, point.coordinates))
            base["scheme"] = result.scheme
            base["link"] = result.link
            if is_cell_error(result):
                failed = dict(base)
                for column in (*METRIC_COLUMNS, *FLOW_COLUMNS):
                    failed[column] = None
                failed[ERROR_COLUMN] = result.summary
                rows.append(failed)
                continue
            aggregate = dict(base)
            for column in METRIC_COLUMNS:
                aggregate[column] = getattr(result, column)
            for column in FLOW_COLUMNS:
                aggregate[column] = None
            aggregate[ERROR_COLUMN] = None
            rows.append(aggregate)
            for flow in result.flows or []:
                flow_row = dict(base)
                for column in METRIC_COLUMNS:
                    flow_row[column] = None
                flow_row["flow_id"] = flow.flow
                flow_row["flow_throughput_bps"] = flow.throughput_bps
                flow_row["flow_delay_95_s"] = flow.delay_95_s
                flow_row[ERROR_COLUMN] = None
                rows.append(flow_row)
    return rows


def export_csv(grid: GridData) -> str:
    """Serialise a grid as tidy long-format CSV (exact floats)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(csv_columns(grid.spec))
    for row in export_rows(grid):
        writer.writerow(
            [repr(value) if isinstance(value, float) else value for value in row.values()]
        )
    return buffer.getvalue()


def _jsonable(value: object) -> object:
    """``value`` with every non-finite float replaced by a JSON-safe stand-in.

    ``json.dumps`` would otherwise emit the bare tokens ``NaN`` /
    ``Infinity`` — accepted by Python's own parser but invalid RFC 8259, so
    jq / JavaScript / pandas reject the whole file (and with
    ``allow_nan=False`` the dump itself raises).  Both are reachable: nan
    from a flow with no delay-signal segments inside the window, inf from
    failed-cell-adjacent ratio metrics.  nan exports as ``null`` and
    infinities as the strings ``"Infinity"`` / ``"-Infinity"``; all three
    parse back to the original float (:func:`_result_from_dict`).
    """
    if isinstance(value, float):
        if value != value:
            return None
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return value
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def export_json(grid: GridData) -> str:
    """Serialise a grid as structured JSON (exact floats via repr;
    nan as ``null`` and infinities as ``"Infinity"`` / ``"-Infinity"``
    strings so the output stays strict RFC 8259)."""
    spec = grid.spec
    payload = {
        "schema_version": EXPORT_SCHEMA_VERSION,
        "kind": "grid",
        "parameters": list(spec.parameters),
        "axis_values": [list(axis) for axis in spec.values],
        "schemes": list(spec.schemes),
        # ad-hoc LinkSpec entries (not in the registry) export by name, the
        # same identifier every result row carries
        "links": [link if isinstance(link, str) else link.name for link in spec.links],
        "points": [_point_payload(point) for point in grid.points],
    }
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False) + "\n"


def _point_payload(point: GridPoint) -> Dict[str, object]:
    """One JSON point: coordinates, results, failures.

    ``errors`` is present only when the point had failures.  Each error
    record carries the ``index`` of its cell within the point's interleaved
    outcome order, which lets :func:`grid_data_from_json` put it back in its
    original position.
    """
    payload: Dict[str, object] = {
        "coordinates": dict(zip(point.parameters, point.coordinates)),
        "results": [result.as_dict() for result in point.ok_results],
    }
    errors = [
        {**outcome.as_dict(), "index": index}
        for index, outcome in enumerate(point.results)
        if is_cell_error(outcome)
    ]
    if errors:
        payload["errors"] = errors
    return payload


def export_text(data: GridData, fmt: str) -> str:
    """Dispatch on format name: ``"csv"`` or ``"json"``."""
    if fmt == "csv":
        return export_csv(data)
    if fmt == "json":
        return export_json(data)
    raise ValueError(f"unknown export format {fmt!r}; valid formats: csv, json")


def write_export(data: GridData, fmt: str, path: str) -> None:
    """Write an export to ``path`` (see :func:`export_text`)."""
    text = export_text(data, fmt)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


# ----------------------------------------------------------------- parsing


def parse_csv(text: str) -> List[Dict[str, object]]:
    """Parse a CSV export back into typed rows (exact float round-trip).

    Axis and metric columns come back as floats, ``schema_version`` as an
    int, ``scheme``/``link`` as strings; ``flow_id`` is a string (``None``
    on aggregate rows) and empty metric cells come back as ``None``; the
    trailing ``error`` column is a string on a failed cell's row, ``None``
    otherwise.  Raises ``ValueError`` on a schema version this code does
    not understand and on a row whose field count differs from the
    header's.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV export: no header row") from None
    if not header or header[0] != "schema_version":
        raise ValueError("not a grid export: first column must be schema_version")
    rows: List[Dict[str, object]] = []
    for line, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) != len(header):
            raise ValueError(
                f"malformed CSV export: line {line} has {len(raw)} fields, "
                f"header has {len(header)} (truncated file?)"
            )
        row: Dict[str, object] = {}
        for column, value in zip(header, raw):
            if column == "schema_version":
                row[column] = _check_schema_version(int(value))
            elif column in ("scheme", "link"):
                row[column] = value
            elif column in ("flow_id", ERROR_COLUMN):
                row[column] = value if value != "" else None
            elif column in METRIC_COLUMNS or column in FLOW_COLUMNS:
                row[column] = float(value) if value != "" else None
            else:
                row[column] = float(value)  # a grid-axis coordinate
        rows.append(row)
    return rows


def parse_json(text: str) -> dict:
    """Parse a JSON export, validating its schema version and kind."""
    payload = json.loads(text)
    _check_schema_version(payload.get("schema_version"))
    if payload.get("kind") != "grid":
        raise ValueError(f"not a grid export: kind={payload.get('kind')!r}")
    return payload


_RESULT_FIELDS = {f.name for f in fields(SchemeResult)}


def _check_schema_version(version: object) -> int:
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
        raise ValueError(
            f"unsupported export schema version {version!r} "
            f"(this code reads versions {supported})"
        )
    return int(version)  # type: ignore[arg-type]


_RESULT_FLOAT_FIELDS = {
    f.name for f in fields(SchemeResult) if f.type in ("float", float)
}
_FLOW_FLOAT_FIELDS = {
    f.name for f in fields(FlowMetrics) if f.type in ("float", float)
}


#: JSON stand-ins for non-finite floats (see :func:`_jsonable`); nan's
#: stand-in is ``None``, handled separately because it doubles as "missing"
_NONFINITE_TOKENS = {"Infinity": float("inf"), "-Infinity": float("-inf")}


def _restore_floats(data: Dict[str, object], float_fields) -> Dict[str, object]:
    """Undo :func:`_jsonable` on known float fields: ``null`` back to nan,
    ``"Infinity"`` / ``"-Infinity"`` back to the infinities."""
    restored = dict(data)
    for key in float_fields:
        value = restored.get(key, _MISSING)
        if value is None:
            restored[key] = float("nan")
        elif isinstance(value, str) and value in _NONFINITE_TOKENS:
            restored[key] = _NONFINITE_TOKENS[value]
    return restored


_MISSING = object()


def _result_from_dict(row: Dict[str, object]) -> SchemeResult:
    data = _restore_floats(
        {k: v for k, v in row.items() if k in _RESULT_FIELDS}, _RESULT_FLOAT_FIELDS
    )
    flows = data.get("flows")
    if flows is not None:
        data["flows"] = [
            FlowMetrics(**_restore_floats(flow, _FLOW_FLOAT_FIELDS)) for flow in flows
        ]
    return SchemeResult(**data)  # type: ignore[arg-type]


def _point_outcomes(entry: Dict[str, object]) -> List[object]:
    """One point's interleaved cell outcomes from its JSON entry.

    Successful results are re-slotted around the ``errors`` records using
    each record's ``index``, so the rebuilt point preserves the original
    cell order exactly.
    """
    results = [_result_from_dict(row) for row in entry["results"]]
    errors = entry.get("errors") or []
    if not errors:
        return results
    outcomes: List[object] = [None] * (len(results) + len(errors))
    for record in errors:
        outcomes[record["index"]] = CellError.from_dict(record)
    iterator = iter(results)
    for index, slot in enumerate(outcomes):
        if slot is None:
            outcomes[index] = next(iterator)
    return outcomes


def grid_data_from_json(payload: Union[str, dict]) -> GridData:
    """Rebuild a full :class:`GridData` from a JSON export.

    The reconstruction is exact: every ``SchemeResult`` field (including
    the ``extra`` counters and the optional per-flow list) round-trips
    bit-identically and failure records come back as
    :class:`~repro.experiments.policy.CellError` outcomes, each in its
    original cell position — so downstream
    analysis (frontiers, tables, failure reports, differential
    validation) can run from an export alone.
    """
    if isinstance(payload, str):
        payload = parse_json(payload)
    else:
        _check_schema_version(payload.get("schema_version"))
    spec = GridSpec(
        parameters=tuple(payload["parameters"]),
        values=tuple(tuple(axis) for axis in payload["axis_values"]),
        schemes=tuple(payload["schemes"]),
        links=tuple(payload["links"]),
    )
    points = []
    for entry in payload["points"]:
        coordinates = entry["coordinates"]
        points.append(
            GridPoint(
                parameters=spec.parameters,
                coordinates=tuple(coordinates[name] for name in spec.parameters),
                results=_point_outcomes(entry),
            )
        )
    return GridData(spec=spec, points=points)
