"""Tests for the fault-tolerance policy layer (repro.experiments.policy).

Unit-level coverage of the vocabulary the engine executes: policy
validation, the structured ``CellError`` record, content-based cell keys,
the checkpoint journal's torn-tail tolerance, the cell runner's
completeness invariant, and the artifact cache's disk-degradation
behavior (docs/robustness.md).  The end-to-end recovery paths live in
``tests/test_faults.py``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import run_cells
from repro.experiments.policy import (
    CHECKPOINT_FORMAT_VERSION,
    CellError,
    CheckpointJournal,
    ErrorPolicy,
    IncompleteBatchError,
    cell_key,
    describe_cell,
    is_cell_error,
)
from repro.experiments.registry import get_scheme
from repro.experiments.runner import RunConfig
from repro.metrics.summary import SchemeResult

# ------------------------------------------------------------- ErrorPolicy


def test_default_policy_is_fail_fast():
    policy = ErrorPolicy()
    assert policy.fail_fast
    assert policy.retry_budget == 0
    assert policy.cell_timeout is None
    assert policy.checkpoint is None


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError, match="fail_fast, collect, retry"):
        ErrorPolicy(on_error="explode")


def test_policy_rejects_bad_knobs():
    with pytest.raises(ValueError, match="retries"):
        ErrorPolicy(on_error="collect", retries=-1)
    with pytest.raises(ValueError, match="cell_timeout"):
        ErrorPolicy(on_error="collect", cell_timeout=0.0)
    with pytest.raises(ValueError, match="max_pool_rebuilds"):
        ErrorPolicy(max_pool_rebuilds=-1)


def test_retry_mode_defaults_to_one_retry():
    assert ErrorPolicy(on_error="retry").retries == 1
    assert ErrorPolicy(on_error="retry", retries=3).retry_budget == 3


def test_fail_fast_ignores_the_retry_budget():
    assert ErrorPolicy(on_error="fail_fast", retries=5).retry_budget == 0
    assert ErrorPolicy(on_error="collect", retries=5).retry_budget == 5


# --------------------------------------------------------------- CellError


def test_cell_error_from_exception_captures_the_traceback():
    try:
        raise RuntimeError("boom")
    except RuntimeError as error:
        record = CellError.from_exception(
            ("Vegas", "AT&T LTE uplink", None), error, attempts=2
        )
    assert record.scheme == "Vegas"
    assert record.link == "AT&T LTE uplink"
    assert record.error_type == "RuntimeError"
    assert record.summary == "RuntimeError: boom"
    assert record.attempts == 2
    assert record.kind == "error"
    assert "raise RuntimeError" in record.traceback
    assert is_cell_error(record)
    assert not is_cell_error("anything else")


def test_cell_error_dict_round_trip():
    record = CellError(
        scheme="Sprout",
        link="TMobile UMTS downlink",
        error_type="CellTimeoutError",
        message="cell exceeded 5s",
        attempts=3,
        kind="timeout",
    )
    assert CellError.from_dict(record.as_dict()) == record
    # Foreign keys (a future schema's extras) are ignored, not fatal.
    assert CellError.from_dict({**record.as_dict(), "new_field": 1}) == record


def test_cell_error_names_spec_cells():
    spec = get_scheme("Vegas")
    record = CellError.from_exception((spec, "AT&T LTE uplink", None), ValueError("x"))
    assert record.scheme == "Vegas"


# ---------------------------------------------------------------- cell keys


def test_cell_key_is_deterministic():
    cell = ("Sprout", "AT&T LTE uplink", RunConfig(duration=6.0, warmup=1.0))
    assert cell_key(cell) == cell_key(
        ("Sprout", "AT&T LTE uplink", RunConfig(duration=6.0, warmup=1.0))
    )


def test_cell_key_tracks_cell_content():
    config = RunConfig(duration=6.0, warmup=1.0)
    base = cell_key(("Sprout", "AT&T LTE uplink", config))
    assert cell_key(("Vegas", "AT&T LTE uplink", config)) != base
    assert cell_key(("Sprout", "Verizon LTE uplink", config)) != base
    assert cell_key(("Sprout", "AT&T LTE uplink", replace(config, loss_rate=0.01))) != base


def test_cell_key_distinguishes_registry_variants():
    """``sprout_variant`` specs key on their full factory configuration."""
    from repro.experiments.sweeps import SWEEP_PARAMETERS

    expand = SWEEP_PARAMETERS["sigma"].expand
    config = RunConfig(duration=6.0, warmup=1.0)
    cell_a = expand("Sprout", "AT&T LTE uplink", config, 100.0)
    cell_b = expand("Sprout", "AT&T LTE uplink", config, 200.0)
    assert cell_key(cell_a) != cell_key(cell_b)
    assert cell_key(cell_a) == cell_key(
        expand("Sprout", "AT&T LTE uplink", config, 100.0)
    )


def test_describe_cell_embeds_the_format_version():
    assert describe_cell(("Sprout", "x", None))[0] == CHECKPOINT_FORMAT_VERSION


# ------------------------------------------------------- CheckpointJournal


def _result(scheme="Vegas", link="AT&T LTE uplink") -> SchemeResult:
    return SchemeResult(
        scheme=scheme,
        link=link,
        throughput_bps=1e6,
        delay_95_s=0.05,
        self_inflicted_delay_s=0.04,
        utilization=0.8,
        capacity_bps=1.25e6,
        omniscient_delay_95_s=0.01,
    )


def test_journal_round_trip(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    journal = CheckpointJournal(path)
    journal.record("key-a", _result())
    journal.record("key-b", _result(scheme="Skype"))
    journal.close()
    loaded = CheckpointJournal(path).load()
    assert set(loaded) == {"key-a", "key-b"}
    assert loaded["key-a"].as_dict() == _result().as_dict()


def test_journal_missing_file_is_empty(tmp_path):
    assert CheckpointJournal(str(tmp_path / "absent.jsonl")).load() == {}


def test_journal_tolerates_a_torn_tail(tmp_path):
    """A run killed mid-write leaves a half line; the prefix must survive."""
    path = str(tmp_path / "journal.jsonl")
    journal = CheckpointJournal(path)
    journal.record("key-a", _result())
    journal.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "key": "key-b", "result": {"scheme"')  # torn
    loaded = CheckpointJournal(path).load()
    assert set(loaded) == {"key-a"}


def test_journal_skips_foreign_versions(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"v": 999, "key": "old", "result": {}}) + "\n")
    journal = CheckpointJournal(path)
    journal.record("key-a", _result())
    journal.close()
    assert set(CheckpointJournal(path).load()) == {"key-a"}


def test_journal_creates_parent_directories(tmp_path):
    path = str(tmp_path / "deep" / "nested" / "journal.jsonl")
    journal = CheckpointJournal(path)
    journal.record("key-a", _result())
    journal.close()
    assert set(CheckpointJournal(path).load()) == {"key-a"}


# ------------------------------------------------- completeness invariant


def test_incomplete_batch_error_lists_missing_indices():
    error = IncompleteBatchError([3, 7], 10)
    assert error.missing == [3, 7]
    assert "2 of 10" in str(error)
    assert "3, 7" in str(error)
    long = IncompleteBatchError(range(30), 40)
    assert "..." in str(long)


def test_run_cells_raises_on_silent_cell_loss(monkeypatch):
    """An engine that drops a cell must fail loudly, not shrink the list."""

    def leaky_dispatch(cells, pending, policy, record, jobs):
        for index in pending[:-1]:  # "lose" the last pending cell
            record(index, _result())

    monkeypatch.setattr(parallel, "_dispatch", leaky_dispatch)
    cells = [("Vegas", "AT&T LTE uplink", None)] * 3
    with pytest.raises(IncompleteBatchError) as exc_info:
        run_cells(cells, jobs=1)
    assert exc_info.value.missing == [2]

