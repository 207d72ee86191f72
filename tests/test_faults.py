"""End-to-end tests of the fault-tolerant grid engine (docs/robustness.md).

Every recovery path is driven by the deterministic injection harness
(:mod:`repro.testing.faults`, armed through ``REPRO_FAULT_SPEC``): a cell
raising in a warmed pool, a worker hanging past the cell timeout, a worker
exiting hard (breaking the process pool), and a worker whose in-memory
rate models are dropped mid-batch.  The centrepiece is the acceptance grid:
a 3 × 3 grid with one crashing, one hanging, and one corrupt-artifact cell
that must complete under ``collect``, export as schema v5, render its
failure section, and resume from a checkpoint re-running only the failed
cells.

Marked ``fault`` (``make test-fault`` runs just this file); the suite also
runs under the full tier-1 pass.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import pytest

from repro.experiments import parallel
from repro.experiments.exports import export_csv, export_json, grid_data_from_json, parse_csv
from repro.experiments.parallel import run_cells, shared_pool
from repro.experiments.policy import CellError, ErrorPolicy, is_cell_error
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.experiments.sweeps import (
    GridSpec,
    render_grid,
    render_grid_frontiers,
    run_grid,
)
from repro.testing.faults import (
    FAULT_SPEC_ENV,
    FaultClause,
    InjectedFault,
    fire_faults,
    parse_fault_spec,
)

pytestmark = pytest.mark.fault

LINK = "AT&T LTE uplink"
CONFIG = RunConfig(duration=4.0, warmup=1.0)


def _arm(monkeypatch, *clauses: dict) -> None:
    monkeypatch.setenv(FAULT_SPEC_ENV, json.dumps(list(clauses)))


def _cells(n: int):
    """``n`` distinct Vegas cells (distinct loss rates keep the keys apart)."""
    return [
        ("Vegas", LINK, replace(CONFIG, loss_rate=0.001 * i)) for i in range(n)
    ]


@pytest.fixture(scope="module")
def clean_outcomes():
    """The 3-cell batch measured with no faults armed (the reference)."""
    return [run_scheme_on_link(*cell) for cell in _cells(3)]


# ------------------------------------------------------------ harness unit


def test_fault_spec_parsing_rejects_garbage():
    with pytest.raises(ValueError, match="JSON list"):
        parse_fault_spec('{"kind": "crash"}')
    with pytest.raises(ValueError, match="not valid JSON"):
        parse_fault_spec("{nope")
    with pytest.raises(ValueError, match="unknown fault clause keys"):
        parse_fault_spec('[{"kind": "crash", "shceme": "*"}]')
    with pytest.raises(ValueError, match="kind must be one of"):
        parse_fault_spec('[{"kind": "meltdown"}]')
    with pytest.raises(ValueError, match="probability"):
        parse_fault_spec('[{"kind": "crash", "probability": 1.5}]')


def test_fault_clause_matching():
    clause = FaultClause(kind="crash", scheme="Veg*", index=2, times=1)
    assert clause.matches("Vegas", LINK, attempt=1, index=2)
    assert not clause.matches("Sprout", LINK, attempt=1, index=2)
    assert not clause.matches("Vegas", LINK, attempt=1, index=3)
    assert not clause.matches("Vegas", LINK, attempt=2, index=2)  # times spent


def test_probability_gate_is_deterministic():
    clause = FaultClause(kind="crash", probability=0.5, seed=7)
    draws = [clause.matches("Vegas", LINK, attempt=a, index=None) for a in range(1, 20)]
    again = [clause.matches("Vegas", LINK, attempt=a, index=None) for a in range(1, 20)]
    assert draws == again  # same spec, same decisions — always
    assert any(draws) and not all(draws)  # and the coin actually varies
    never = FaultClause(kind="crash", probability=0.0)
    assert not any(never.matches("Vegas", LINK, attempt=a, index=None) for a in range(1, 10))


def test_unarmed_harness_is_inert(monkeypatch):
    monkeypatch.delenv(FAULT_SPEC_ENV, raising=False)
    fire_faults("Vegas", LINK)  # no spec: must be a no-op


# ------------------------------------------------------------ crash paths


def test_fail_fast_propagates_an_injected_crash(monkeypatch):
    _arm(monkeypatch, {"kind": "crash", "index": 1})
    with pytest.raises(InjectedFault):
        run_cells(_cells(3), jobs=2)


def test_crash_collected_in_a_warmed_shared_pool(monkeypatch, clean_outcomes):
    """Satellite matrix: a worker crash in the warmed pool is collected and
    the surviving cells stay bit-identical to the no-fault run."""
    _arm(monkeypatch, {"kind": "crash", "index": 1})
    with shared_pool(2):
        outcomes = run_cells(
            _cells(3), policy=ErrorPolicy(on_error="collect"), jobs=2
        )
    assert [is_cell_error(o) for o in outcomes] == [False, True, False]
    failed = outcomes[1]
    assert failed.error_type == "InjectedFault"
    assert failed.kind == "error" and failed.attempts == 1
    assert outcomes[0].as_dict() == clean_outcomes[0].as_dict()
    assert outcomes[2].as_dict() == clean_outcomes[2].as_dict()


def test_retry_then_succeed_is_bit_identical(monkeypatch, clean_outcomes):
    _arm(monkeypatch, {"kind": "crash", "index": 1, "times": 1})
    outcomes = run_cells(
        _cells(3), policy=ErrorPolicy(on_error="retry", retries=2), jobs=2
    )
    assert not any(is_cell_error(o) for o in outcomes)
    assert [o.as_dict() for o in outcomes] == [o.as_dict() for o in clean_outcomes]


def test_retry_exhausted_records_the_attempt_count(monkeypatch):
    _arm(monkeypatch, {"kind": "crash", "index": 0})  # crashes every attempt
    outcomes = run_cells(
        _cells(2), policy=ErrorPolicy(on_error="retry", retries=2), jobs=2
    )
    failed = outcomes[0]
    assert is_cell_error(failed)
    assert failed.attempts == 3  # 1 initial + 2 retries
    assert not is_cell_error(outcomes[1])


# ---------------------------------------------------------- timeout paths


def test_cell_timeout_expiry_records_a_timeout(monkeypatch):
    _arm(monkeypatch, {"kind": "hang", "index": 0, "seconds": 60.0})
    start = time.monotonic()
    outcomes = run_cells(
        _cells(2),
        policy=ErrorPolicy(on_error="collect", cell_timeout=5.0),
        jobs=2,
    )
    elapsed = time.monotonic() - start
    assert elapsed < 45.0, "the hung worker was never reclaimed"
    failed = outcomes[0]
    assert is_cell_error(failed)
    assert failed.kind == "timeout"
    assert failed.error_type == "CellTimeoutError"
    assert "cell_timeout" in failed.message
    assert not is_cell_error(outcomes[1])


def test_hang_retry_then_succeed(monkeypatch, clean_outcomes):
    _arm(monkeypatch, {"kind": "hang", "index": 0, "seconds": 60.0, "times": 1})
    outcomes = run_cells(
        _cells(2),
        policy=ErrorPolicy(on_error="retry", retries=1, cell_timeout=5.0),
        jobs=2,
    )
    assert not any(is_cell_error(o) for o in outcomes)
    assert outcomes[0].as_dict() == clean_outcomes[0].as_dict()


# ------------------------------------------------------- pool break paths


def test_worker_hard_exit_heals_the_pool(monkeypatch, clean_outcomes):
    """A worker dying hard breaks the pool; the batch rebuilds it and the
    victim cell's re-run (attempt 2, past ``times``) succeeds."""
    _arm(monkeypatch, {"kind": "exit", "index": 1, "times": 1})
    outcomes = run_cells(_cells(3), policy=ErrorPolicy(on_error="collect"), jobs=2)
    assert not any(is_cell_error(o) for o in outcomes)
    assert [o.as_dict() for o in outcomes] == [o.as_dict() for o in clean_outcomes]


def test_cell_breaking_the_pool_twice_is_quarantined(monkeypatch, clean_outcomes):
    """Two pool breaks with the same cell in flight quarantine it to a
    serial in-parent run (attempt 3, past ``times``, so it completes)."""
    _arm(monkeypatch, {"kind": "exit", "index": 0, "times": 2})
    outcomes = run_cells(_cells(3), policy=ErrorPolicy(on_error="collect"), jobs=2)
    assert not any(is_cell_error(o) for o in outcomes)
    assert [o.as_dict() for o in outcomes] == [o.as_dict() for o in clean_outcomes]


# -------------------------------------------------- corrupt-artifact path


def test_corrupt_model_artifact_heals_on_retry(monkeypatch):
    """Dropping the held models fails the strict cell; the retry rebuilds the
    model from scratch and must reproduce the clean result bit-for-bit."""
    reference = run_scheme_on_link("Sprout", LINK, CONFIG)
    _arm(monkeypatch, {"kind": "corrupt", "scheme": "Sprout", "times": 1})
    (outcome,) = run_cells(
        [("Sprout", LINK, CONFIG)],
        policy=ErrorPolicy(on_error="retry", retries=1),
        jobs=1,
    )
    assert not is_cell_error(outcome)
    assert outcome.as_dict() == reference.as_dict()


# -------------------------------------------------------- acceptance grid


ACCEPTANCE_SPEC = GridSpec(
    parameters=("loss", "scale"),
    values=((0.0, 0.01, 0.02), (1.0, 0.75, 0.5)),
    schemes=("Vegas",),
    links=(LINK,),
)
#: batch indices of the crashing, hanging, and corrupt-artifact cells
CRASH_AT, HANG_AT, CORRUPT_AT = 2, 4, 6


@pytest.fixture(scope="module")
def clean_grid():
    return run_grid(ACCEPTANCE_SPEC, config=CONFIG, jobs=1)


def test_acceptance_grid_collects_three_failures(
    monkeypatch, tmp_path, clean_grid
):
    """The acceptance scenario, end to end: a 3 × 3 grid with one
    crashing, one hanging, and one corrupt-artifact cell completes under
    ``collect``, returns 6 results + 3 structured errors in order, exports
    as schema v5, renders the failure section, and a checkpointed re-run
    re-executes exactly the 3 failed cells."""
    checkpoint = str(tmp_path / "grid.ckpt.jsonl")
    policy = ErrorPolicy(on_error="collect", cell_timeout=6.0, checkpoint=checkpoint)
    _arm(
        monkeypatch,
        {"kind": "crash", "index": CRASH_AT},
        {"kind": "hang", "index": HANG_AT, "seconds": 60.0},
        {"kind": "corrupt", "index": CORRUPT_AT},
    )
    data = run_grid(ACCEPTANCE_SPEC, config=CONFIG, policy=policy, jobs=2)

    # Exactly 6 good results + 3 structured errors, in cell order.
    outcomes = [row for point in data.points for row in point.results]
    assert len(outcomes) == 9
    failed_at = [i for i, row in enumerate(outcomes) if is_cell_error(row)]
    assert failed_at == [CRASH_AT, HANG_AT, CORRUPT_AT]
    assert outcomes[CRASH_AT].error_type == "InjectedFault"
    assert outcomes[HANG_AT].kind == "timeout"
    assert outcomes[CORRUPT_AT].error_type == "InjectedCorruptArtifact"
    clean = [row for point in clean_grid.points for row in point.results]
    for i in set(range(9)) - set(failed_at):
        assert outcomes[i].as_dict() == clean[i].as_dict()

    # Schema-v3 exports carry the failures, both directions.
    rows = parse_csv(export_csv(data))
    assert len(rows) == 9
    assert [row["error"] is not None for row in rows].count(True) == 3
    crash_row = rows[CRASH_AT]
    assert crash_row["error"].startswith("InjectedFault:")
    assert crash_row["throughput_bps"] is None
    rebuilt = grid_data_from_json(export_json(data))
    rebuilt_outcomes = [row for point in rebuilt.points for row in point.results]
    assert [is_cell_error(row) for row in rebuilt_outcomes] == [
        is_cell_error(row) for row in outcomes
    ]
    assert rebuilt_outcomes[HANG_AT] == outcomes[HANG_AT]

    # The report renders FAILED lines plus the failure footer, and the
    # frontier section excludes the failed cells.
    rendered = render_grid(data)
    assert rendered.count("FAILED") == 3
    assert "3 of 9 cells failed" in rendered
    assert "(3 failed cells excluded)" in render_grid_frontiers(data)

    # Resume: with the faults disarmed, a checkpointed re-run executes
    # exactly the 3 failed cells and completes green.
    monkeypatch.delenv(FAULT_SPEC_ENV)
    executed = []
    real_run_cell = parallel._run_cell

    def counting_run_cell(scheme, link, config, attempt=1, index=None):
        executed.append(index)
        return real_run_cell(scheme, link, config, attempt=attempt, index=index)

    monkeypatch.setattr(parallel, "_run_cell", counting_run_cell)
    resumed = run_grid(ACCEPTANCE_SPEC, config=CONFIG, policy=policy, jobs=1)
    assert sorted(executed) == [CRASH_AT, HANG_AT, CORRUPT_AT]
    resumed_outcomes = [row for point in resumed.points for row in point.results]
    assert not any(is_cell_error(row) for row in resumed_outcomes)
    assert [row.as_dict() for row in resumed_outcomes] == [
        row.as_dict() for row in clean
    ]
    assert "cells failed" not in render_grid(resumed)


def test_checkpoint_journals_only_successes(monkeypatch, tmp_path):
    checkpoint = str(tmp_path / "small.ckpt.jsonl")
    _arm(monkeypatch, {"kind": "crash", "index": 0})
    run_cells(
        _cells(2),
        policy=ErrorPolicy(on_error="collect", checkpoint=checkpoint),
        jobs=1,
    )
    lines = [
        json.loads(line)
        for line in open(checkpoint, encoding="utf-8")
        if line.strip()
    ]
    assert len(lines) == 1  # the failed cell is not journaled
    assert lines[0]["result"]["scheme"] == "Vegas"


def test_progress_sees_cell_errors_under_collect(monkeypatch):
    _arm(monkeypatch, {"kind": "crash", "index": 0})
    seen = []
    run_cells(
        _cells(2),
        progress=seen.append,
        policy=ErrorPolicy(on_error="collect"),
        jobs=1,
    )
    assert len(seen) == 2
    assert sum(isinstance(o, CellError) for o in seen) == 1
