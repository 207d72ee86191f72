"""Live loopback transfers: the transport acceptance bar, end to end.

These tests move real UDP datagrams over 127.0.0.1 (marker ``transport``,
``make test-live``) and are skipped wholesale where the environment forbids
loopback sockets.  ``loss_rate`` is the impairment pipeline's seeded ``loss``
stage on the sender's side (``tests/test_transport_impair.py`` pins that
mapping and the stage's determinism socket-free): a retransmission is the
stage's next submission, so it draws a fresh coin, and the acceptance
property — a sized transfer completes with zero packets lost forever under
10% injected datagram loss — is reproducible.
"""

from __future__ import annotations

import pytest

from repro.experiments.exports import (
    export_csv,
    export_json,
    grid_data_from_json,
    parse_csv,
    parse_json,
)
from repro.transport import LiveConfig, run_live_suite, run_live_transfer, sockets_available
from repro.transport.harness import (
    LIVE_LINK,
    LIVE_SCHEME,
    live_grid_data,
    render_live_results,
)

pytestmark = [
    pytest.mark.transport,
    pytest.mark.skipif(
        not sockets_available(), reason="loopback UDP sockets unavailable"
    ),
]

#: small enough to finish in well under a second at loopback rates
TRANSFER_BYTES = 64 * 1024


# ------------------------------------------------------------ clean channel


def test_clean_loopback_transfer_completes():
    result = run_live_transfer(LiveConfig(transfer_bytes=TRANSFER_BYTES, repeats=1))
    assert result.completed
    assert result.closed  # the receiver saw the CLOSE handshake
    assert result.lost_forever == 0
    assert result.injected_drops == 0
    assert result.payload_bytes >= TRANSFER_BYTES
    assert result.throughput_bps > 0
    assert result.duration_s > 0
    # Real one-way delays were measured for every delivered packet.
    assert result.delay_percentiles_s["p95"] == result.delay_percentiles_s["p95"]
    assert result.min_delay_s >= 0.0


def test_clean_loopback_transfer_clears_throughput_and_delay_floors():
    """Catastrophic-regression floors on the transport's own overhead (codec,
    selective repeat, wall-clock ticking), an order of magnitude off any
    measured value so a loaded runner cannot flap them.  The repo benchmark's
    ``live`` workload carries the numbers."""
    result = run_live_transfer(LiveConfig(transfer_bytes=128 * 1024, repeats=1))
    assert result.completed and result.lost_forever == 0
    assert result.throughput_bps > 100_000, "loopback transport under 100 kbps"
    p95_ms = 1000 * result.delay_percentiles_s.get("p95", float("nan"))
    assert p95_ms < 1000, f"loopback p95 delay {p95_ms:.1f} ms"


# ----------------------------------------------- the lossy acceptance bar


def test_lossy_loopback_transfer_loses_nothing_forever():
    """ISSUE acceptance: 10% injected datagram loss, zero packets lost forever."""
    result = run_live_transfer(
        LiveConfig(transfer_bytes=TRANSFER_BYTES, repeats=1, loss_rate=0.1, impair_seed=7),
        repeat=1,
    )
    assert result.completed
    assert result.lost_forever == 0
    assert result.injected_drops > 0  # the loss stage actually bit
    assert result.injected_drops == result.impair_counters["up_drop:loss"]
    assert result.impair_replay_ok is True
    # Every injected drop was healed by a retransmission (CLOSE is not
    # exempt from the stage; its retransmissions are counted apart).
    assert result.total_retransmits + result.close_retransmits >= result.injected_drops
    assert result.malformed == 0


# ------------------------------------------------------- harness packaging


@pytest.fixture(scope="module")
def live_suite():
    config = LiveConfig(transfer_bytes=TRANSFER_BYTES, repeats=2, loss_rate=0.05)
    return run_live_suite(config)


def test_live_suite_runs_every_repeat(live_suite):
    grid, results = live_suite
    assert [result.repeat for result in results] == [1, 2]
    assert all(result.completed for result in results)
    assert grid.spec.parameters == ("repeat",)
    assert grid.spec.schemes == (LIVE_SCHEME,)
    assert grid.spec.links == (LIVE_LINK,)
    assert len(grid.points) == 2


def test_live_results_render_as_a_table(live_suite):
    _, results = live_suite
    text = render_live_results(results)
    assert "Live loopback" in text
    assert "tput (kbps)" in text
    assert text.count("yes") == len(results)


def test_live_grid_exports_parse_through_schema_v4(live_suite):
    """The whole point of the SchemeResult packaging: existing parsers apply."""
    grid, results = live_suite
    rows = parse_csv(export_csv(grid))
    assert len(rows) == len(results)
    assert {row["scheme"] for row in rows} == {LIVE_SCHEME}
    assert {row["link"] for row in rows} == {LIVE_LINK}
    assert {row["repeat"] for row in rows} == {1.0, 2.0}

    payload = parse_json(export_json(grid))
    rebuilt = grid_data_from_json(export_json(grid))
    assert payload["kind"] == "grid"
    assert rebuilt.spec.parameters == ("repeat",)
    extra = rebuilt.points[0].results[0].extra
    assert extra["live_completed"] == 1.0
    assert extra["live_transfer_bytes"] == float(TRANSFER_BYTES)


def test_scheme_result_extra_carries_the_transport_counters(live_suite):
    _, results = live_suite
    extra = results[0].to_scheme_result().extra
    for key in (
        "live_repeat",
        "live_datagrams_sent",
        "live_retransmits",
        "live_injected_drops",
        "live_lost_forever",
        "live_duplicates",
    ):
        assert key in extra


def test_live_grid_data_rejects_empty_results():
    with pytest.raises(ValueError):
        live_grid_data([])


# ------------------------------------------------------------- config guard


@pytest.mark.parametrize(
    "kwargs",
    [
        {"transfer_bytes": 0},
        {"repeats": 0},
        {"loss_rate": 1.0},
        {"loss_rate": -0.1},
        {"deadline": 0.0},
        {"watchdog": -1.0},
        {"impair": "bogus:p=0.1"},
        {"impair": "ge:p=2"},
    ],
)
def test_live_config_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        LiveConfig(**kwargs)


def test_live_config_watchdog_resolution():
    from repro.transport.endpoint import default_watchdog

    assert LiveConfig(deadline=12.0).resolved_watchdog() == pytest.approx(3.0)
    assert LiveConfig(deadline=100.0).resolved_watchdog() == 4.0  # clamped high
    assert LiveConfig(deadline=1.0).resolved_watchdog() == 0.5  # clamped low
    assert LiveConfig(watchdog=0.0).resolved_watchdog() is None  # 0 disables
    assert LiveConfig(watchdog=2.5).resolved_watchdog() == 2.5
    assert default_watchdog(12.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        default_watchdog(0.0)


# ----------------------------------------------------- hardened lifecycle


def test_close_handshake_is_acknowledged():
    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    result = run_live_transfer(
        LiveConfig(transfer_bytes=16 * 1024, repeats=1, deadline=10.0), repeat=1
    )
    assert result.completed and result.closed
    assert result.close_acked  # CLOSE/CLOSE-ACK completed, not fire-and-forget
    assert result.event_counts.get("close_received", 0) == 1
    assert result.failure == ""


def test_watchdog_aborts_when_the_peer_goes_silent():
    import socket as socket_module

    from repro.transport.endpoint import SenderEndpoint, TransferAborted
    from repro.transport.endpoint import shared_monotonic_clock

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    # a bound-but-mute socket: datagrams vanish, nothing ever answers
    sink = socket_module.socket(socket_module.AF_INET, socket_module.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    try:
        clock = shared_monotonic_clock()
        sender = SenderEndpoint(
            ("127.0.0.1", sink.getsockname()[1]),
            32 * 1024,
            clock,
            deadline=30.0,
            watchdog=0.6,
        )
        with pytest.raises(TransferAborted) as excinfo:
            sender.run()
    finally:
        sink.close()
    diagnosis = excinfo.value.diagnosis
    assert diagnosis.reason in ("peer-inactivity", "no-progress")
    assert 0.5 < diagnosis.elapsed_s < 5.0  # watchdog time, not the deadline
    assert diagnosis.datagrams_sent > 0
    assert diagnosis.events


def test_receiver_crash_propagates_as_structured_failure(monkeypatch):
    import time

    from repro.transport import harness as harness_module

    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")

    def crashing_run(self):
        time.sleep(0.05)
        raise RuntimeError("synthetic receiver crash")

    monkeypatch.setattr(harness_module.ReceiverEndpoint, "run", crashing_run)
    start = time.monotonic()
    result = run_live_transfer(
        LiveConfig(transfer_bytes=1024 * 1024, repeats=1, deadline=20.0), repeat=1
    )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, "the sender must abort immediately, not wait out 20s"
    assert not result.completed
    assert result.failure == "receiver-failure"
    assert result.diagnosis is not None
    assert "synthetic receiver crash" in result.diagnosis.cause


def test_extras_surface_lifecycle_and_skip_counters():
    if not sockets_available():
        pytest.skip("loopback UDP sockets unavailable")
    result = run_live_transfer(
        LiveConfig(transfer_bytes=16 * 1024, repeats=1, deadline=10.0), repeat=1
    )
    extra = result.to_scheme_result().extra
    for key in (
        "live_ticks_skipped",
        "live_decode_errors",
        "live_close_acked",
        "live_close_retransmits",
        "live_quarantine_drops",
        "live_longest_stall_s",
        "live_failed",
    ):
        assert key in extra, key
    assert extra["live_close_acked"] == 1.0
    assert extra["live_failed"] == 0.0
    # event-ring kinds surface as live_ev_* counters
    assert extra.get("live_ev_close_received", 0.0) == 1.0


def test_render_includes_skip_and_decode_columns_and_failures():
    from repro.transport import LiveTransferResult
    from repro.transport.endpoint import TransferDiagnosis

    ok = LiveTransferResult(
        repeat=1, transfer_bytes=1000, completed=True, closed=True,
        duration_s=1.0, payload_bytes=1000, throughput_bps=8000.0,
        ticks_skipped=3, decode_errors=2,
    )
    failed = LiveTransferResult(
        repeat=2, transfer_bytes=1000, completed=False, closed=False,
        duration_s=2.0, payload_bytes=0, throughput_bps=0.0,
        failure="peer-inactivity",
        diagnosis=TransferDiagnosis(
            reason="peer-inactivity", role="sender", elapsed_s=2.0,
            last_heard_age_s=2.0, last_progress_age_s=2.0, datagrams_sent=10,
            feedback_received=0, decode_errors=0, total_retransmits=4,
            fast_retransmits=0, timeout_retransmits=4, rto_backoffs=2,
            outstanding=5, outstanding_bytes=500, ticks_skipped=0,
            quarantined_peers=0,
        ),
    )
    text = render_live_results([ok, failed])
    assert "skip" in text and "dec" in text
    assert "ABORT" in text
    assert "repeat 2 failed: peer-inactivity" in text
    assert "sender aborted: peer-inactivity" in text
