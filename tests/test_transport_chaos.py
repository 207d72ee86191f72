"""Chaos acceptance matrix for the live transport (``make test-chaos``).

Every impairment profile runs a real 64 KiB loopback transfer and must
end in one of exactly two ways: the transfer completes, or it aborts with
a populated :class:`~repro.transport.endpoint.TransferDiagnosis` — in
either case well inside half the configured deadline.  No profile may
ever exit by deadline expiry (the PR 9 failure mode this suite exists to
kill), and the impairment pipeline's recorded fates must replay
bit-identically under the same seed, which is what "identical seeds
reproduce identical transport counters" means for wall-clock runs.
"""

import pytest

from repro.transport import LiveConfig, run_live_transfer, sockets_available

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.transport,
    pytest.mark.skipif(
        not sockets_available(), reason="loopback UDP sockets unavailable"
    ),
]

TRANSFER_BYTES = 64 * 1024
DEADLINE = 12.0

#: the acceptance matrix: profile name -> --impair spec.  Blackouts are
#: anchored at 50 ms because a clean loopback 64 KiB transfer finishes in
#: ~100 ms — "mid-transfer" must mean mid-*transfer*, not mid-deadline.
PROFILES = {
    "clean": "",
    "bernoulli_loss": "loss:p=0.15",
    "ge_bursty_loss": "ge:p=0.08,burst=6",
    "reorder_jitter": "reorder:p=0.1,gap=4,hold=40ms",
    "duplication": "dup:p=0.2",
    "corruption_storm": "corrupt:p=0.35",
    "rate_throttle": "rate:bps=3mbit",
    "blackout_mid_transfer": "blackout:at=50ms,len=1.5s",
    "blackout_feedback_only": "blackout:at=50ms,len=1.5s,dir=down",
    "combined_adversary": "ge:p=0.05,burst=8;reorder:p=0.05,gap=3;dup:p=0.1;corrupt:p=0.15",
}

#: a permanent outage: the only acceptable outcome is a watchdog abort
BLACKHOLE = "blackout:at=10ms,len=60s"


def _run(spec: str, seed: int = 0):
    config = LiveConfig(
        transfer_bytes=TRANSFER_BYTES,
        repeats=1,
        deadline=DEADLINE,
        impair=spec,
        impair_seed=seed,
    )
    return run_live_transfer(config, repeat=1)


def _assert_clean_outcome(result):
    """Completed, or aborted with a diagnosis — never a deadline expiry."""
    if not result.completed:
        assert result.failure, "incomplete run must carry a structured failure"
        assert result.diagnosis is not None
        assert result.diagnosis.reason == result.failure
    assert result.duration_s < DEADLINE / 2, (
        f"took {result.duration_s:.2f}s, over half the {DEADLINE}s deadline"
    )
    assert result.event_counts.get("deadline_expired", 0) == 0
    # the seed-determinism gate: the recorded submissions replay to
    # bit-identical fates and counters through a fresh pipeline twin
    assert result.impair_replay_ok in (None, True)


@pytest.mark.parametrize("profile", sorted(PROFILES), ids=sorted(PROFILES))
def test_chaos_profile_completes_or_aborts_cleanly(profile):
    result = _run(PROFILES[profile])
    _assert_clean_outcome(result)
    # every listed profile is survivable at these parameters: the
    # hardened lifecycle should finish the transfer, not merely fail fast
    assert result.completed, (
        f"profile {profile} did not complete: {result.failure or 'deadline'}\n"
        + (result.diagnosis.describe() if result.diagnosis else "")
    )
    assert result.lost_forever == 0
    assert result.closed


def test_chaos_ge_drops_reach_the_drops_column_and_export():
    # the benchmark's `live` stage kind, dense enough to bite inside 64 KiB:
    # the `drops` column is the sender-side pipeline's drops, whatever stage
    # made them, not only `--loss`'s
    result = _run("ge:p=0.2,burst=4")
    assert result.completed
    up_drops = sum(
        count
        for action, count in result.impair_counters.items()
        if action.startswith("up_drop:")
    )
    assert result.injected_drops == up_drops > 0
    extra = result.to_scheme_result().extra
    assert extra["live_injected_drops"] == float(result.injected_drops)


def test_chaos_blackout_is_visible_in_metrics():
    result = _run(PROFILES["blackout_mid_transfer"])
    assert result.completed
    # the outage dominates the transfer's arrival timeline
    assert result.longest_stall_s > 1.0
    assert result.event_counts.get("blackout_enter", 0) >= 1
    assert result.event_counts.get("blackout_exit", 0) >= 1
    assert result.duration_s > 1.0  # the transfer actually spanned the outage


def test_chaos_corruption_storm_counts_decode_errors():
    result = _run(PROFILES["corruption_storm"])
    assert result.completed
    assert result.decode_errors > 0
    assert result.event_counts.get("decode_error", 0) == result.decode_errors
    # in-flight corruption must never quarantine the legitimate peer
    assert result.quarantine_drops == 0


def test_chaos_blackhole_aborts_with_diagnosis():
    result = _run(BLACKHOLE)
    assert not result.completed
    assert result.failure in ("peer-inactivity", "no-progress")
    diagnosis = result.diagnosis
    assert diagnosis is not None
    assert diagnosis.reason == result.failure
    assert diagnosis.elapsed_s < DEADLINE / 2
    # every datagram died inside the blackout before reaching sendto, but
    # the sender demonstrably kept trying until the watchdog called it
    assert diagnosis.total_retransmits > 0
    assert diagnosis.outstanding > 0  # it died with unacked data, and says so
    assert diagnosis.events, "the diagnosis carries the event-ring tail"
    assert diagnosis.events[-1].kind == "watchdog_abort"
    assert result.event_counts.get("deadline_expired", 0) == 0
    as_dict = diagnosis.as_dict()
    assert as_dict["reason"] == result.failure
    assert as_dict["events"]


def test_chaos_abort_reports_fast():
    # the watchdog derives from the deadline: deadline/4 clamped to [0.5, 4]
    result = _run(BLACKHOLE)
    assert result.duration_s < DEADLINE / 2
    assert result.duration_s >= 1.0  # it did wait for the watchdog, not crash
