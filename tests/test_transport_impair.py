"""Tests for the adversarial impairment pipeline (repro.transport.impair).

Three concerns: the spec grammar surfaces every malformed token as one
``ImpairSpecError``; each stage implements its advertised impairment; and
the whole pipeline is seed-deterministic — same seed + spec reproduce a
bit-identical datagram-fate sequence and counters, the chaos suite's
standing gate.  A Hypothesis suite drives the reorder+duplicate
interaction through the receiver-side ``ReorderWindow`` to check the
transport's dedup logic absorbs anything the pipeline can emit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.harness import LiveConfig, _pipelines
from repro.transport.impair import (
    EVENT_RING_LIMIT,
    EventRing,
    ImpairSpecError,
    ImpairmentPipeline,
    PeerQuarantine,
    QUARANTINE_THRESHOLD,
    StageSpec,
    build_pipelines,
    parse_impair_spec,
    parse_quantity,
)
from repro.transport.reliable import ReorderWindow
from repro.transport.wire import seq_in_window


# ------------------------------------------------------------- spec parsing


def test_parse_quantity_units():
    assert parse_quantity("0.05") == 0.05
    assert parse_quantity("1.5s") == 1.5
    assert parse_quantity("40ms") == pytest.approx(0.04)
    assert parse_quantity("3mbit") == 3e6
    assert parse_quantity("250kbit") == 250e3
    assert parse_quantity("1gbit") == 1e9
    assert parse_quantity("9600bps") == 9600.0
    with pytest.raises(ImpairSpecError):
        parse_quantity("fast")


def test_parse_spec_full_example():
    stages = parse_impair_spec("ge:p=0.05,burst=8;reorder:p=0.02;blackout:at=2s,len=1.5s")
    assert [s.kind for s in stages] == ["ge", "reorder", "blackout"]
    assert stages[0].param("p") == 0.05
    assert stages[0].param("burst") == 8.0
    assert stages[2].param("at") == 2.0
    assert stages[2].param("len") == 1.5
    assert all(s.direction == "both" for s in stages)


def test_parse_spec_direction_and_empty():
    assert parse_impair_spec("") == ()
    assert parse_impair_spec(" ; ; ") == ()
    (stage,) = parse_impair_spec("loss:p=0.1,dir=down")
    assert stage.direction == "down"
    assert stage.applies_to("down") and not stage.applies_to("up")


@pytest.mark.parametrize(
    "spec, fragment",
    [
        ("bogus:p=0.1", "unknown impairment stage"),
        ("loss:q=0.1", "unknown parameter"),
        ("loss:p", "not key=value"),
        ("loss:p=2", "must be in [0, 1)"),
        ("loss:p=-0.1", "must be in [0, 1)"),
        ("ge:burst=0.5", "burst must be >= 1"),
        ("rate:queue=4096", "missing required parameter"),
        ("blackout:at=1s", "missing required parameter"),
        ("rate:bps=-3mbit", "must be positive"),
        ("loss:p=0.1,dir=sideways", "dir must be one of"),
        ("reorder:hold=banana", "cannot parse quantity"),
    ],
)
def test_parse_spec_rejects_bad_tokens(spec, fragment):
    with pytest.raises(ImpairSpecError) as excinfo:
        parse_impair_spec(spec)
    assert fragment in str(excinfo.value)


def test_build_pipelines_direction_split():
    up, down = build_pipelines("loss:p=0.1,dir=up")
    assert up is not None and down is None
    up, down = build_pipelines("loss:p=0.1")
    assert up is not None and down is not None
    assert build_pipelines("") == (None, None)


# ------------------------------------------------------------- determinism


def _drive(pipeline, count=600, size=120, dt=0.002):
    delivered = 0
    for i in range(count):
        delivered += len(pipeline.submit(b"\x55" * size, i * dt))
    delivered += len(pipeline.pump(count * dt + 3600.0))
    return delivered


def test_same_seed_same_fates_and_counters():
    spec = "ge:p=0.2,burst=5;reorder:p=0.1,gap=3;dup:p=0.1;corrupt:p=0.05"
    a = ImpairmentPipeline(parse_impair_spec(spec), "up", seed=7)
    b = ImpairmentPipeline(parse_impair_spec(spec), "up", seed=7)
    delivered_a = _drive(a)
    delivered_b = _drive(b)
    assert a.fates == b.fates
    assert dict(a.counters) == dict(b.counters)
    assert delivered_a == delivered_b
    assert a.fates, "the adversarial spec must actually impair something"


def test_different_seed_different_fates():
    spec = parse_impair_spec("loss:p=0.3")
    a = ImpairmentPipeline(spec, "up", seed=1)
    b = ImpairmentPipeline(spec, "up", seed=2)
    _drive(a)
    _drive(b)
    assert a.fates != b.fates


def test_direction_decorrelates_fates():
    spec = parse_impair_spec("loss:p=0.3")
    up = ImpairmentPipeline(spec, "up", seed=1)
    down = ImpairmentPipeline(spec, "down", seed=1)
    _drive(up)
    _drive(down)
    assert up.fates != down.fates


def test_replay_determinism_check_passes_and_catches_tampering():
    pipeline = ImpairmentPipeline(
        parse_impair_spec("ge:p=0.15,burst=4;dup:p=0.1"), "up", seed=3
    )
    _drive(pipeline)
    assert pipeline.replay_determinism_check()
    pipeline.counters["drop:ge"] += 1  # simulated corruption of the record
    assert not pipeline.replay_determinism_check()


# ------------------------------------------- LiveConfig's one loss injector


def test_live_loss_rate_is_the_sender_side_loss_stage():
    up, down = _pipelines(LiveConfig(loss_rate=0.1, impair_seed=5), repeat=2)
    reference, _ = build_pipelines("loss:p=0.1,dir=up", seed=5 + 2)
    assert down is None  # sender-side only: feedback is untouched
    assert _drive(up, count=2000) == _drive(reference, count=2000)
    assert up.fates == reference.fates
    assert up.counters["drop:loss"] > 0
    assert dict(up.counters) == dict(reference.counters)


def test_live_loss_stage_comes_before_the_impair_spec():
    up, down = _pipelines(LiveConfig(loss_rate=0.1, impair="ge:p=0.02"), repeat=1)
    assert [stage.kind for stage in up.spec] == ["loss", "ge"]
    assert [stage.kind for stage in down.spec] == ["ge"]  # ge still both ways


def test_live_clean_config_builds_no_pipeline():
    # the no-pipeline fast path `transport.clean_goodput_mbps` measures
    assert _pipelines(LiveConfig(), repeat=1) == (None, None)


# ----------------------------------------------------------- stage behavior


def test_loss_stage_statistics():
    pipeline = ImpairmentPipeline(parse_impair_spec("loss:p=0.25"), "up", seed=0)
    delivered = _drive(pipeline, count=2000)
    assert 2000 * 0.65 < delivered < 2000 * 0.85
    assert pipeline.counters["drop:loss"] == 2000 - delivered


def test_ge_stage_drops_in_bursts():
    pipeline = ImpairmentPipeline(parse_impair_spec("ge:p=0.2,burst=8"), "up", seed=0)
    fates_by_index = set()
    for i in range(4000):
        if not pipeline.submit(b"x" * 50, i * 0.001):
            fates_by_index.add(i)
    loss_rate = len(fates_by_index) / 4000
    assert 0.1 < loss_rate < 0.35  # stationary rate near p
    # burstiness: a dropped datagram's successor is dropped far more often
    # than the stationary rate would predict
    followers = sum(1 for i in fates_by_index if i + 1 in fates_by_index)
    assert followers / max(1, len(fates_by_index)) > 0.5


def test_reorder_stage_holds_and_releases_by_gap():
    pipeline = ImpairmentPipeline(
        [StageSpec("reorder", (("p", 0.999999), ("gap", 2.0), ("hold", 50.0)))],
        "up",
        seed=0,
    )
    pipeline.start(0.0)
    assert pipeline.submit(b"first", 0.0) == []  # held (p ~ 1)
    assert pipeline.pending == 1
    # after two more datagrams pass, the held one re-enters the stream
    # (submit cascades a pump, so release can ride a later submission)
    released = list(pipeline.submit(b"second", 0.01))
    released += pipeline.submit(b"third", 0.02)
    released += pipeline.pump(0.03)
    assert b"first" in released


def test_reorder_stage_hold_backstop_releases_on_time():
    pipeline = ImpairmentPipeline(
        [StageSpec("reorder", (("p", 0.999999), ("gap", 100.0), ("hold", 0.05)))],
        "up",
        seed=0,
    )
    pipeline.start(0.0)
    pipeline.submit(b"lonely", 0.0)
    assert pipeline.pump(0.01) == []  # neither gap nor hold satisfied
    deadline = pipeline.next_deadline()
    assert deadline == pytest.approx(0.05)
    assert pipeline.pump(0.06) == [b"lonely"]  # wall-clock backstop


def test_corrupt_stage_mutates_but_preserves_length():
    pipeline = ImpairmentPipeline(
        [StageSpec("corrupt", (("p", 0.999999),))], "up", seed=0
    )
    pipeline.start(0.0)
    original = bytes(range(64))
    (mutated,) = pipeline.submit(original, 0.0)
    assert mutated != original
    assert len(mutated) == len(original)
    assert sum(1 for a, b in zip(mutated, original) if a != b) == 1


def test_rate_stage_paces_and_bounds_queue():
    # 8000 bps => a 100-byte datagram costs 0.1 s of budget
    pipeline = ImpairmentPipeline(
        [StageSpec("rate", (("bps", 8000.0), ("queue", 150.0)))], "up", seed=0
    )
    pipeline.start(0.0)
    assert pipeline.submit(b"a" * 100, 0.0) == [b"a" * 100]  # bucket empty: immediate
    assert pipeline.submit(b"b" * 100, 0.01) == []  # throttled into the queue
    assert pipeline.submit(b"c" * 100, 0.02) == []  # queue full (150 B): dropped
    assert pipeline.counters["drop:rate"] == 1
    assert pipeline.pump(0.05) == []
    assert pipeline.pump(0.11) == [b"b" * 100]


def test_blackout_stage_window_is_exact():
    ring = EventRing()
    pipeline = ImpairmentPipeline(
        parse_impair_spec("blackout:at=1s,len=0.5s"), "up", seed=0, ring=ring
    )
    pipeline.start(0.0)
    fates = {}
    for t in (0.5, 0.99, 1.0, 1.25, 1.49, 1.5, 2.0):
        fates[t] = bool(pipeline.submit(b"x", t))
    assert fates == {0.5: True, 0.99: True, 1.0: False, 1.25: False,
                     1.49: False, 1.5: True, 2.0: True}
    assert ring.counts["blackout_enter"] == 1
    assert ring.counts["blackout_exit"] == 1


# ------------------------------------------------- lifecycle helper classes


def test_event_ring_counts_survive_wraparound():
    ring = EventRing(limit=8)
    for i in range(100):
        ring.record(float(i), "tick")
    assert len(ring) == 8
    assert ring.counts["tick"] == 100
    assert ring.first_seen["tick"] == 0.0
    assert ring.last_seen["tick"] == 99.0
    assert [e.t for e in ring.tail(3)] == [97.0, 98.0, 99.0]
    assert EVENT_RING_LIMIT >= 8


def test_quarantine_silences_garbage_only_sources():
    quarantine = PeerQuarantine()
    garbage = ("10.0.0.1", 1111)
    legit = ("10.0.0.2", 2222)
    quarantine.note_valid(legit)
    crossed = [quarantine.note_malformed(garbage) for _ in range(QUARANTINE_THRESHOLD)]
    assert crossed.count(True) == 1 and crossed[-1]
    assert quarantine.is_quarantined(garbage)
    assert quarantine.drops == 1
    # a peer with even one valid frame is never quarantined, however many
    # of its datagrams arrive corrupted
    for _ in range(10 * QUARANTINE_THRESHOLD):
        assert not quarantine.note_malformed(legit)
    assert not quarantine.is_quarantined(legit)
    assert quarantine.quarantined_peers == 1


# --------------------------------------------- reorder+dup vs ReorderWindow


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=120),
    reorder_p=st.floats(min_value=0.0, max_value=0.9),
    dup_p=st.floats(min_value=0.0, max_value=0.9),
    gap=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reorder_dup_interaction_with_reorder_window(count, reorder_p, dup_p, gap, seed):
    """Whatever reorder+dup emit, the receiver window recovers exactly once each.

    Wire seqs ride through the pipeline as two-byte payloads; the window
    must accept each seq exactly once (duplicates counted, none lost —
    these stages never drop) and every emitted seq must satisfy
    ``seq_in_window`` relative to the ack point at its arrival or be a
    duplicate.
    """
    spec = [
        StageSpec("reorder", (("p", reorder_p), ("gap", float(gap)), ("hold", 1000.0))),
        StageSpec("dup", (("p", dup_p),)),
    ]
    pipeline = ImpairmentPipeline(spec, "up", seed=seed)
    pipeline.start(0.0)
    emitted = []
    for seq in range(count):
        emitted.extend(pipeline.submit(seq.to_bytes(2, "big"), seq * 0.001))
    emitted.extend(pipeline.pump(count * 0.001 + 10_000.0))
    assert pipeline.pending == 0

    window = ReorderWindow(first_seq=0)
    for datagram in emitted:
        seq = int.from_bytes(datagram, "big")
        in_window_before = seq_in_window(seq, window.ack_seq, 2**15)
        accepted = window.accept(seq)
        if accepted:
            assert in_window_before
    # nothing dropped: every seq delivered at least once, accepted exactly once
    assert window.unique_accepted == count
    assert window.ack_seq == count
    assert window.missing == 0
    dups = pipeline.counters.get("dup:dup", 0)
    assert len(emitted) == count + dups
    assert window.duplicates == dups
