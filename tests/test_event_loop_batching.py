"""Equivalence of the production event loop against the seed's scheduler.

The production :class:`~repro.simulation.event_loop.EventLoop` is a plain
heap of ``(time, sequence, event)`` entries with a float clock.  These tests
hold it to bit-identical observable behaviour — fire order, fire times, clock
positions, and the ``events_processed`` / ``pending_events`` accounting —
against :class:`UnbatchedEventLoop`, a copy of the seed's
one-heap-entry-per-event scheduler.  The production loop once coalesced
same-instant events into buckets, which is why the file and some test names
speak of batches; the properties still draw programs that pile events onto
one instant.

The property-based tests feed both loops arbitrary interleaved
``schedule_at`` / ``schedule_after`` programs (including reentrant
scheduling from inside callbacks, cancellations and staged ``run_until``)
generated by Hypothesis.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Tuple

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the [test] extra"
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.event_loop import EventLoop
from repro.simulation.events import Event


class UnbatchedEventLoop:
    """The seed implementation: one heap entry per event (reference only).

    The seed ordered :class:`Event` objects by ``(time, sequence)``; the heap
    holds that key explicitly, since events no longer define an order.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._processed = 0

    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        if time < self._now:
            raise ValueError("cannot schedule event in the past")
        event = Event(time=float(time), sequence=self._sequence, callback=callback, args=args)
        self._sequence += 1
        heapq.heappush(self._heap, (event.time, event.sequence, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self._now + delay, callback, *args)

    def run_until(self, end_time: float) -> None:
        if end_time < self._now:
            raise ValueError("end_time is before current time")
        while self._heap and self._heap[0][0] <= end_time:
            _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback(*event.args)
            self._processed += 1
        self._now = float(end_time)


# --------------------------------------------------------------- programs
#
# A "program" is a list of instructions interpreted against a loop.  Each
# scheduled event appends ``(label, fire_time)`` to a log and may itself
# schedule follow-up events (reentrancy) — the interesting case for
# ordering, because a same-time reschedule must land *after* every event
# already queued at that instant.

def _interpret(loop, program) -> dict:
    log: List[tuple] = []
    cancellable = []

    def make_callback(label: str, followups):
        def callback() -> None:
            log.append((label, loop.now()))
            for delay, sub_label in followups:
                loop.schedule_after(delay, make_callback(f"{label}/{sub_label}", []))

        return callback

    for op in program:
        kind = op[0]
        if kind == "at":
            _, time, label, followups = op
            if time >= loop.now():
                cancellable.append(loop.schedule_at(time, make_callback(label, followups)))
        elif kind == "after":
            _, delay, label, followups = op
            cancellable.append(loop.schedule_after(delay, make_callback(label, followups)))
        elif kind == "cancel":
            _, index = op
            if cancellable:
                cancellable[index % len(cancellable)].cancel()
        elif kind == "run_until":
            _, time = op
            if time >= loop.now():
                loop.run_until(time)
    return {
        "log": log,
        "now": loop.now(),
        "processed": loop.events_processed,
        "pending": loop.pending_events,
    }


def _assert_equivalent(program) -> None:
    batched = _interpret(EventLoop(), program)
    reference = _interpret(UnbatchedEventLoop(), program)
    assert batched == reference


_times = st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False)
# A coarse grid maximises same-instant collisions, where ties must break
# by scheduling order.
_grid_times = st.integers(min_value=0, max_value=8).map(lambda i: i * 0.5)
_labels = st.integers(min_value=0, max_value=99).map(str)
_followups = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.25]), _labels), max_size=2
)


def _ops(times):
    return st.one_of(
        st.tuples(st.just("at"), times, _labels, _followups),
        st.tuples(st.just("after"), times, _labels, _followups),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=50)),
        st.tuples(st.just("run_until"), times),
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(_ops(_grid_times), max_size=25))
def test_batched_loop_matches_reference_on_colliding_times(program):
    _assert_equivalent(program)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ops(_times), max_size=25))
def test_batched_loop_matches_reference_on_arbitrary_times(program):
    _assert_equivalent(program)


# ----------------------------------------------------- accounting regressions


def test_pending_events_counts_coalesced_events_individually():
    loop = EventLoop()
    for i in range(5):
        loop.schedule_at(1.0, lambda: None)
    assert loop.pending_events == 5
    loop.schedule_at(2.0, lambda: None)
    assert loop.pending_events == 6
    loop.run_until(1.0)
    assert loop.pending_events == 1
    assert loop.events_processed == 5


def test_events_processed_counts_each_coalesced_event():
    loop = EventLoop()
    fired = []
    for i in range(7):
        loop.schedule_at(3.0, fired.append, i)
    loop.run_until(10.0)
    assert fired == list(range(7))
    assert loop.events_processed == 7
    assert loop.pending_events == 0


def test_cancelled_events_stay_pending_until_drained_but_never_process():
    loop = EventLoop()
    keep = loop.schedule_at(1.0, lambda: None)
    drop = loop.schedule_at(1.0, lambda: None)
    drop.cancel()
    assert loop.pending_events == 2  # cancelled events still queued, as seed
    loop.run_until(1.0)
    assert loop.events_processed == 1
    assert loop.pending_events == 0
    assert not keep.cancelled


def test_same_time_reschedule_fires_after_existing_batch():
    loop = EventLoop()
    fired = []

    def resubmit() -> None:
        fired.append("first")
        loop.schedule_at(loop.now(), lambda: fired.append("resubmitted"))

    loop.schedule_at(1.0, resubmit)
    loop.schedule_at(1.0, lambda: fired.append("second"))
    loop.run_until(1.0)
    assert fired == ["first", "second", "resubmitted"]
    assert loop.events_processed == 3


def test_raising_callback_keeps_unfired_tail_schedulable():
    """An exception at one instant must not swallow the rest of it.

    Unfired same-time events stay in the heap when a callback raises; a
    caller that catches the error and resumes sees them fire.
    """

    def run(loop_cls):
        loop = loop_cls()
        fired = []

        def boom() -> None:
            fired.append("boom")
            raise RuntimeError("deliberate")

        loop.schedule_at(1.0, boom)
        loop.schedule_at(1.0, fired.append, "survivor")
        loop.schedule_at(2.0, fired.append, "later")
        with pytest.raises(RuntimeError):
            loop.run_until(3.0)
        state_mid = (list(fired), loop.pending_events, loop.events_processed)
        loop.run_until(3.0)  # caller catches and resumes
        return state_mid, (list(fired), loop.pending_events, loop.events_processed)

    assert run(EventLoop) == run(UnbatchedEventLoop)
    (_, resumed) = run(EventLoop)
    assert resumed == (["boom", "survivor", "later"], 0, 2)


# ---------------------------------------------------- drained instants
#
# An event scheduled *at* an instant the clock has already drained — by a
# finished run or by a raising callback — must still fire, and the
# past/future check must judge a time by its ``float()`` value.  The
# bucketed loop once lost such events to stale buckets.

def test_schedule_at_drained_instant_fires_in_next_run():
    loop = EventLoop()
    fired = []
    loop.schedule_at(1.0, fired.append, "first")
    loop.run_until(1.0)
    assert fired == ["first"]
    # The t=1.0 instant has been drained; the clock sits at 1.0.
    loop.schedule_at(1.0, fired.append, "after-drain")
    assert loop.pending_events == 1
    loop.run_until(1.0)
    assert fired == ["first", "after-drain"]
    assert loop.pending_events == 0


def test_schedule_at_instant_drained_by_raising_callback():
    loop = EventLoop()
    fired = []

    def boom() -> None:
        fired.append("boom")
        raise RuntimeError("deliberate")

    loop.schedule_at(1.0, boom)
    with pytest.raises(RuntimeError):
        loop.run_until(2.0)
    # Clock stopped at the failed instant; scheduling there again must work.
    loop.schedule_at(1.0, fired.append, "retry")
    loop.run_until(2.0)
    assert fired == ["boom", "retry"]
    assert loop.pending_events == 0


def test_past_time_scheduling_rejected_explicitly():
    loop = EventLoop()
    loop.schedule_at(1.0, lambda: None)
    loop.run_until(1.0)
    with pytest.raises(ValueError, match="in the past"):
        loop.schedule_at(0.999999999, lambda: None)
    with pytest.raises(ValueError, match="non-negative"):
        loop.schedule_after(-0.001, lambda: None)
    # Exactly "now" is not the past.
    loop.schedule_at(1.0, lambda: None)
    loop.schedule_after(0.0, lambda: None)
    assert loop.pending_events == 2


def test_past_time_check_uses_float_conversion():
    """The past/future decision is made on ``float(time)``, the heap key.

    A time type whose raw comparison disagrees with its float conversion
    must be judged by the converted value — otherwise an event could be
    accepted under one reading and keyed (or rejected) under the other.
    """

    class WeirdTime:
        """Compares below everything, converts to a schedulable float."""

        def __float__(self) -> float:
            return 1.0

        def __lt__(self, other: object) -> bool:
            return True

    loop = EventLoop()
    loop.schedule_at(1.0, lambda: None)
    loop.run_until(1.0)
    fired = []
    loop.schedule_at(WeirdTime(), fired.append, "weird")
    loop.run_until(1.0)
    assert fired == ["weird"]


@settings(max_examples=80, deadline=None)
@given(st.lists(_ops(_grid_times), max_size=20), st.integers(0, 7))
def test_no_event_scheduled_at_a_drained_instant_is_ever_lost(program, extra):
    """Hypothesis pin for events lost at an already-drained instant.

    After an arbitrary program, schedule a burst of events at exactly the
    loop's current instant and drain: every one must fire, on both loops,
    with identical order and accounting.
    """

    def finish(loop):
        state = _interpret(loop, program)
        tail: List[tuple] = []
        for i in range(extra):
            loop.schedule_at(loop.now(), lambda i=i: tail.append((i, loop.now())))
        # Later than anything a grid program schedules: 4.0 + 4.0 + 1.25.
        loop.run_until(10.0)
        return state["log"], tail, loop.events_processed, loop.pending_events

    batched = finish(EventLoop())
    reference = finish(UnbatchedEventLoop())
    assert batched == reference
    assert batched[3] == 0  # nothing left queued
    assert [i for i, _ in batched[1]] == list(range(extra))


# ------------------------------------------------------- stop_before (PR 7)
#
# ``run_until(..., stop_before=event)`` is the batched cross-cell engine's
# stepping primitive (docs/performance.md, Layer 4): it pauses a cell's
# loop exactly before a chosen event fires so the driver can pre-compute
# that instant's work across many cells, then resume.

def test_stop_before_pauses_exactly_before_target():
    loop = EventLoop()
    fired = []
    loop.schedule_at(0.5, fired.append, "early")
    loop.schedule_at(1.0, fired.append, "a")
    target = loop.schedule_at(1.0, fired.append, "target")
    loop.schedule_at(1.0, fired.append, "b")
    loop.schedule_at(2.0, fired.append, "later")

    stopped = loop.run_until(3.0, stop_before=target)
    assert stopped is True
    assert fired == ["early", "a"]
    assert loop.pending_events == 3  # target, "b", "later" all still queued

    # Resuming without the stop drains the rest in the original order.
    assert loop.run_until(3.0) is False
    assert fired == ["early", "a", "target", "b", "later"]
    assert loop.now() == 3.0
    assert loop.pending_events == 0


def test_stop_before_repeated_stop_and_resume():
    loop = EventLoop()
    fired = []
    target = loop.schedule_at(1.0, fired.append, "target")
    assert loop.run_until(2.0, stop_before=target) is True
    # Stopping again before the same still-queued event is an immediate no-op.
    assert loop.run_until(2.0, stop_before=target) is True
    assert fired == []
    assert loop.run_until(2.0) is False
    assert fired == ["target"]


def test_stop_before_ignores_cancelled_and_missing_targets():
    loop = EventLoop()
    fired = []
    cancelled = loop.schedule_at(1.0, fired.append, "cancelled")
    loop.schedule_at(1.0, fired.append, "kept")
    cancelled.cancel()
    assert loop.run_until(2.0, stop_before=cancelled) is False
    assert fired == ["kept"]
    # An already-fired (absent) target never stops a later run.
    beyond = loop.schedule_at(5.0, fired.append, "beyond")
    assert loop.run_until(3.0, stop_before=beyond) is False
    assert loop.now() == 3.0
    assert loop.run_until(5.0, stop_before=beyond) is True
    loop.run_until(5.0)
    assert fired == ["kept", "beyond"]


def test_stop_before_keeps_accounting_and_same_time_appends_exact():
    loop = EventLoop()
    fired = []

    def reschedule() -> None:
        fired.append("head")
        loop.schedule_at(loop.now(), fired.append, "reentrant")

    loop.schedule_at(1.0, reschedule)
    target = loop.schedule_at(1.0, fired.append, "target")
    assert loop.run_until(1.0, stop_before=target) is True
    assert fired == ["head"]
    assert loop.events_processed == 1
    assert loop.pending_events == 2  # target + the reentrant append
    loop.run_until(1.0)
    # The target still precedes the event the reschedule queued.
    assert fired == ["head", "target", "reentrant"]
    assert loop.pending_events == 0
