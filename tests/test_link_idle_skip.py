"""Equivalence of the idle-skipping link against the eager reference.

The production :class:`~repro.simulation.link.TraceDrivenLink` keeps an
opportunity event pending only while its queue is non-empty and accounts for
the opportunities it slept through in bulk.  These tests hold it to the
identical ``(time, packet)`` delivery sequence and the identical counters —
at probe times inside a run and at every ``run_until``'s end — against
:class:`_EagerLink`, a straight copy of the link as it was before: one
scheduled event per delivery opportunity, whether or not anything is queued.

Opportunity times and arrival times are continuous (seeded uniform draws),
as in every trace the repository generates, so no arrival or probe shares an
instant with an opportunity; the one rule that matters at such a tie is
pinned separately in ``tests/test_link.py``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the [test] extra"
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.simulation.event_loop import EventLoop
from repro.simulation.link import TraceDrivenLink
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.queues import CoDelQueue, DropTailQueue, Queue


class _EagerLink:
    """The link before idle skipping: one event per opportunity (reference only)."""

    def __init__(
        self,
        loop: EventLoop,
        delivery_times: Sequence[float],
        deliver: Callable[[Packet, float], None],
        queue: Optional[Queue] = None,
        bytes_per_opportunity: int = MTU_BYTES,
        loop_trace: bool = True,
    ) -> None:
        self._loop = loop
        self._deliver = deliver
        self.queue = queue if queue is not None else DropTailQueue()
        self.bytes_per_opportunity = bytes_per_opportunity
        self.loop_trace = loop_trace

        self._times: List[float] = sorted(float(t) for t in delivery_times)
        self._trace_duration = max(self._times[-1], 1e-9)
        self._next_index = 0
        self._cycle_offset = 0.0
        self._credit = 0

        self.opportunities = 0
        self.wasted_opportunities = 0
        self.bytes_delivered = 0
        self.packets_delivered = 0
        #: every instant an opportunity fired at (the tests keep clear of them)
        self.fired_at: List[float] = []

        self._schedule_next_opportunity()

    def receive(self, packet: Packet, now: float) -> None:
        self.queue.enqueue(packet, now)

    def _next_opportunity_time(self) -> Optional[float]:
        if self._next_index < len(self._times):
            return self._cycle_offset + self._times[self._next_index]
        if not self.loop_trace:
            return None
        self._cycle_offset += self._trace_duration
        self._next_index = 0
        return self._cycle_offset + self._times[self._next_index]

    def _schedule_next_opportunity(self) -> None:
        t = self._next_opportunity_time()
        if t is None:
            return
        t = max(t, self._loop.now())
        self._loop.schedule_at(t, self._on_opportunity)

    def _on_opportunity(self) -> None:
        now = self._loop.now()
        self.fired_at.append(now)
        self._next_index += 1
        self.opportunities += 1
        self._credit += self.bytes_per_opportunity

        delivered_any = False
        while True:
            head = self.queue.peek()
            if head is None:
                break
            if head.size > self._credit:
                break
            packet = self.queue.dequeue(now)
            if packet is None:
                break
            self._credit -= packet.size
            self.bytes_delivered += packet.size
            self.packets_delivered += 1
            delivered_any = True
            self._deliver(packet, now)

        if len(self.queue) == 0:
            if not delivered_any:
                self.wasted_opportunities += 1
            self._credit = 0

        self._schedule_next_opportunity()


QUEUES = {
    "droptail": DropTailQueue,
    "droptail-4500B": lambda: DropTailQueue(byte_limit=4500),
    "codel": CoDelQueue,
}


class _Outcome:
    """What one link did with a scenario, in the terms the tests compare."""

    def __init__(self) -> None:
        self.deliveries: List[tuple] = []
        self.snapshots: List[tuple] = []
        self.pending_at_end = 0
        self.events = 0
        self.fired_at: List[float] = []


def _play(link_cls, trace, arrivals, probes, stages, queue="droptail", loop_trace=True):
    """Run one scenario through a real event loop.

    ``arrivals`` are ``(time, size, echo)``: the packet reaches the link at
    ``time``; with ``echo`` set, its delivery callback re-enters ``receive``
    with one more small packet (the re-entrancy the endpoints never produce
    but the link has to survive).  ``probes`` read the counters inside the
    run, ``stages`` are successive ``run_until`` end times, each followed by
    a read.
    """
    loop = EventLoop()
    outcome = _Outcome()

    def deliver(packet: Packet, now: float) -> None:
        outcome.deliveries.append((now, packet.headers["n"], packet.size))
        if packet.headers.get("echo"):
            link.receive(Packet(size=100, headers={"n": -packet.headers["n"] - 1}), now)

    link = link_cls(loop, trace, deliver, queue=QUEUES[queue](), loop_trace=loop_trace)

    def snapshot() -> None:
        outcome.snapshots.append(
            (
                loop.now(),
                link.opportunities,
                link.wasted_opportunities,
                link.bytes_delivered,
                link.packets_delivered,
                link.queue.drops,
                link.queue.enqueues,
                len(link.queue),
            )
        )

    for n, (time, size, echo) in enumerate(arrivals):
        packet = Packet(size=size, headers={"n": n, "echo": echo})
        loop.schedule_at(time, link.receive, packet, time)
    for time in probes:
        loop.schedule_at(time, snapshot)
    for end in stages:
        loop.run_until(end)
        snapshot()
    outcome.pending_at_end = loop.pending_events
    outcome.events = loop.events_processed
    outcome.fired_at = getattr(link, "fired_at", [])
    return outcome


def _require(condition: bool) -> None:
    assert condition, "an arrival or a probe shares an instant with an opportunity"


def _assert_same(trace, arrivals, probes, stages, require=_require, **kwargs) -> _Outcome:
    eager = _play(_EagerLink, trace, arrivals, probes, stages, **kwargs)
    busy_instants = {t for t, _, _ in arrivals}.union(probes)
    require(busy_instants.isdisjoint(eager.fired_at))
    lazy = _play(TraceDrivenLink, trace, arrivals, probes, stages, **kwargs)
    assert lazy.deliveries == eager.deliveries
    assert lazy.snapshots == eager.snapshots
    assert lazy.events <= eager.events
    return lazy


# ------------------------------------------------------------ property-based

#: an arrival's gap after the previous one, in trace periods: a burst at the
#: same instant, inside a period, longer than one, longer than several
GAP_SCALES = (0.0, 0.05, 0.4, 1.7, 4.3)
SIZES = (40, 100, MTU_BYTES, 2 * MTU_BYTES)


@st.composite
def scenarios(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    period = draw(st.sampled_from((0.25, 1.0, 3.0)))
    trace = sorted(
        rng.uniform(0.0, period) for _ in range(draw(st.integers(1, 40)))
    )
    if draw(st.booleans()):
        # Several opportunities in the same instant, as millisecond traces have.
        trace += trace[: len(trace) // 3]

    arrivals = []
    now = 0.0
    for scale, size, echo in draw(
        st.lists(
            st.tuples(
                st.sampled_from(GAP_SCALES),
                st.sampled_from(SIZES),
                st.booleans(),
            ),
            max_size=40,
        )
    ):
        now += scale * period * rng.uniform(0.5, 1.5)
        arrivals.append((now, size, echo))

    horizon = max(now, period) * 1.5 + rng.uniform(0.0, period)
    probes = [rng.uniform(0.0, horizon) for _ in range(draw(st.integers(0, 6)))]
    stages = sorted(rng.uniform(0.0, horizon) for _ in range(draw(st.integers(0, 2))))
    stages.append(horizon)
    return {
        "trace": trace,
        "arrivals": arrivals,
        "probes": probes,
        "stages": stages,
        "queue": draw(st.sampled_from(sorted(QUEUES))),
        "loop_trace": draw(st.booleans()),
    }


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_idle_skipping_link_matches_eager_link(scenario):
    lazy = _assert_same(**scenario, require=assume)
    if not scenario["loop_trace"] and scenario["stages"][-1] > max(scenario["trace"]):
        # Nothing is left to wait for once a non-looping trace is exhausted.
        assert lazy.pending_at_end == 0


# -------------------------------------------------------------- frozen cases


def _uniform_trace(seed: int, count: int, period: float) -> List[float]:
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, period) for _ in range(count))


@pytest.mark.parametrize("queue", sorted(QUEUES))
def test_bursts_and_gaps_across_several_wraps(queue):
    trace = _uniform_trace(1, 25, 1.0)
    rng = random.Random(2)
    arrivals = []
    now = 0.0
    # burst, short gap, gap longer than one period, gap longer than several
    for gap, burst in ((0.013, 6), (0.21, 3), (1.37, 8), (4.61, 2), (0.003, 12), (7.9, 1)):
        now += gap
        for _ in range(burst):
            arrivals.append((now, rng.choice(SIZES), False))
    probes = [rng.uniform(0.0, 20.0) for _ in range(12)]
    lazy = _assert_same(trace, arrivals, probes, [3.3, 9.9, 20.0], queue=queue)
    assert lazy.deliveries
    assert lazy.snapshots[-1][1] > 25 * 19  # the counters saw every cycle


def test_fifteen_small_packets_share_an_opportunity_and_a_large_one_needs_two():
    trace = _uniform_trace(3, 4, 1.0)
    arrivals = [(0.001, 100, False)] * 15 + [(2.5, 2 * MTU_BYTES, False)]
    lazy = _assert_same(trace, arrivals, [0.5, 2.6, 2.9], [6.0])
    first = lazy.deliveries[0][0]
    assert [t for t, _, _ in lazy.deliveries[:15]] == [first] * 15
    assert lazy.deliveries[15][2] == 2 * MTU_BYTES


def test_arrivals_after_a_non_looping_trace_is_exhausted_schedule_nothing():
    trace = _uniform_trace(4, 5, 1.0)
    arrivals = [(0.0005, MTU_BYTES, False), (1.5, MTU_BYTES, False), (2.5, 100, True)]
    lazy = _assert_same(trace, arrivals, [0.7, 1.6, 2.6], [4.0], loop_trace=False)
    assert len(lazy.deliveries) == 1
    assert lazy.pending_at_end == 0
    assert lazy.snapshots[-1][1] == 5  # each opportunity counted exactly once


def test_reentrant_receive_from_the_delivery_callback():
    trace = _uniform_trace(5, 10, 1.0)
    arrivals = [(0.0001 + 0.37 * n, MTU_BYTES, True) for n in range(8)]
    lazy = _assert_same(trace, arrivals, [1.1, 2.2], [5.0])
    assert sum(1 for _, n, _ in lazy.deliveries if n < 0) == 8


def test_an_opportunity_at_exactly_the_end_time_counts():
    trace = [0.125, 0.5, 0.75]
    for end in (0.5, 0.75, 1.5, 1.75 + 0.5):
        eager = _play(_EagerLink, trace, [], [], [end])
        lazy = _play(TraceDrivenLink, trace, [], [], [end])
        assert lazy.snapshots == eager.snapshots
    # ... busy or idle: with a packet waiting for it, it also delivers.
    arrivals = [(0.25, MTU_BYTES, False)]
    eager = _play(_EagerLink, trace, arrivals, [], [0.5])
    lazy = _play(TraceDrivenLink, trace, arrivals, [], [0.5])
    assert lazy.deliveries == eager.deliveries == [(0.5, 0, MTU_BYTES)]
    assert lazy.snapshots == eager.snapshots


def test_the_idle_link_schedules_fewer_events():
    trace = _uniform_trace(6, 200, 1.0)
    arrivals = [(0.0123 + 0.9 * n, MTU_BYTES, False) for n in range(10)]
    eager = _play(_EagerLink, trace, arrivals, [], [10.0])
    lazy = _play(TraceDrivenLink, trace, arrivals, [], [10.0])
    assert lazy.deliveries == eager.deliveries
    assert lazy.snapshots == eager.snapshots
    assert eager.events >= 2000
    assert lazy.events == 20  # one arrival and one opportunity per packet
    assert lazy.pending_at_end == 0 and eager.pending_at_end == 1
