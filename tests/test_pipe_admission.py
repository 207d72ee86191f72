"""Equivalence of the event-free propagation delay against the stepped pipe.

The production :class:`~repro.simulation.path.OneWayPipe` spends no event on
a packet's propagation delay: it hands ``(now + delay, packet)`` to the
link's arrival FIFO, and the link admits due arrivals — loss draw, then
``enqueue`` at the arrival time — at its next opportunity or at the next
read of a counter.  These tests hold it to the identical ``(time, packet)``
delivery sequence, the identical per-packet fate (``dropped``,
``enqueued_at``, ``dequeued_at``) and the identical counters — at probe
times inside a run and at every ``run_until``'s end — against
:class:`_SteppedPipe`, the pipe as it was before: one delay event per packet
whose callback draws the loss and calls :meth:`TraceDrivenLink.receive`.

Opportunity, arrival and probe times are continuous (seeded uniform draws),
as in every trace the repository generates, so no arrival or probe shares an
instant with an opportunity, except a zero-delay echo sent from a delivery,
whose order both pipes settle alike; the rule at other ties is pinned
separately below and in ``tests/test_link.py``.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

import pytest

hypothesis = pytest.importorskip(
    "hypothesis", reason="property-based tests need the [test] extra"
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import run_cells
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.simulation.event_loop import EventLoop
from repro.simulation.link import TraceDrivenLink
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.path import DEFAULT_PROPAGATION_DELAY, OneWayPipe
from repro.simulation.queues import AQM_CODEL, AQM_DROP_TAIL, Queue, QueueConfig
from repro.simulation.random import make_rng


class _SteppedPipe:
    """The pipe before the arrival FIFO: one delay event per packet (reference only)."""

    def __init__(
        self,
        loop: EventLoop,
        trace: Sequence[float],
        deliver: Callable[[Packet, float], None],
        propagation_delay: float,
        loss_rate: float,
        queue_config: QueueConfig,
        rng,
    ) -> None:
        self._loop = loop
        self.propagation_delay = propagation_delay
        self.loss_rate = loss_rate
        self._rng = rng
        self.packets_lost = 0
        self.packets_offered = 0
        self.link = TraceDrivenLink(loop, trace, deliver, queue=queue_config.build())

    @property
    def queue(self) -> Queue:
        return self.link.queue

    def send(self, packet: Packet, now: float) -> None:
        self.packets_offered += 1
        self._loop.schedule_after(self.propagation_delay, self._after_propagation, packet)

    def _after_propagation(self, packet: Packet) -> None:
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            packet.dropped = True
            self.packets_lost += 1
            return
        self.link.receive(packet, self._loop.now())


def _fifo_pipe(loop, trace, deliver, propagation_delay, loss_rate, queue_config, rng):
    return OneWayPipe(
        loop,
        trace,
        deliver,
        propagation_delay=propagation_delay,
        loss_rate=loss_rate,
        queue_config=queue_config,
        rng=rng,
    )


QUEUES = {
    "droptail": QueueConfig(aqm=AQM_DROP_TAIL),
    "droptail-4500B": QueueConfig(aqm=AQM_DROP_TAIL, byte_limit=4500),
    "codel": QueueConfig(aqm=AQM_CODEL),
    "codel-4500B": QueueConfig(aqm=AQM_CODEL, byte_limit=4500),
}


class _Outcome:
    """What one pipe did with a scenario, in the terms the tests compare."""

    def __init__(self) -> None:
        self.deliveries: List[tuple] = []
        self.snapshots: List[tuple] = []
        self.fates: List[tuple] = []
        self.events = 0


def _play(
    pipe_factory,
    trace,
    sends,
    probes,
    stages,
    delay=DEFAULT_PROPAGATION_DELAY,
    loss_rate=0.0,
    queue="droptail",
    seed=0,
    read_in_delivery=False,
):
    """Run one scenario through a real event loop.

    ``sends`` are ``(time, size, echo)``: the packet enters the pipe at
    ``time``; with ``echo`` set, its delivery callback sends one more small
    packet into the same pipe.  ``probes`` read the counters inside the run,
    ``stages`` are successive ``run_until`` end times, each followed by a read;
    ``read_in_delivery`` reads them from every delivery callback too.
    """
    loop = EventLoop()
    outcome = _Outcome()
    packets: List[Packet] = []

    def new_packet(size: int, echo: bool) -> Packet:
        packet = Packet(size=size, headers={"n": len(packets), "echo": echo})
        packets.append(packet)
        return packet

    readers = (
        lambda: pipe.link.opportunities,
        lambda: pipe.link.wasted_opportunities,
        lambda: pipe.link.bytes_delivered,
        lambda: pipe.link.packets_delivered,
        lambda: pipe.queue.drops,
        lambda: pipe.queue.enqueues,
        lambda: len(pipe.queue),
        lambda: pipe.queue.byte_length(),
        lambda: pipe.packets_lost,
        lambda: pipe.packets_offered,
    )

    def snapshot() -> None:
        # Each read in turn goes first, so each must settle on its own.
        first = len(outcome.snapshots) % len(readers)
        values = {k: readers[k]() for k in range(first, len(readers))}
        values.update({k: readers[k]() for k in range(first)})
        outcome.snapshots.append((loop.now(), *(values[k] for k in range(len(readers)))))

    def deliver(packet: Packet, now: float) -> None:
        outcome.deliveries.append((now, packet.headers["n"], packet.size))
        if packet.headers["echo"]:
            pipe.send(new_packet(100, False), now)
        if read_in_delivery:
            snapshot()

    pipe = pipe_factory(
        loop, trace, deliver, delay, loss_rate, QUEUES[queue], make_rng(seed, "pipe-loss")
    )

    for time, size, echo in sends:
        loop.schedule_at(time, pipe.send, new_packet(size, echo), time)
    for time in probes:
        loop.schedule_at(time, snapshot)
    for end in stages:
        loop.run_until(end)
        snapshot()
    outcome.fates = [
        (p.headers["n"], p.dropped, p.enqueued_at, p.dequeued_at) for p in packets
    ]
    outcome.events = loop.events_processed
    return outcome


def _opportunity_instants(trace: Sequence[float], horizon: float) -> set:
    """Every instant an opportunity falls on up to ``horizon``, as the link sums it."""
    times = sorted(float(t) for t in trace)
    duration = max(times[-1], 1e-9)
    instants = set()
    offset = 0.0
    while offset <= horizon:
        instants.update(offset + t for t in times)
        offset += duration
    return instants


def _assert_same(trace, sends, probes, stages, require=None, **kwargs) -> _Outcome:
    if require is not None:
        delay = kwargs.get("delay", DEFAULT_PROPAGATION_DELAY)
        arrivals = {t + delay for t, _, _ in sends}
        opportunities = _opportunity_instants(trace, stages[-1] + delay)
        require(arrivals.isdisjoint(opportunities))
        require(arrivals.isdisjoint(probes))
        require(opportunities.isdisjoint(probes))
    stepped = _play(_SteppedPipe, trace, sends, probes, stages, **kwargs)
    fifo = _play(_fifo_pipe, trace, sends, probes, stages, **kwargs)
    assert fifo.deliveries == stepped.deliveries
    assert fifo.snapshots == stepped.snapshots
    assert fifo.fates == stepped.fates
    assert fifo.events <= stepped.events
    return fifo


# ------------------------------------------------------------ property-based

#: a send's gap after the previous one, in trace periods: a burst at the
#: same instant, inside a period, longer than one, longer than several
GAP_SCALES = (0.0, 0.05, 0.4, 1.7, 4.3)
SIZES = (40, 100, MTU_BYTES, 2 * MTU_BYTES)
#: propagation delays in trace periods: none, short, longer than one period
DELAY_SCALES = (0.0, 0.013, 0.37, 1.3)


@st.composite
def scenarios(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    period = draw(st.sampled_from((0.25, 1.0, 3.0)))
    trace = sorted(rng.uniform(0.0, period) for _ in range(draw(st.integers(1, 40))))
    if draw(st.booleans()):
        # Several opportunities in the same instant, as millisecond traces have.
        trace += trace[: len(trace) // 3]
    delay_scale = draw(st.sampled_from(DELAY_SCALES))
    delay = delay_scale * period * rng.uniform(0.5, 1.5)

    sends = []
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
        sends.append((now, size, echo))

    horizon = (max(now, period) + delay) * 1.5 + rng.uniform(0.0, period)
    probes = [rng.uniform(0.0, horizon) for _ in range(draw(st.integers(0, 6)))]
    stages = sorted(rng.uniform(0.0, horizon) for _ in range(draw(st.integers(0, 2))))
    stages.append(horizon)
    return {
        "trace": trace,
        "sends": sends,
        "probes": probes,
        "stages": stages,
        "delay": delay,
        "loss_rate": draw(st.sampled_from((0.0, 0.3))),
        "queue": draw(st.sampled_from(sorted(QUEUES))),
        "seed": draw(st.integers(0, 3)),
        "read_in_delivery": draw(st.booleans()),
    }


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_fifo_pipe_matches_stepped_pipe(scenario):
    _assert_same(**scenario, require=assume)


# -------------------------------------------------------------- frozen cases


def _uniform_trace(seed: int, count: int, period: float) -> List[float]:
    rng = random.Random(seed)
    return sorted(rng.uniform(0.0, period) for _ in range(count))


def _bursts(seed: int) -> List[tuple]:
    rng = random.Random(seed)
    sends = []
    now = 0.0
    # burst, short gap, gap longer than one period, gap longer than several
    for gap, burst in ((0.013, 6), (0.21, 3), (1.37, 8), (4.61, 2), (0.003, 12), (7.9, 1)):
        now += gap
        for _ in range(burst):
            sends.append((now, rng.choice(SIZES), rng.random() < 0.3))
    return sends


@pytest.mark.parametrize("queue", sorted(QUEUES))
@pytest.mark.parametrize("loss_rate", (0.0, 0.2))
def test_bursts_and_gaps_across_several_wraps(queue, loss_rate):
    trace = _uniform_trace(1, 25, 1.0)
    rng = random.Random(2)
    probes = [rng.uniform(0.0, 20.0) for _ in range(12)]
    fifo = _assert_same(
        trace, _bursts(3), probes, [3.3, 9.9, 20.0], queue=queue, loss_rate=loss_rate
    )
    assert fifo.deliveries
    assert fifo.snapshots[-1][1] > 25 * 19  # the counters saw every cycle


@pytest.mark.parametrize("delay", (0.0, 0.020, 2.5))
def test_zero_short_and_long_delays(delay):
    trace = _uniform_trace(4, 30, 1.0)
    probes = [0.0101, 1.234, 5.5, 13.37]
    fifo = _assert_same(trace, _bursts(5), probes, [7.7, 30.0], delay=delay, loss_rate=0.1)
    assert fifo.snapshots[-1][-2] > 0  # the loss process drew


def test_counters_mid_flight_do_not_count_the_future():
    """A read while packets are in flight to a sleeping link counts no
    opportunity that lies between now and their arrival."""
    trace = _uniform_trace(6, 100, 1.0)
    sends = [(0.1234, MTU_BYTES, False), (0.1234, MTU_BYTES, False)]
    probes = [0.1235, 0.5, 1.6]
    fifo = _assert_same(trace, sends, probes, [1.7, 5.0], delay=1.5, loss_rate=0.4)
    at_send = sum(1 for t in trace if t <= 0.1235)
    assert fifo.snapshots[0][1:3] == (at_send, at_send)
    assert fifo.snapshots[0][-2:] == (0, 2)  # nothing has arrived, so nothing lost


def test_the_fifo_pipe_spends_no_event_on_the_delay():
    trace = _uniform_trace(7, 200, 1.0)
    sends = [(0.0123 + 0.9 * n, MTU_BYTES, False) for n in range(10)]
    stepped = _play(_SteppedPipe, trace, sends, [], [10.0])
    fifo = _play(_fifo_pipe, trace, sends, [], [10.0])
    assert fifo.deliveries == stepped.deliveries
    assert stepped.events == 30  # a send, a delay and an opportunity per packet
    assert fifo.events == 20


def _recording_pipe(trace, delay):
    loop = EventLoop()
    received = []
    pipe = OneWayPipe(
        loop,
        trace,
        lambda packet, now: received.append((now, packet.headers["n"])),
        propagation_delay=delay,
    )
    return loop, pipe, received


def _send_at(loop, pipe, time, packet):
    loop.schedule_at(time, lambda: pipe.send(packet, loop.now()))
    return packet


def test_same_instant_arrival_is_served_by_that_opportunity():
    """On an integer-millisecond trace an arrival can tie an opportunity;
    the opportunity serves it, whether the link slept or was busy."""
    loop, pipe, received = _recording_pipe([0.010, 0.030, 0.050], 0.020)
    # Idle link: packet 0, sent at 0.010, arrives at the opportunity at 0.030.
    _send_at(loop, pipe, 0.010, Packet(size=MTU_BYTES, headers={"n": 0}))
    _send_at(loop, pipe, 0.010, Packet(size=1000, headers={"n": 1}))
    # Busy link: packet 1 waits for 0.050, where packet 2 arrives; the
    # opportunity's 500 bytes of spare credit carry packet 2 at once.
    _send_at(loop, pipe, 0.030, Packet(size=100, headers={"n": 2}))
    loop.run_until(0.2)
    assert received == [(0.030, 0), (0.050, 1), (0.050, 2)]


def test_zero_delay_is_admitted_at_once_behind_earlier_arrivals():
    loop, pipe, received = _recording_pipe([0.5], 0.0)
    packets = [
        _send_at(loop, pipe, at, Packet(size=100, headers={"n": n}))
        for n, at in enumerate((0.1, 0.1, 0.2))
    ]
    loop.run_until(0.2)
    assert (len(pipe.queue), pipe.queue.enqueues) == (3, 3)  # due, so admitted
    assert [p.enqueued_at for p in packets] == [0.1, 0.1, 0.2]
    loop.run_until(1.0)
    assert received == [(0.5, 0), (0.5, 1), (0.5, 2)]


def test_negative_delay_is_refused():
    with pytest.raises(ValueError):
        OneWayPipe(EventLoop(), [0.1], lambda p, t: None, propagation_delay=-0.01)


# --------------------------------------------------------- engines agree


def test_lossy_sprout_cell_agrees_across_engines():
    """The batched engine drives the loop itself, without :meth:`Cellsim.run`;
    reads settle, so both engines count the same losses.  In this cell a
    packet due before the end of the run is lost, but no opportunity came
    to admit it: only the read at collection counts it."""
    config = RunConfig(duration=6.0, warmup=1.0, loss_rate=0.1)
    cell = ("Sprout", "Verizon 3G (1xEV-DO) downlink", config)
    serial = run_scheme_on_link(*cell)
    (batched,) = run_cells([cell], backend="batched")
    assert batched.as_dict() == serial.as_dict()
    assert serial.extra["forward_loss_drops"] > 0
