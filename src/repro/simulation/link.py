"""Trace-driven bottleneck link.

This is the heart of the Cellsim emulator (Section 4.2): packets are released
from the head of the queue according to a trace of delivery opportunities
previously recorded by the Saturator (or generated synthetically).  Each
opportunity is worth one MTU of bytes; if the queue is empty when an
opportunity occurs, the opportunity is wasted.  Accounting is done per byte
(footnote 6): a single 1500-byte opportunity can drain fifteen 100-byte
packets, and any unused credit is discarded once the queue is empty.

The link is *idle-skipping*: an opportunity event is pending only while the
queue is non-empty or a packet is on its way, so a run costs
O(busy opportunities) events rather than O(opportunities).  Waking from
sleep moves the trace cursor past every opportunity that went by meanwhile —
across cyclic wraps of a looping trace — and credits them as wasted in bulk;
reading ``opportunities`` / ``wasted_opportunities`` settles the same way, so
the counters are what one event per opportunity would have counted
(``tests/test_link_idle_skip.py`` holds the link to that eager reference).

Packets still in propagation cost no event either.  :meth:`arrive` appends
``(arrival time, packet)`` to the link's arrival FIFO; each opportunity first
*admits* every arrival due at or before its instant, in order — the
``admit`` hook (the pipe's Bernoulli loss draw), then ``queue.enqueue``
stamped with the arrival time — and then drains.  That is exact because the
propagation delay is constant, so arrival order is send order, and nothing
leaves the queue between two opportunities, so tail drop's byte count and
CoDel's ``enqueued_at`` see the state they would have seen at the arrival
instant.  A link with an empty queue and packets in flight sleeps until the
first opportunity at or after the head arrival.  Every read of the counters
or of :attr:`queue` first admits the arrivals due by ``now``
(``tests/test_pipe_admission.py`` holds the pipe to the stepped reference
that spent one event per packet on the delay).

Same-instant rule: an opportunity at the *exact* instant of an arrival
serves that arrival — a zero-delay packet sent at an opportunity's instant
included — whether the link was idle or busy.  Every trace this repository
generates has continuous uniform offsets, so no golden can see the rule;
integer-millisecond traces (``traces/format.py`` round-trips) can, and
``tests/test_link.py`` and ``tests/test_pipe_admission.py`` pin it on them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro.simulation.event_loop import EventLoop
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.queues import DropTailQueue, Queue


class TraceDrivenLink:
    """Releases queued packets at the times recorded in a delivery trace.

    Args:
        loop: event loop providing the virtual clock.
        delivery_times: sorted sequence of times (seconds) at which the link
            is able to deliver ``bytes_per_opportunity`` bytes.
        deliver: callback receiving ``(packet, now)`` for each released packet.
        queue: queue discipline feeding the link; a fresh unbounded
            :class:`DropTailQueue` by default.
        bytes_per_opportunity: bytes deliverable per trace entry (one MTU).
        loop_trace: if True, the trace is replayed cyclically so experiments
            may run longer than the recorded duration, as Cellsim does.
        admit: called with ``(packet, arrival_time)`` for each due arrival
            from :meth:`arrive`, in arrival order; ``queue.enqueue`` by
            default.
    """

    def __init__(
        self,
        loop: EventLoop,
        delivery_times: Sequence[float],
        deliver: Callable[[Packet, float], None],
        queue: Optional[Queue] = None,
        bytes_per_opportunity: int = MTU_BYTES,
        loop_trace: bool = True,
        admit: Optional[Callable[[Packet, float], object]] = None,
    ) -> None:
        if bytes_per_opportunity <= 0:
            raise ValueError("bytes_per_opportunity must be positive")
        if len(delivery_times) == 0:
            raise ValueError("delivery trace must contain at least one opportunity")
        self._loop = loop
        self._deliver = deliver
        self._queue = queue if queue is not None else DropTailQueue()
        self._admit_one = admit if admit is not None else self._queue.enqueue
        self.bytes_per_opportunity = bytes_per_opportunity
        self.loop_trace = loop_trace

        self._times: List[float] = sorted(float(t) for t in delivery_times)
        if self._times[0] < 0:
            raise ValueError("delivery times must be non-negative")
        self._trace_duration = max(self._times[-1], 1e-9)
        self._next_index = 0
        self._cycle_offset = 0.0
        self._credit = 0
        #: packets in propagation, as ``(arrival time, packet)`` in send order
        self._arrivals: Deque[Tuple[float, Packet]] = deque()
        #: the instant of the pending (or running) opportunity event, None
        #: while the link sleeps; it stays set for the whole handler, so a
        #: ``deliver`` callback that re-enters the link cannot schedule a
        #: second one
        self._pending_at: Optional[float] = None

        # Statistics used by the metrics layer.
        self._opportunities = 0
        self._wasted_opportunities = 0
        self.bytes_delivered = 0
        self.packets_delivered = 0

    # ----------------------------------------------------------- ingestion

    def receive(self, packet: Packet, now: float) -> None:
        """Packet arrives at the bottleneck now: append to the queue."""
        self._queue.enqueue(packet, now)
        if self._pending_at is None and len(self._queue) > 0:
            self._wake()

    def arrive(self, packet: Packet, at: float) -> None:
        """Packet will reach the bottleneck at ``at`` (``now`` or later)."""
        self._arrivals.append((at, packet))
        if self._pending_at is None:
            self._wake()

    # ----------------------------------------------------------- telemetry

    @property
    def queue(self) -> Queue:
        """The queue discipline, with every arrival due by ``now`` admitted."""
        self.settle()
        return self._queue

    @property
    def opportunities(self) -> int:
        """Delivery opportunities that have occurred so far."""
        self.settle()
        return self._opportunities

    @property
    def wasted_opportunities(self) -> int:
        """Opportunities that found the queue empty."""
        self.settle()
        return self._wasted_opportunities

    def settle(self) -> None:
        """Account for what a sleeping link has let go by up to ``now``.

        Credits the opportunities it slept through as wasted and admits the
        arrivals due by now — but nothing at or after the pending (or
        running) opportunity, which counts itself and admits its own.
        """
        # Up to and including this instant: an opportunity at exactly
        # ``run_until``'s end time has happened.
        limit = math.nextafter(self._loop.now(), math.inf)
        if self._pending_at is not None and self._pending_at < limit:
            limit = self._pending_at
        self._skip_elapsed(limit)
        if self._arrivals and self._arrivals[0][0] < limit:
            self._admit(limit)

    def _admit(self, limit: float) -> None:
        """Admit every arrival before ``limit``, in arrival order."""
        arrivals = self._arrivals
        admit = self._admit_one
        while arrivals and arrivals[0][0] < limit:
            at, packet = arrivals.popleft()
            admit(packet, at)

    # -------------------------------------------------------- trace replay

    def _seek(self, limit: float) -> Tuple[int, float, int]:
        """``(index, cycle offset, count)`` of the first opportunity at or
        after ``limit``, and how many lie between the cursor and it."""
        times = self._times
        count = len(times)
        index = self._next_index
        offset = self._cycle_offset
        skipped = 0
        while True:
            stop = bisect_left(times, limit - offset, index)
            # Opportunities happen at the float sum ``offset + t``, which may
            # round up onto ``limit`` where ``t < limit - offset`` holds.
            while stop > index and offset + times[stop - 1] >= limit:
                stop -= 1
            skipped += stop - index
            index = stop
            if index < count or not self.loop_trace:
                return index, offset, skipped
            offset += self._trace_duration
            index = 0

    def _skip_elapsed(self, limit: float) -> None:
        """Move the cursor past every opportunity before ``limit``.

        Each one found the queue empty: nothing was queued or due by then.
        """
        self._next_index, self._cycle_offset, skipped = self._seek(limit)
        self._opportunities += skipped
        self._wasted_opportunities += skipped

    def _wake(self) -> None:
        """Schedule the opportunity a sleeping link next has work for.

        That is the first one from now on with something queued, else the
        first at or after the head arrival.  Only elapsed opportunities are
        skipped here; those still ahead of the target are skipped when it
        fires (or by :meth:`settle` once they have gone by).
        """
        now = self._loop.now()
        self._skip_elapsed(now)
        due = now if len(self._queue) else self._arrivals[0][0]
        index, offset, _ = self._seek(due)
        if index < len(self._times):
            self._pending_at = offset + self._times[index]
            self._loop.schedule_at(self._pending_at, self._on_wake)

    def _on_wake(self) -> None:
        self._skip_elapsed(self._loop.now())
        self._on_opportunity()

    def _next_opportunity_time(self) -> Optional[float]:
        if self._next_index < len(self._times):
            return self._cycle_offset + self._times[self._next_index]
        if not self.loop_trace:
            return None
        # Wrap around: restart the trace after its full duration.
        self._cycle_offset += self._trace_duration
        self._next_index = 0
        return self._cycle_offset + self._times[self._next_index]

    def _on_opportunity(self) -> None:
        now = self._loop.now()
        self._next_index += 1
        self._opportunities += 1
        self._credit += self.bytes_per_opportunity
        if self._arrivals and self._arrivals[0][0] <= now:
            self._admit(math.nextafter(now, math.inf))

        queue = self._queue
        delivered_any = False
        while True:
            head = queue.peek()
            if head is None:
                break
            if head.size > self._credit:
                break
            packet = queue.dequeue(now)
            if packet is None:
                # The discipline (e.g. CoDel) dropped everything it popped.
                break
            self._credit -= packet.size
            self.bytes_delivered += packet.size
            self.packets_delivered += 1
            delivered_any = True
            self._deliver(packet, now)

        if len(queue) == 0:
            # Unused credit is wasted when there is nothing left to send
            # (footnote 6: an opportunity that finds an empty queue is lost);
            # the link sleeps until the next arrival.
            if not delivered_any:
                self._wasted_opportunities += 1
            self._credit = 0
            self._pending_at = None
            if self._arrivals:
                self._wake()
        else:
            t = self._next_opportunity_time()
            self._pending_at = t
            if t is not None:
                self._loop.schedule_at(t, self._on_opportunity)
