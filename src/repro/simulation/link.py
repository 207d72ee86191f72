"""Trace-driven bottleneck link.

This is the heart of the Cellsim emulator (Section 4.2): packets are released
from the head of the queue according to a trace of delivery opportunities
previously recorded by the Saturator (or generated synthetically).  Each
opportunity is worth one MTU of bytes; if the queue is empty when an
opportunity occurs, the opportunity is wasted.  Accounting is done per byte
(footnote 6): a single 1500-byte opportunity can drain fifteen 100-byte
packets, and any unused credit is discarded once the queue is empty.

The link is *idle-skipping*: an opportunity event is pending only while the
queue is non-empty, so a run costs O(packets + busy opportunities) events
rather than O(opportunities).  A packet arriving at an idle link moves the
trace cursor past every opportunity that went by meanwhile — across cyclic
wraps of a looping trace — and credits them as wasted in bulk; reading
``opportunities`` / ``wasted_opportunities`` settles the same way, so the
counters are what one event per opportunity would have counted
(``tests/test_link_idle_skip.py`` holds the link to that eager reference).

One rule the eager link left to scheduling order: an opportunity at the
*exact* instant of an arrival at an idle link serves that arrival.  Every
trace this repository generates has continuous uniform offsets, so no golden
can see the rule; integer-millisecond traces (``traces/format.py``
round-trips) can, and ``tests/test_link.py`` pins it on one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, List, Optional, Sequence

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
    """

    def __init__(
        self,
        loop: EventLoop,
        delivery_times: Sequence[float],
        deliver: Callable[[Packet, float], None],
        queue: Optional[Queue] = None,
        bytes_per_opportunity: int = MTU_BYTES,
        loop_trace: bool = True,
    ) -> None:
        if bytes_per_opportunity <= 0:
            raise ValueError("bytes_per_opportunity must be positive")
        if len(delivery_times) == 0:
            raise ValueError("delivery trace must contain at least one opportunity")
        self._loop = loop
        self._deliver = deliver
        self.queue = queue if queue is not None else DropTailQueue()
        self.bytes_per_opportunity = bytes_per_opportunity
        self.loop_trace = loop_trace

        self._times: List[float] = sorted(float(t) for t in delivery_times)
        if self._times[0] < 0:
            raise ValueError("delivery times must be non-negative")
        self._trace_duration = max(self._times[-1], 1e-9)
        self._next_index = 0
        self._cycle_offset = 0.0
        self._credit = 0
        #: an opportunity event is pending or running; up for the whole
        #: handler, so a ``deliver`` callback that re-enters ``receive``
        #: cannot schedule a second one
        self._busy = False

        # Statistics used by the metrics layer.
        self._opportunities = 0
        self._wasted_opportunities = 0
        self.bytes_delivered = 0
        self.packets_delivered = 0

    # ----------------------------------------------------------- ingestion

    def receive(self, packet: Packet, now: float) -> None:
        """Packet arrives at the bottleneck: append to the queue."""
        self.queue.enqueue(packet, now)
        if not self._busy and len(self.queue) > 0:
            self._skip_elapsed(self._loop.now())
            self._schedule_next_opportunity()

    # ----------------------------------------------------------- telemetry

    @property
    def opportunities(self) -> int:
        """Delivery opportunities that have occurred so far."""
        self._settle()
        return self._opportunities

    @property
    def wasted_opportunities(self) -> int:
        """Opportunities that found the queue empty."""
        self._settle()
        return self._wasted_opportunities

    def _settle(self) -> None:
        """Account for the opportunities an idle link has slept through."""
        if not self._busy:
            # Up to and including this instant: an opportunity at exactly
            # ``run_until``'s end time has happened.
            self._skip_elapsed(math.nextafter(self._loop.now(), math.inf))

    # -------------------------------------------------------- trace replay

    def _skip_elapsed(self, limit: float) -> None:
        """Move the cursor past every opportunity before ``limit``.

        Only called with nothing queued, so each one is wasted.
        """
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
                break
            offset += self._trace_duration
            index = 0
        self._next_index = index
        self._cycle_offset = offset
        self._opportunities += skipped
        self._wasted_opportunities += skipped

    def _next_opportunity_time(self) -> Optional[float]:
        if self._next_index < len(self._times):
            return self._cycle_offset + self._times[self._next_index]
        if not self.loop_trace:
            return None
        # Wrap around: restart the trace after its full duration.
        self._cycle_offset += self._trace_duration
        self._next_index = 0
        return self._cycle_offset + self._times[self._next_index]

    def _schedule_next_opportunity(self) -> None:
        t = self._next_opportunity_time()
        self._busy = t is not None
        if t is not None:
            self._loop.schedule_at(t, self._on_opportunity)

    def _on_opportunity(self) -> None:
        now = self._loop.now()
        self._next_index += 1
        self._opportunities += 1
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
                # The discipline (e.g. CoDel) dropped everything it popped.
                break
            self._credit -= packet.size
            self.bytes_delivered += packet.size
            self.packets_delivered += 1
            delivered_any = True
            self._deliver(packet, now)

        if len(self.queue) == 0:
            # Unused credit is wasted when there is nothing left to send
            # (footnote 6: an opportunity that finds an empty queue is lost);
            # the link sleeps until the next arrival.
            if not delivered_any:
                self._wasted_opportunities += 1
            self._credit = 0
            self._busy = False
        else:
            self._schedule_next_opportunity()
