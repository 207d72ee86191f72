"""The discrete-event loop that drives every experiment.

Scheduling is *batched*: events that land on the same instant are coalesced
into one heap entry (a FIFO bucket), so a burst of events scheduled for one
instant costs one heap operation instead of one per event.
The observable semantics are unchanged from a plain per-event heap: events
fire in time order, ties break by scheduling order, and
``events_processed`` / ``pending_events`` count individual events, never
buckets.  ``tests/test_event_loop_batching.py`` holds this loop to
bit-identical behaviour against an unbatched reference implementation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.simulation.clock import Clock
from repro.simulation.events import Event


class _Batch:
    """All events scheduled for one instant, in FIFO order.

    Ordered by ``(time, order)`` where ``order`` is the creation index of the
    batch; a batch created later (e.g. by an event rescheduling at its own
    fire time) sorts after an earlier batch at the same instant, which is
    exactly the unbatched heap's sequence-number tiebreak.
    """

    __slots__ = ("time", "order", "events")

    def __init__(self, time: float, order: int, events: List[Event]) -> None:
        self.time = time
        self.order = order
        self.events = events

    def __lt__(self, other: "_Batch") -> bool:
        # Equivalent to comparing (time, order) tuples, without building
        # them: this comparison runs once per heap sift on the hot path.
        if self.time != other.time:
            return self.time < other.time
        return self.order < other.order


class EventLoop:
    """A priority-queue based discrete-event scheduler.

    Components schedule callbacks at absolute times (:meth:`schedule_at`) or
    relative delays (:meth:`schedule_after`); :meth:`run_until` advances the
    virtual clock, firing events in time order.  Ties are broken by insertion
    order, which makes runs deterministic for a fixed set of inputs.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = Clock(start)
        self._heap: List[_Batch] = []
        #: batches still accepting same-time appends, keyed by exact time
        self._open: Dict[float, _Batch] = {}
        self._sequence = 0
        self._batch_order = 0
        self._pending = 0
        self._processed = 0

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now()

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones).

        Counts individual events, not coalesced batches: five events
        scheduled for the same instant report as five pending events.
        """
        return self._pending

    # ------------------------------------------------------------ scheduling

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``time``.

        Scheduling in the past raises ``ValueError`` — a component asking for
        that has a logic error that would otherwise silently corrupt timing.
        Scheduling at exactly the current instant is allowed and the event
        always fires: if the bucket for this instant is mid-drain (or was
        already drained), the event lands in a fresh batch that the loop has
        not popped yet, never in a dead one (``_close`` evicts a bucket from
        ``_open`` the moment it is popped).
        """
        time = float(time)
        if time < self.clock._now:
            raise ValueError(
                f"cannot schedule event in the past: now={self.clock.now():.9f}, "
                f"requested={time:.9f}"
            )
        event = Event(time, self._sequence, callback, args)
        self._sequence += 1
        open_batches = self._open
        batch = open_batches.get(time)
        if batch is None:
            batch = _Batch(time, self._batch_order, [event])
            self._batch_order += 1
            open_batches[time] = batch
            heapq.heappush(self._heap, batch)
        else:
            batch.events.append(event)
        self._pending += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock._now + delay, callback, *args)

    # --------------------------------------------------------------- running

    def _close(self, batch: _Batch) -> None:
        """Stop routing same-time appends to a popped batch.

        Events scheduled at this instant from inside the batch's own
        callbacks open a fresh batch, which sorts after this one — the same
        ordering the unbatched heap gives later sequence numbers.
        """
        if self._open.get(batch.time) is batch:
            del self._open[batch.time]

    def _requeue_tail(self, batch: _Batch, index: int) -> None:
        """Put ``batch.events[index:]`` back at the front of its time slot.

        Keeps the batch's original order so the tail still precedes any
        batch opened at the same instant meanwhile; the unbatched loop gets
        this for free because unfired events simply stay in its heap.
        """
        if index >= len(batch.events):
            return
        rest = _Batch(batch.time, batch.order, batch.events[index:])
        heapq.heappush(self._heap, rest)
        if batch.time not in self._open:
            self._open[batch.time] = rest

    def _fire_batch(
        self,
        batch: _Batch,
        limit: Optional[int] = None,
        stop_before: Optional[Event] = None,
    ) -> tuple:
        """Fire a popped batch's events in FIFO order.

        Returns ``(fired, stopped)``.  Stops after ``limit`` fired events, or
        immediately *before* firing ``stop_before`` (identity comparison; a
        cancelled target is skipped like any cancelled event), re-queueing the
        rest either way.  A callback that raises also leaves the unfired tail
        queued (and ``pending_events`` exact), matching the unbatched loop
        where those events were never popped — the caller may catch the error
        and keep running.
        """
        events = batch.events
        count = len(events)
        fired = 0
        index = 0
        stopped = False
        advanced = False
        try:
            while index < count:
                if limit is not None and fired >= limit:
                    break
                event = events[index]
                # `event is stop_before` is never true for a None target,
                # so the explicit None check is folded into the identity
                # comparison on this per-event path.
                if event is stop_before and not event.cancelled:
                    stopped = True
                    break
                index += 1
                if event.cancelled:
                    continue
                if not advanced:
                    # One clock move covers the whole batch: every event in
                    # it shares batch.time, and callbacks never move the
                    # clock themselves.
                    self.clock.advance_to(batch.time)
                    advanced = True
                event.callback(*event.args)
                fired += 1
        finally:
            # Bookkeeping settles once per batch; on a raising callback the
            # counts cover exactly the events popped so far, matching the
            # unbatched loop where the tail was never popped.
            self._pending -= index
            self._processed += fired
            if index < count:
                self._requeue_tail(batch, index)
        return fired, stopped

    def run_until(self, end_time: float, stop_before: Optional[Event] = None) -> bool:
        """Run all events with ``time <= end_time`` and advance the clock.

        The clock finishes exactly at ``end_time`` even if the last event
        fires earlier, so periodic observers see a consistent end of run.

        With ``stop_before`` set, the loop pauses exactly before firing that
        event (leaving it and everything after it queued, the clock untouched)
        and returns ``True``; every event ordered ahead of it has fired, so a
        caller can inspect — or pre-compute work for — the paused instant and
        resume with another ``run_until`` call.  Returns ``False`` when the
        run reached ``end_time`` (the target was absent, cancelled, already
        fired, or scheduled later than ``end_time``).
        """
        if end_time < self.clock._now:
            raise ValueError(
                f"end_time {end_time:.9f} is before current time {self.clock.now():.9f}"
            )
        heap = self._heap
        open_batches = self._open
        pop = heapq.heappop
        fire = self._fire_batch
        while heap and heap[0].time <= end_time:
            batch = pop(heap)
            # _close(), inlined on the hot path.
            if open_batches.get(batch.time) is batch:
                del open_batches[batch.time]
            _, stopped = fire(batch, stop_before=stop_before)
            if stopped:
                return True
        self.clock.advance_to(end_time)
        return False

    def run_all(self, max_events: Optional[int] = None) -> None:
        """Run until the queue is empty (or ``max_events`` events have fired)."""
        fired = 0
        while self._heap:
            if max_events is not None and fired >= max_events:
                return
            batch = heapq.heappop(self._heap)
            self._close(batch)
            remaining = None if max_events is None else max_events - fired
            count, _ = self._fire_batch(batch, limit=remaining)
            fired += count
