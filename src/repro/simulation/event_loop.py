"""The discrete-event loop that drives every experiment.

One heap of ``(time, sequence, event)`` entries and one float clock.  The
``sequence`` number is unique, so events at one instant fire in scheduling
order and a heap comparison never reaches the :class:`Event` itself.
``tests/test_event_loop_batching.py`` holds this loop to a copy of the
seed's scheduler, kept as the reference.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.simulation.events import Event


class EventLoop:
    """A priority-queue based discrete-event scheduler.

    Components schedule callbacks at absolute times (:meth:`schedule_at`) or
    relative delays (:meth:`schedule_after`); :meth:`run_until` advances the
    virtual clock, firing events in time order.  Ties are broken by insertion
    order, which makes runs deterministic for a fixed set of inputs.  The
    clock never moves backwards and only the loop moves it.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0.0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)
        self._heap: List[Tuple[float, int, Event]] = []
        self._sequence = 0
        self._processed = 0

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------ scheduling

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run at absolute time ``time``.

        Scheduling in the past raises ``ValueError`` — a component asking for
        that has a logic error that would otherwise silently corrupt timing.
        Scheduling at exactly the current instant is allowed: the event fires
        after every event already queued for that instant.
        """
        time = float(time)
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: now={self._now:.9f}, "
                f"requested={time:.9f}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_after(self, delay: float, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    # --------------------------------------------------------------- running

    def run_until(self, end_time: float, stop_before: Optional[Event] = None) -> bool:
        """Run all events with ``time <= end_time`` and advance the clock.

        The clock finishes exactly at ``end_time`` even if the last event
        fires earlier, so periodic observers see a consistent end of run.
        An event is popped before its callback runs: if the callback raises,
        that event counts as neither pending nor processed, the clock stays
        at its time, and the events after it stay queued for the next call.

        With ``stop_before`` set, the loop pauses exactly before firing that
        event (leaving it and everything after it queued, the clock untouched)
        and returns ``True``; every event ordered ahead of it has fired, so a
        caller can inspect — or pre-compute work for — the paused instant and
        resume with another ``run_until`` call.  Returns ``False`` when the
        run reached ``end_time`` (the target was absent, cancelled, already
        fired, or scheduled later than ``end_time``).
        """
        if end_time < self._now:
            raise ValueError(
                f"end_time {end_time:.9f} is before current time {self._now:.9f}"
            )
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time, _, event = heap[0]
            if time > end_time:
                break
            if event.cancelled:
                pop(heap)
                continue
            if event is stop_before:
                return True
            pop(heap)
            self._now = time
            event.callback(*event.args)
            self._processed += 1
        self._now = float(end_time)
        return False
