"""Event records used by the event loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(eq=False, slots=True)
class Event:
    """A single scheduled callback.

    The loop orders events by ``(time, sequence)``.  The sequence number is a
    monotonically increasing tiebreaker assigned by the event loop so that
    events scheduled for the same instant fire in FIFO order, which keeps the
    simulation deterministic.  An event is a handle to one scheduled call, so
    events compare by identity.
    """

    time: float
    sequence: int
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when it comes due."""
        self.cancelled = True
