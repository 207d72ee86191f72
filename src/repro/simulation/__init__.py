"""Deterministic discrete-event simulation substrate.

This package provides the building blocks every experiment in the
reproduction runs on: an event loop with a virtual clock, packets, queues,
and trace-driven links fed through propagation-delayed pipes.  The design
mirrors the paper's Cellsim testbed (Section 4.2): packets entering a direction are
delayed by the propagation delay, appended to a queue, and released from the
head of the queue according to a recorded trace of delivery opportunities.

All timing is in seconds (floats) on a virtual clock; nothing here touches
wall-clock time, so every run is exactly reproducible.
"""

from repro.simulation.event_loop import EventLoop
from repro.simulation.events import Event
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.queues import CoDelQueue, DropTailQueue, Queue
from repro.simulation.link import TraceDrivenLink
from repro.simulation.random import make_rng
from repro.simulation.endpoints import Host, HostContext, Protocol
from repro.simulation.path import (
    DEFAULT_PROPAGATION_DELAY,
    DuplexLinkConfig,
    DuplexPath,
    OneWayPipe,
)

__all__ = [
    "DEFAULT_PROPAGATION_DELAY",
    "Host",
    "HostContext",
    "Protocol",
    "Event",
    "EventLoop",
    "Packet",
    "MTU_BYTES",
    "Queue",
    "DropTailQueue",
    "CoDelQueue",
    "TraceDrivenLink",
    "DuplexLinkConfig",
    "DuplexPath",
    "OneWayPipe",
    "make_rng",
]
