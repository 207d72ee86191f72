"""Packet representation shared by every protocol in the reproduction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: MTU-sized packet, the unit the paper uses throughout (Section 3.1: rates
#: are expressed in MTU-sized packets per second; the Saturator sends
#: MTU-sized packets).
MTU_BYTES = 1500

_packet_ids = itertools.count()


@dataclass
class Packet:
    """A simulated packet.

    Protocol-specific headers (Sprout forecasts, TCP sequence/ack numbers,
    videoconference frame ids, ...) travel in :attr:`headers`, a plain dict.
    Timing fields are filled in by the components the packet traverses so
    that metrics can be computed afterwards without any extra bookkeeping by
    the protocols themselves.
    """

    size: int = MTU_BYTES
    flow_id: str = "flow-0"
    headers: Dict[str, Any] = field(default_factory=dict)

    #: unique id, assigned automatically; used for tie-breaking and debugging
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    #: time the sending protocol handed the packet to the network
    sent_at: Optional[float] = None
    #: time the packet entered the bottleneck queue (after propagation delay)
    enqueued_at: Optional[float] = None
    #: time the packet left the bottleneck queue (dequeued by the link)
    dequeued_at: Optional[float] = None
    #: time the packet reached the receiving protocol
    delivered_at: Optional[float] = None
    #: set to True if a queue or loss process dropped the packet
    dropped: bool = False

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    @property
    def queueing_delay(self) -> Optional[float]:
        """Time spent in the bottleneck queue, if the packet has left it."""
        if self.enqueued_at is None or self.dequeued_at is None:
            return None
        return self.dequeued_at - self.enqueued_at

    @property
    def one_way_delay(self) -> Optional[float]:
        """End-to-end delay from send to delivery, if delivered."""
        if self.sent_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at
