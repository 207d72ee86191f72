"""Queue disciplines for the bottleneck link.

Two disciplines are provided:

* :class:`DropTailQueue` — the default behaviour of the paper's Cellsim: an
  (optionally bounded) FIFO that drops arriving packets when full.  Cellular
  networks are modelled with a very deep (effectively unbounded) buffer,
  which is what produces the "bufferbloat" delays the paper studies.
* :class:`CoDelQueue` — the CoDel active-queue-management algorithm
  (Nichols & Jacobson, ACM Queue 2012), following the published pseudocode.
  The paper adds CoDel to Cellsim's uplink and downlink queues to compare
  Sprout's end-to-end approach with an in-network deployment (Section 5.4).
  The dequeue-side state machine is held bit-for-bit against a direct
  transliteration of the published pseudocode by the differential suite in
  ``tests/test_codel_differential.py``.

:class:`QueueConfig` packages the choice of discipline and its parameters
into one picklable value, so the experiment layer (the ``aqm`` and
``qlimit`` grid axes, ``docs/scenarios.md``) can select the queue per cell
instead of it being fixed at link-build time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.simulation.packet import Packet


class Queue:
    """The FIFO every queue discipline shares, dropping at the tail when full.

    A queue holds packets between their arrival at the bottleneck (after the
    propagation delay) and their release by the trace-driven link.  The link
    calls :meth:`dequeue` once per packet it is able to deliver; the
    disciplines differ only in what that does.

    Args:
        byte_limit: maximum number of queued bytes; ``None`` means unbounded,
            matching the deep buffers of the cellular networks in the paper.
        on_drop: optional callback invoked with each dropped packet, used by
            experiments that count losses.
    """

    def __init__(
        self,
        byte_limit: Optional[int] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        if byte_limit is not None and byte_limit <= 0:
            raise ValueError(f"byte_limit must be positive or None, got {byte_limit}")
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.byte_limit = byte_limit
        self.on_drop = on_drop
        self.drops = 0
        self.enqueues = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Add ``packet`` to the queue.  Returns False if it was dropped."""
        if self.byte_limit is not None and self._bytes + packet.size > self.byte_limit:
            self._drop(packet)
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        self._bytes += packet.size
        self.enqueues += 1
        return True

    def _drop(self, packet: Packet) -> None:
        packet.dropped = True
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(packet)

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the next packet, or None if empty."""
        raise NotImplementedError

    def peek(self) -> Optional[Packet]:
        """Return the head-of-line packet without removing it."""
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def byte_length(self) -> int:
        """Total bytes currently queued."""
        return self._bytes


class DropTailQueue(Queue):
    """FIFO queue that drops arriving packets once a byte limit is reached.

    Unbounded by default: the deep cellular buffers that produce the
    "bufferbloat" delays the paper studies.
    """

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        packet.dequeued_at = now
        return packet


class CoDelQueue(Queue):
    """CoDel ("controlled delay") active queue management.

    Implementation of the dequeue-side algorithm from the CoDel pseudocode:
    the sojourn time of each departing packet is compared with ``target``
    (5 ms by default); once the sojourn time has stayed above the target for
    an ``interval`` (100 ms by default) the queue enters the dropping state
    and drops packets at increasing frequency (interval / sqrt(count)) until
    the sojourn time falls below the target.
    """

    TARGET = 0.005
    INTERVAL = 0.100
    MAX_PACKET = 1500

    def __init__(
        self,
        target: float = TARGET,
        interval: float = INTERVAL,
        byte_limit: Optional[int] = None,
        on_drop: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        if target <= 0 or interval <= 0:
            raise ValueError("CoDel target and interval must be positive")
        super().__init__(byte_limit=byte_limit, on_drop=on_drop)
        self.target = target
        self.interval = interval

        # CoDel state machine
        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._count = 0
        self._dropping = False

    # -------------------------------------------------------------- dequeue

    def _do_dequeue(self, now: float) -> tuple[Optional[Packet], bool]:
        """Pop a packet and report whether its sojourn time is acceptable.

        Returns ``(packet, ok_to_drop)`` following the pseudocode's
        ``dodeque`` helper.  ``ok_to_drop`` is True when the sojourn time has
        exceeded the target continuously for at least one interval.
        """
        if not self._queue:
            self._first_above_time = 0.0
            return None, False
        packet = self._queue.popleft()
        self._bytes -= packet.size
        sojourn = now - (packet.enqueued_at if packet.enqueued_at is not None else now)
        ok_to_drop = False
        if sojourn < self.target or self._bytes <= self.MAX_PACKET:
            # Went below target: leave the dropping-eligible state.
            self._first_above_time = 0.0
        else:
            if self._first_above_time == 0.0:
                self._first_above_time = now + self.interval
            elif now >= self._first_above_time:
                ok_to_drop = True
        return packet, ok_to_drop

    def dequeue(self, now: float) -> Optional[Packet]:
        packet, ok_to_drop = self._do_dequeue(now)
        if packet is None:
            self._dropping = False
            return None

        if self._dropping:
            if not ok_to_drop:
                # Sojourn time went below target: leave the dropping state.
                self._dropping = False
            elif now >= self._drop_next:
                while now >= self._drop_next and self._dropping:
                    self._drop(packet)
                    self._count += 1
                    packet, ok_to_drop = self._do_dequeue(now)
                    if not ok_to_drop:
                        self._dropping = False
                    else:
                        self._drop_next = self._control_law(self._drop_next)
                if packet is None:
                    return None
        elif ok_to_drop and (
            now - self._drop_next < self.interval
            or now - self._first_above_time >= self.interval
        ):
            self._drop(packet)
            packet, ok_to_drop = self._do_dequeue(now)
            self._dropping = True
            # Re-entering the dropping state soon after leaving it resumes
            # from (almost) the previous drop rate rather than restarting the
            # sqrt control law from count = 1.
            if now - self._drop_next < self.interval:
                self._count = self._count - 2 if self._count > 2 else 1
            else:
                self._count = 1
            self._drop_next = self._control_law(now)
            if packet is None:
                return None

        packet.dequeued_at = now
        return packet

    def _control_law(self, t: float) -> float:
        return t + self.interval / math.sqrt(self._count)


#: queue-discipline selectors for :class:`QueueConfig` (the ``aqm`` axis)
AQM_DROP_TAIL = 0
AQM_CODEL = 1


@dataclass(frozen=True)
class QueueConfig:
    """Picklable description of a bottleneck queue, buildable per cell.

    This is what the experiment layer sweeps: the ``aqm`` axis toggles the
    discipline, the ``qlimit`` axis sets the byte limit, and the resolved
    config travels (through :class:`~repro.traces.networks.LinkSpec` and the
    duplex-path config) into the link's queue construction.

    Attributes:
        aqm: :data:`AQM_DROP_TAIL` (0) or :data:`AQM_CODEL` (1); ``None``
            inherits the context's default (a scheme such as Cubic-CoDel may
            require CoDel even when only ``qlimit`` is swept).
        byte_limit: maximum queued bytes; ``None`` means the deep
            (effectively unbounded) buffer of the paper's cellular links,
            or an inherited context default where one exists.
        codel_target: CoDel's target sojourn time in seconds.
        codel_interval: CoDel's estimation interval in seconds.
    """

    aqm: Optional[int] = None
    byte_limit: Optional[int] = None
    codel_target: float = CoDelQueue.TARGET
    codel_interval: float = CoDelQueue.INTERVAL

    def __post_init__(self) -> None:
        if self.aqm not in (None, AQM_DROP_TAIL, AQM_CODEL):
            raise ValueError(
                f"aqm must be {AQM_DROP_TAIL} (drop-tail), {AQM_CODEL} (CoDel), "
                f"or None (inherit), got {self.aqm!r}"
            )
        if self.byte_limit is not None and self.byte_limit <= 0:
            raise ValueError(
                f"byte_limit must be positive or None, got {self.byte_limit}"
            )
        if self.codel_target <= 0 or self.codel_interval <= 0:
            raise ValueError("CoDel target and interval must be positive")

    def resolve(
        self, use_codel: bool = False, byte_limit: Optional[int] = None
    ) -> "QueueConfig":
        """This config with inherited fields filled from context defaults."""
        aqm = self.aqm
        if aqm is None:
            aqm = AQM_CODEL if use_codel else AQM_DROP_TAIL
        limit = self.byte_limit if self.byte_limit is not None else byte_limit
        return QueueConfig(
            aqm=aqm,
            byte_limit=limit,
            codel_target=self.codel_target,
            codel_interval=self.codel_interval,
        )

    def build(self, on_drop: Optional[Callable[[Packet], None]] = None) -> Queue:
        """Construct the described queue (``aqm=None`` builds drop-tail)."""
        if self.aqm == AQM_CODEL:
            return CoDelQueue(
                target=self.codel_target,
                interval=self.codel_interval,
                byte_limit=self.byte_limit,
                on_drop=on_drop,
            )
        return DropTailQueue(byte_limit=self.byte_limit, on_drop=on_drop)


def drain(queue: Queue, now: float) -> List[Packet]:
    """Remove and return every packet currently in ``queue``.

    Utility used by tests and by the tunnel when tearing down flows.
    """
    packets: List[Packet] = []
    while True:
        packet = queue.dequeue(now)
        if packet is None:
            return packets
        packets.append(packet)
