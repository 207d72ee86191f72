"""Assembly of a full duplex emulated path (the reproduction's Cellsim).

A :class:`OneWayPipe` models one direction of the cellular link exactly as
Section 4.2 describes Cellsim: propagation delay, then an optional Bernoulli
loss process at the queue tail, then the queue, released by the trace-driven
link.  A :class:`DuplexPath` pairs two pipes (uplink and downlink) between
two hosts.

The delay costs no event: :meth:`OneWayPipe.send` hands the packet to the
link's arrival FIFO stamped ``now + propagation_delay``, and the link admits
it at the first delivery opportunity at or after that instant (or at the
first read of a counter after it) — loss draw, then ``queue.enqueue`` at the
arrival time — which gives exactly what a per-packet delay event followed by
an immediate enqueue gives, in the same loss-draw order
(``tests/test_pipe_admission.py``).  An opportunity at the exact instant of
an arrival serves it, a zero-delay arrival included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.simulation.event_loop import EventLoop
from repro.simulation.link import TraceDrivenLink
from repro.simulation.packet import MTU_BYTES, Packet
from repro.simulation.queues import Queue, QueueConfig
from repro.simulation.random import make_rng

#: one-way propagation delay used throughout the paper's evaluation: it
#: measures about 20 ms on its cellular links (40 ms minimum RTT)
DEFAULT_PROPAGATION_DELAY = 0.020


@dataclass
class DuplexLinkConfig:
    """Configuration of an emulated duplex cellular link.

    Attributes:
        forward_trace: delivery-opportunity times for the data direction.
        reverse_trace: delivery-opportunity times for the feedback direction.
        propagation_delay: one-way delay in seconds (20 ms in the paper).
        loss_rate: Bernoulli drop probability applied independently in each
            direction at the queue tail (Section 5.6); 0 disables loss.
        use_codel: apply the CoDel AQM to both queues (Section 5.4).
        queue_byte_limit: optional finite buffer size; None = deep buffer.
        queue: explicit queue configuration for both directions; fields left
            to inherit (``aqm=None`` / ``byte_limit=None``) fall back to
            ``use_codel`` / ``queue_byte_limit``, so an ``aqm``/``qlimit``
            grid axis can override the discipline without losing a scheme's
            own queue requirements (see :meth:`effective_queue`).
        seed: seed for the loss process.
        name: label used in reports.
    """

    forward_trace: Sequence[float]
    reverse_trace: Sequence[float]
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY
    loss_rate: float = 0.0
    use_codel: bool = False
    queue_byte_limit: Optional[int] = None
    queue: Optional[QueueConfig] = None
    seed: Optional[int] = 0
    name: str = "emulated-link"

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")

    def effective_queue(self) -> QueueConfig:
        """The fully resolved queue configuration both pipes will build."""
        base = self.queue if self.queue is not None else QueueConfig()
        return base.resolve(use_codel=self.use_codel, byte_limit=self.queue_byte_limit)


class OneWayPipe:
    """propagation delay -> [Bernoulli tail loss] -> queue -> trace link."""

    def __init__(
        self,
        loop: EventLoop,
        trace: Sequence[float],
        deliver: Callable[[Packet, float], None],
        propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
        loss_rate: float = 0.0,
        use_codel: bool = False,
        queue_byte_limit: Optional[int] = None,
        queue_config: Optional[QueueConfig] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "pipe",
    ) -> None:
        if propagation_delay < 0:
            raise ValueError("propagation delay must be non-negative")
        self.name = name
        self.propagation_delay = propagation_delay
        self.loss_rate = loss_rate
        self._rng = rng if rng is not None else make_rng(0, name)
        self._lost = 0
        self.packets_offered = 0

        if queue_config is None:
            queue_config = QueueConfig().resolve(
                use_codel=use_codel, byte_limit=queue_byte_limit
            )
        self.queue_config = queue_config
        queue = queue_config.build()
        self._enqueue = queue.enqueue
        self.link = TraceDrivenLink(loop, trace, deliver, queue=queue, admit=self._admit)

    # ---------------------------------------------------------------- entry

    def send(self, packet: Packet, now: float) -> None:
        """Inject a packet into this direction of the link."""
        self.packets_offered += 1
        self.link.arrive(packet, now + self.propagation_delay)

    def _admit(self, packet: Packet, at: float) -> None:
        if self.loss_rate > 0.0 and self._rng.random() < self.loss_rate:
            packet.dropped = True
            self._lost += 1
            return
        self._enqueue(packet, at)

    # ------------------------------------------------------------ telemetry

    @property
    def queue(self) -> Queue:
        """The bottleneck queue, with every arrival due by now admitted."""
        return self.link.queue

    @property
    def packets_lost(self) -> int:
        """Packets the loss process dropped, among those that arrived by now."""
        self.link.settle()
        return self._lost

    @property
    def bytes_delivered(self) -> int:
        return self.link.bytes_delivered

    @property
    def capacity_bytes(self) -> int:
        """Bytes the link could have carried so far (every opportunity used)."""
        return self.link.opportunities * self.link.bytes_per_opportunity


class DuplexPath:
    """Two hosts joined by an emulated duplex cellular link.

    ``attach_a`` / ``attach_b`` register the delivery callbacks of the two
    endpoints (normally :meth:`repro.simulation.endpoints.Host.deliver`).
    Data sent with :meth:`send_from_a` traverses the *forward* pipe; data
    sent with :meth:`send_from_b` traverses the *reverse* pipe.
    """

    def __init__(self, loop: EventLoop, config: DuplexLinkConfig) -> None:
        self.loop = loop
        self.config = config
        self._deliver_to_b: Optional[Callable[[Packet, float], None]] = None
        self._deliver_to_a: Optional[Callable[[Packet, float], None]] = None

        rng_fwd = make_rng(config.seed, f"{config.name}-forward-loss")
        rng_rev = make_rng(config.seed, f"{config.name}-reverse-loss")
        queue_config = config.effective_queue()

        self.forward = OneWayPipe(
            loop,
            config.forward_trace,
            self._on_forward_delivery,
            propagation_delay=config.propagation_delay,
            loss_rate=config.loss_rate,
            queue_config=queue_config,
            rng=rng_fwd,
            name=f"{config.name}-forward",
        )
        self.reverse = OneWayPipe(
            loop,
            config.reverse_trace,
            self._on_reverse_delivery,
            propagation_delay=config.propagation_delay,
            loss_rate=config.loss_rate,
            queue_config=queue_config,
            rng=rng_rev,
            name=f"{config.name}-reverse",
        )

    # ------------------------------------------------------------- wiring

    def attach_a(self, deliver: Callable[[Packet, float], None]) -> None:
        """Register the callback receiving packets addressed to endpoint A."""
        self._deliver_to_a = deliver

    def attach_b(self, deliver: Callable[[Packet, float], None]) -> None:
        """Register the callback receiving packets addressed to endpoint B."""
        self._deliver_to_b = deliver

    def send_from_a(self, packet: Packet) -> None:
        """Endpoint A transmits a packet towards endpoint B."""
        self.forward.send(packet, self.loop.now())

    def send_from_b(self, packet: Packet) -> None:
        """Endpoint B transmits a packet towards endpoint A."""
        self.reverse.send(packet, self.loop.now())

    # ------------------------------------------------------------ delivery

    def _on_forward_delivery(self, packet: Packet, now: float) -> None:
        if self._deliver_to_b is not None:
            self._deliver_to_b(packet, now)

    def _on_reverse_delivery(self, packet: Packet, now: float) -> None:
        if self._deliver_to_a is not None:
            self._deliver_to_a(packet, now)
