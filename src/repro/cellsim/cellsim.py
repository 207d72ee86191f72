"""Cellsim: the trace-driven cellular-link emulator (Section 4.2).

``Cellsim`` bundles an event loop with a duplex emulated link and the two
hosts under test, mirroring the paper's block diagram (Figure 5): the
application endpoints talk through Cellsim, which delays packets by the
propagation delay, queues them, and releases them according to the recorded
trace — optionally after Bernoulli loss or under CoDel queue management.

The experiment harness uses :func:`build_cellsim` (from explicit traces) or
:func:`cellsim_for_link` (from one of the modelled networks, using the
network's other direction for feedback, as the paper's testbed does).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.simulation.endpoints import Host, Protocol
from repro.simulation.event_loop import EventLoop
from repro.simulation.path import DEFAULT_PROPAGATION_DELAY, DuplexLinkConfig, DuplexPath
from repro.simulation.queues import QueueConfig
from repro.traces.networks import (
    DEFAULT_TRACE_DURATION,
    LinkSpec,
    get_network,
    link_trace,
)


@dataclass
class Cellsim:
    """An assembled emulation: event loop, duplex path, and the two hosts."""

    loop: EventLoop
    path: DuplexPath
    sender_host: Host
    receiver_host: Host
    forward_trace: Sequence[float]
    reverse_trace: Sequence[float]

    def run(self, duration: float) -> None:
        """Start both hosts, run the emulation, and stop them."""
        self.sender_host.start()
        self.receiver_host.start()
        self.loop.run_until(duration)
        self.sender_host.stop()
        self.receiver_host.stop()

    @property
    def link_name(self) -> str:
        return self.path.config.name


def build_cellsim(
    sender: Protocol,
    receiver: Protocol,
    forward_trace: Sequence[float],
    reverse_trace: Sequence[float],
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    loss_rate: float = 0.0,
    use_codel: bool = False,
    queue_byte_limit: Optional[int] = None,
    queue: Optional[QueueConfig] = None,
    name: str = "cellsim",
    seed: int = 0,
) -> Cellsim:
    """Wire a sender and receiver protocol through an emulated duplex link.

    ``queue`` selects the bottleneck discipline explicitly (the ``aqm`` /
    ``qlimit`` grid axes); its inherit-marked fields fall back to
    ``use_codel`` / ``queue_byte_limit``.
    """
    loop = EventLoop()
    config = DuplexLinkConfig(
        forward_trace=forward_trace,
        reverse_trace=reverse_trace,
        propagation_delay=propagation_delay,
        loss_rate=loss_rate,
        use_codel=use_codel,
        queue_byte_limit=queue_byte_limit,
        queue=queue,
        seed=seed,
        name=name,
    )
    path = DuplexPath(loop, config)
    sender_host = Host(loop, sender, path.send_from_a, name=f"{name}-sender")
    receiver_host = Host(loop, receiver, path.send_from_b, name=f"{name}-receiver")
    path.attach_a(sender_host.deliver)
    path.attach_b(receiver_host.deliver)
    return Cellsim(
        loop=loop,
        path=path,
        sender_host=sender_host,
        receiver_host=receiver_host,
        forward_trace=forward_trace,
        reverse_trace=reverse_trace,
    )


def traces_for_link(
    link: LinkSpec, duration: float = DEFAULT_TRACE_DURATION
) -> tuple:
    """(data_trace, feedback_trace) for an experiment on ``link``.

    The data direction uses the link under test; feedback travels over the
    same network's other direction, as in the paper's testbed where both
    directions of the device under test run through Cellsim.  A custom link
    whose network is not in the registry (e.g. the analytic oracle's steady
    test channel) uses an independent realisation of its own channel for
    feedback instead.
    """
    data_trace = link_trace(link, duration)
    try:
        network = get_network(link.network)
    except KeyError:
        feedback_trace = link_trace(link, duration, seed_offset=1)
    else:
        other = network.uplink if link.direction == "downlink" else network.downlink
        feedback_trace = link_trace(other, duration)
    return data_trace, feedback_trace


def cellsim_for_link(
    sender: Protocol,
    receiver: Protocol,
    link: LinkSpec,
    duration: float = DEFAULT_TRACE_DURATION,
    loss_rate: float = 0.0,
    use_codel: bool = False,
    queue_byte_limit: Optional[int] = None,
    queue: Optional[QueueConfig] = None,
) -> Cellsim:
    """Cellsim configured for one of the modelled cellular links.

    When the link spec itself carries a queue configuration (a sweep-built
    variant from the ``aqm``/``qlimit`` axes), it is used unless ``queue``
    overrides it explicitly; a link-spec propagation delay (the ``rtt``
    sweep axis) likewise replaces the emulator default.
    """
    data_trace, feedback_trace = traces_for_link(link, duration)
    if queue is None:
        queue = link.queue
    propagation = (
        link.propagation_delay
        if link.propagation_delay is not None
        else DEFAULT_PROPAGATION_DELAY
    )
    return build_cellsim(
        sender=sender,
        receiver=receiver,
        forward_trace=data_trace,
        reverse_trace=feedback_trace,
        propagation_delay=propagation,
        loss_rate=loss_rate,
        use_codel=use_codel,
        queue_byte_limit=queue_byte_limit,
        queue=queue,
        name=link.name,
        seed=link.seed,
    )
