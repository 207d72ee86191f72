"""The omniscient reference protocol (Section 5.1).

The omniscient protocol knows the future of the link: it times every packet
to arrive at the bottleneck exactly when the link is ready to transmit it.
It therefore uses 100% of the link's capacity and its packets never queue.
Its 95% end-to-end delay is still nonzero, because the link itself has
delivery gaps and outages: if nothing can be delivered for five seconds, at
least five seconds of end-to-end delay must exist to avoid a playback gap.

The paper defines a scheme's *self-inflicted delay* as its 95% end-to-end
delay minus the omniscient protocol's.  This module computes the omniscient
schedule and its delay distribution directly from a delivery trace — no
simulation is needed because the omniscient behaviour is fully determined by
the trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.metrics.delay import percentile_of_delay_signal
from repro.simulation.delay_box import DEFAULT_PROPAGATION_DELAY


@dataclass
class OmniscientResult:
    """Summary of the omniscient protocol's behaviour on one trace."""

    throughput_bps: float
    delay_95th: float
    arrivals: List[float]


def omniscient_schedule(
    delivery_times: Sequence[float],
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
) -> List[tuple]:
    """(send_time, arrival_time) pairs for the omniscient protocol.

    Each delivery opportunity carries one MTU packet that was sent exactly
    one propagation delay before it crossed the link and arrives at the
    receiver the moment it crosses (measurement is at the Cellsim, as in
    Section 5.1).
    """
    schedule = []
    for t in sorted(delivery_times):
        send_time = t - propagation_delay
        schedule.append((send_time, t))
    return schedule


def omniscient_delay(
    delivery_times: Sequence[float],
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    percentile: float = 95.0,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
) -> float:
    """The omniscient protocol's 95% end-to-end delay on a trace."""
    schedule = omniscient_schedule(delivery_times, propagation_delay)
    arrivals = [(arrival, send) for send, arrival in schedule]
    if end_time is None:
        end_time = max(a for a, _ in arrivals) if arrivals else start_time
    return percentile_of_delay_signal(
        arrivals, start_time=start_time, end_time=end_time, percentile=percentile
    )


def omniscient_result(
    delivery_times: Sequence[float],
    propagation_delay: float = DEFAULT_PROPAGATION_DELAY,
    mtu_bytes: int = 1500,
    start_time: float = 0.0,
    end_time: Optional[float] = None,
) -> OmniscientResult:
    """Throughput and 95% delay of the omniscient protocol on a trace."""
    times = np.asarray(sorted(delivery_times), dtype=float)
    if end_time is None:
        end_time = float(times[-1]) if times.size else start_time
    in_window = times[(times >= start_time) & (times <= end_time)]
    duration = max(end_time - start_time, 1e-9)
    throughput = in_window.size * mtu_bytes * 8.0 / duration
    delay = omniscient_delay(
        delivery_times,
        propagation_delay=propagation_delay,
        start_time=start_time,
        end_time=end_time,
    )
    return OmniscientResult(
        throughput_bps=float(throughput),
        delay_95th=float(delay),
        arrivals=list(times),
    )
