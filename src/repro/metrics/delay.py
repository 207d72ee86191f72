"""Delay metrics: 95% end-to-end delay and self-inflicted delay (Section 5.1).

The paper's delay metric is built from the *instantaneous delay signal*: at
every moment in time, find the most recently-sent packet that has already
arrived at the receiver; the time since that packet was sent is a lower
bound on the glitch-free end-to-end delay at that moment.  Between arrivals
the signal rises at one second per second; when a packet arrives that was
sent more recently than any previous arrival, the signal drops to that
packet's one-way delay (footnote 7).  The 95th percentile of this signal
over the measurement window is the "95% end-to-end delay"; subtracting the
same quantity for the omniscient protocol gives the self-inflicted delay.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.simulation.packet import Packet

#: an arrival observation: (arrival_time, send_time)
Arrival = Tuple[float, float]


def arrivals_from_log(
    received_log: Iterable[Tuple[float, Packet]],
    include_control: bool = True,
) -> List[Arrival]:
    """Extract (arrival_time, send_time) pairs from a host's received log.

    Args:
        received_log: the ``Host.received_log`` of the data receiver.
        include_control: include heartbeats and other tiny packets; they are
            legitimate deliveries of the data direction, and excluding them
            would overstate delay during idle periods.
    """
    arrivals: List[Arrival] = []
    for arrival_time, packet in received_log:
        if packet.sent_at is None:
            continue
        if not include_control and packet.size < 200:
            continue
        arrivals.append((arrival_time, packet.sent_at))
    return arrivals


def delay_signal_segments(
    arrivals: Sequence[Arrival],
    start_time: float,
    end_time: float,
) -> List[Tuple[float, float]]:
    """Decompose the instantaneous delay signal into linear segments.

    Returns a list of ``(initial_delay, duration)`` pairs; within each
    segment the delay starts at ``initial_delay`` and rises at 1 s/s for
    ``duration`` seconds.  Only time within ``[start_time, end_time]`` is
    covered, and the signal starts at the first arrival that falls inside
    the window (before any packet has arrived the delay is undefined).
    """
    if end_time <= start_time:
        raise ValueError("end_time must be after start_time")
    ordered = sorted(arrivals, key=lambda a: a[0])

    segments: List[Tuple[float, float]] = []
    best_send: float = float("-inf")
    current_time: float = None  # type: ignore[assignment]

    for arrival_time, send_time in ordered:
        if arrival_time > end_time:
            break
        if send_time <= best_send:
            continue  # an older packet arriving late does not reduce delay
        if best_send == float("-inf"):
            # First useful arrival: the signal begins here (or at start_time
            # if the arrival precedes the window).
            current_time = max(arrival_time, start_time)
            best_send = send_time
            continue
        # Close the running segment at this arrival.
        segment_start = max(current_time, start_time)
        segment_end = min(max(arrival_time, segment_start), end_time)
        if segment_end > segment_start:
            initial_delay = segment_start - best_send
            segments.append((initial_delay, segment_end - segment_start))
        best_send = send_time
        current_time = max(arrival_time, start_time)

    # Tail segment up to end_time.
    if best_send != float("-inf") and current_time < end_time:
        segment_start = max(current_time, start_time)
        initial_delay = segment_start - best_send
        segments.append((initial_delay, end_time - segment_start))

    return segments


def percentile_of_delay_signal(
    arrivals: Sequence[Arrival],
    start_time: float,
    end_time: float,
    percentile: float = 95.0,
) -> float:
    """The given percentile of the instantaneous delay signal over a window.

    The signal is a collection of slope-1 segments; its distribution over
    time is a mixture of uniform distributions, so the percentile is found
    by bisection on the total time spent at or below a candidate delay.

    Returns ``nan`` when no packets arrived in the window.
    """
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    segments = delay_signal_segments(arrivals, start_time, end_time)
    if not segments:
        return float("nan")
    d0 = np.array([s[0] for s in segments])
    lengths = np.array([s[1] for s in segments])
    total = lengths.sum()
    if total <= 0:
        return float("nan")
    target = total * percentile / 100.0

    lo = float(d0.min())
    hi = float((d0 + lengths).max())

    def time_at_or_below(threshold: float) -> float:
        return float(np.clip(threshold - d0, 0.0, lengths).sum())

    if time_at_or_below(hi) <= target:
        return hi
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if time_at_or_below(mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9:
            break
    return hi


def end_to_end_delay_95(
    arrivals: Sequence[Arrival], start_time: float, end_time: float
) -> float:
    """95% end-to-end delay of a scheme over the measurement window."""
    return percentile_of_delay_signal(arrivals, start_time, end_time, percentile=95.0)


def self_inflicted_delay(protocol_delay_95: float, omniscient_delay_95: float) -> float:
    """Self-inflicted delay: the protocol's 95% delay beyond the omniscient one."""
    if np.isnan(protocol_delay_95) or np.isnan(omniscient_delay_95):
        return float("nan")
    return max(0.0, protocol_delay_95 - omniscient_delay_95)


def delay_percentiles(
    delays: Sequence[float],
    percentiles: Sequence[float] = (50.0, 95.0, 99.0),
) -> Dict[str, float]:
    """Named percentiles of a per-packet delay sample (``{"p95": ...}``).

    Returns ``nan`` for every requested percentile when the sample is
    empty, mirroring :func:`percentile_of_delay_signal` on an empty window.
    """
    keys = [f"p{int(p) if float(p).is_integer() else p}" for p in percentiles]
    if not delays:
        return {key: float("nan") for key in keys}
    values = np.percentile(np.asarray(delays, dtype=float), list(percentiles))
    return {key: float(value) for key, value in zip(keys, values)}


def longest_arrival_gap(arrival_times: Sequence[float]) -> float:
    """Longest silence between consecutive arrivals, in seconds.

    The live harness's blackout visibility metric: a mid-transfer outage
    shows up as one arrival gap roughly the length of the blackout window
    (plus the recovery RTO), where percentile summaries of per-packet
    delay would dilute it away.  Zero for fewer than two arrivals.
    """
    if len(arrival_times) < 2:
        return 0.0
    ordered = sorted(arrival_times)
    return float(max(b - a for a, b in zip(ordered, ordered[1:])))
