"""Tests for the Sprout connection constructors and end-to-end behaviour."""

import pytest

from repro.cellsim.cellsim import build_cellsim
from repro.core.connection import SproutConfig, make_connection, make_sprout, make_sprout_ewma
from repro.core.forecaster import BayesianForecaster, EWMAForecaster
from repro.traces.synthetic import generate_trace


def test_config_validation():
    with pytest.raises(ValueError):
        SproutConfig(confidence=0.0)
    with pytest.raises(ValueError):
        SproutConfig(confidence=1.0)


def test_make_sprout_uses_bayesian_forecaster():
    connection = make_sprout()
    assert isinstance(connection.receiver.forecaster, BayesianForecaster)
    assert connection.receiver.forecaster.confidence == 0.95


def test_make_sprout_custom_confidence():
    connection = make_sprout(confidence=0.5)
    assert connection.receiver.forecaster.confidence == 0.5


def test_make_sprout_ewma_uses_ewma_forecaster():
    connection = make_sprout_ewma()
    assert isinstance(connection.receiver.forecaster, EWMAForecaster)


def test_sender_and_receiver_share_tick_interval():
    connection = make_connection(SproutConfig(tick_interval=0.02))
    assert connection.sender.tick_interval == pytest.approx(0.02)
    assert connection.receiver.tick_interval == pytest.approx(0.02)


def test_record_history_reaches_both_ends_and_defaults_off():
    default = make_connection()
    assert not default.sender.record_history
    assert not default.receiver.record_history
    recording = make_connection(SproutConfig(record_history=True))
    assert recording.sender.record_history
    assert recording.receiver.record_history


def test_sprout_transfers_data_over_steady_link(steady_trace):
    connection = make_sprout()
    feedback_trace = [i * 0.005 for i in range(1, 4000)]
    sim = build_cellsim(
        connection.sender, connection.receiver, steady_trace, feedback_trace,
        name="steady-test",
    )
    sim.run(15.0)
    # The steady channel offers ~200 packets/s (2.4 Mbit/s); Sprout should
    # achieve a substantial fraction of it while it ramps and tracks.
    achieved_bps = sim.receiver_host.bytes_received * 8.0 / 15.0
    assert achieved_bps > 0.3 * 200 * 1500 * 8
    assert connection.sender.forecasts_received > 100
    assert connection.receiver.data_packets_received > 100


def test_sprout_ewma_achieves_higher_throughput_than_sprout(steady_trace):
    def run(connection):
        feedback_trace = [i * 0.005 for i in range(1, 4000)]
        sim = build_cellsim(
            connection.sender, connection.receiver, steady_trace, feedback_trace,
            name="steady-test",
        )
        sim.run(15.0)
        return sim.receiver_host.bytes_received

    sprout_bytes = run(make_sprout())
    ewma_bytes = run(make_sprout_ewma())
    assert ewma_bytes > sprout_bytes


def test_sprout_keeps_queueing_delay_bounded_on_steady_link(steady_trace):
    connection = make_sprout()
    feedback_trace = [i * 0.005 for i in range(1, 4000)]
    sim = build_cellsim(
        connection.sender, connection.receiver, steady_trace, feedback_trace,
        name="steady-test",
    )
    sim.run(15.0)
    delays = [
        packet.queueing_delay
        for _, packet in sim.receiver_host.received_log
        if packet.queueing_delay is not None
    ]
    assert delays
    delays.sort()
    p95 = delays[int(0.95 * len(delays)) - 1]
    # The design target: 95% of packets clear the queue within ~100 ms.
    # Allow slack for the ramp-up phase of a short run.
    assert p95 < 0.25
