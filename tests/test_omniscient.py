"""Tests for the omniscient reference protocol."""

import pytest

from repro.baselines.omniscient import omniscient_delay, omniscient_result, omniscient_schedule


def test_schedule_sends_one_propagation_delay_before_each_opportunity():
    schedule = omniscient_schedule([0.1, 0.2, 0.5], propagation_delay=0.02)
    assert schedule == [
        (pytest.approx(0.08), 0.1),
        (pytest.approx(0.18), 0.2),
        (pytest.approx(0.48), 0.5),
    ]


def test_dense_trace_gives_delay_close_to_propagation():
    trace = [i * 0.002 for i in range(1, 5001)]  # 500 pkt/s for 10 s
    delay = omniscient_delay(trace, propagation_delay=0.02, start_time=0.0, end_time=10.0)
    assert delay == pytest.approx(0.022, abs=0.003)


def test_outage_raises_even_the_omniscient_delay():
    # 1 s of dense deliveries, a 5 s outage, then more deliveries.
    trace = [i * 0.01 for i in range(1, 101)]
    trace += [6.0 + i * 0.01 for i in range(1, 101)]
    delay = omniscient_delay(trace, start_time=0.0, end_time=7.0)
    assert delay > 2.0


def test_result_reports_full_capacity_throughput():
    trace = [i * 0.01 for i in range(1, 1001)]  # 100 pkt/s for 10 s
    result = omniscient_result(trace, start_time=0.0, end_time=10.0)
    assert result.throughput_bps == pytest.approx(100 * 1500 * 8, rel=0.01)


def test_omniscient_delay_is_a_lower_bound_for_schemes(sprout_lte_result):
    assert sprout_lte_result.omniscient_delay_95_s <= sprout_lte_result.delay_95_s
