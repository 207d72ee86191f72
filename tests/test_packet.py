"""Tests for the packet record."""

import pytest

from repro.simulation.packet import MTU_BYTES, Packet


def test_default_packet_is_one_mtu():
    assert Packet().size == MTU_BYTES == 1500


def test_packet_ids_are_unique_and_increasing():
    first, second = Packet(), Packet()
    assert second.packet_id > first.packet_id


def test_packet_rejects_non_positive_size():
    with pytest.raises(ValueError):
        Packet(size=0)
    with pytest.raises(ValueError):
        Packet(size=-10)


def test_queueing_delay_requires_both_timestamps():
    packet = Packet()
    assert packet.queueing_delay is None
    packet.enqueued_at = 1.0
    assert packet.queueing_delay is None
    packet.dequeued_at = 1.5
    assert packet.queueing_delay == pytest.approx(0.5)


def test_one_way_delay():
    packet = Packet()
    packet.sent_at = 2.0
    packet.delivered_at = 2.3
    assert packet.one_way_delay == pytest.approx(0.3)
