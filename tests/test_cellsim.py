"""Tests for the Cellsim emulator assembly."""

import pytest

from repro.baselines.base import AckingReceiver
from repro.baselines.reno import RenoSender
from repro.cellsim.cellsim import build_cellsim, cellsim_for_link, traces_for_link
from repro.simulation.queues import CoDelQueue, DropTailQueue
from repro.traces.networks import get_link


def test_codel_constants_match_published_defaults():
    assert CoDelQueue.TARGET == pytest.approx(0.005)
    assert CoDelQueue.INTERVAL == pytest.approx(0.100)


class TestCellsimAssembly:
    def test_traces_for_link_pairs_directions(self):
        link = get_link("Verizon LTE downlink")
        data, feedback = traces_for_link(link, 10.0)
        assert data and feedback
        assert data != feedback

    def test_build_cellsim_runs_a_transfer(self, steady_trace):
        sender, receiver = RenoSender(), AckingReceiver()
        feedback = [i * 0.005 for i in range(1, 3000)]
        sim = build_cellsim(sender, receiver, steady_trace, feedback, name="test")
        sim.run(10.0)
        assert sim.receiver_host.bytes_received > 0
        assert receiver.acks_sent > 0
        assert sim.link_name == "test"

    def test_codel_flag_installs_codel(self, steady_trace):
        sim = build_cellsim(
            RenoSender(), AckingReceiver(), steady_trace, steady_trace, use_codel=True
        )
        assert isinstance(sim.path.forward.queue, CoDelQueue)

    def test_default_queue_is_deep_droptail(self, steady_trace):
        sim = build_cellsim(RenoSender(), AckingReceiver(), steady_trace, steady_trace)
        assert isinstance(sim.path.forward.queue, DropTailQueue)
        assert sim.path.forward.queue.byte_limit is None

    def test_loss_rate_causes_drops(self, steady_trace):
        sender, receiver = RenoSender(), AckingReceiver()
        feedback = [i * 0.005 for i in range(1, 3000)]
        sim = build_cellsim(
            sender, receiver, steady_trace, feedback, loss_rate=0.3, name="lossy", seed=1
        )
        sim.run(10.0)
        assert sim.path.forward.packets_lost > 0

    def test_cellsim_for_link_uses_link_name(self):
        link = get_link("AT&T LTE uplink")
        sim = cellsim_for_link(RenoSender(), AckingReceiver(), link, duration=5.0)
        assert sim.link_name == "AT&T LTE uplink"
