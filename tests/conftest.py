"""Shared fixtures for the test suite.

Full experiment runs are comparatively expensive (a Sprout run over a 60 s
trace takes a few seconds), so integration-level fixtures use short traces
and are session-scoped: the same measured results are reused by every test
that inspects them.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.core.rate_model import RateModel, shared_rate_model
from repro.experiments.runner import RunConfig, run_scheme_on_link
from repro.traces.channel import ChannelConfig
from repro.traces.networks import get_link, link_trace
from repro.traces.synthetic import generate_trace


def _open_sockets():
    """Socket descriptors this process holds (``bench/child.py`` idiom).

    ``None`` where ``/proc/self/fd`` does not exist.
    """
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return None
    count = 0
    for name in names:
        try:
            count += os.readlink(f"/proc/self/fd/{name}").startswith("socket:")
        except OSError:
            pass  # the listing's own descriptor is gone by now
    return count


@pytest.fixture(autouse=True)
def _no_transport_leaks(request):
    """A live test leaves no receiver thread and no open socket behind.

    The check ``bench/child.py:leaks`` makes once per benchmark run, made
    per ``transport``/``chaos`` test: it guards the endpoints' one shared
    close on the crash, abort and blackhole paths too.
    """
    if not any(request.node.get_closest_marker(name) for name in ("transport", "chaos")):
        yield
        return
    sockets_before = _open_sockets()
    yield
    stray = [t.name for t in threading.enumerate() if t.name.startswith("sprout-live-receiver-")]
    assert not stray, f"receiver thread(s) left running: {stray}"
    if sockets_before is not None:
        leaked = _open_sockets() - sockets_before
        assert leaked <= 0, f"{leaked} socket(s) left open"


@pytest.fixture(scope="session")
def rate_model() -> RateModel:
    """The paper-default rate model (shared across the session)."""
    return shared_rate_model()


@pytest.fixture(scope="session")
def short_run_config() -> RunConfig:
    """A short but meaningful experiment window used by integration tests."""
    return RunConfig(duration=20.0, warmup=5.0)


@pytest.fixture(scope="session")
def lte_downlink_trace():
    """A 20-second Verizon-LTE-downlink delivery trace."""
    return link_trace(get_link("Verizon LTE downlink"), 20.0)


@pytest.fixture(scope="session")
def steady_channel_config() -> ChannelConfig:
    """A low-variability channel used when tests need predictable capacity."""
    return ChannelConfig(
        mean_rate=200.0,
        volatility=5.0,
        outage_rate=0.0,
        fade_depth=0.0,
    )


@pytest.fixture(scope="session")
def steady_trace(steady_channel_config):
    """A 20-second trace of the steady channel (about 200 pkt/s)."""
    return generate_trace(steady_channel_config, 20.0, seed=7)


@pytest.fixture(scope="session")
def sprout_lte_result(short_run_config):
    """Sprout measured on the Verizon LTE downlink (shared across tests)."""
    return run_scheme_on_link("Sprout", "Verizon LTE downlink", short_run_config)


@pytest.fixture(scope="session")
def cubic_lte_result(short_run_config):
    """TCP Cubic measured on the Verizon LTE downlink (shared across tests)."""
    return run_scheme_on_link("Cubic", "Verizon LTE downlink", short_run_config)


@pytest.fixture(scope="session")
def skype_lte_result(short_run_config):
    """The Skype model measured on the Verizon LTE downlink (shared)."""
    return run_scheme_on_link("Skype", "Verizon LTE downlink", short_run_config)
