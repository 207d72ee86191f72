"""repro — a reproduction of Sprout (Winstein, Sivaraman, Balakrishnan, NSDI 2013).

Sprout is an end-to-end transport protocol for interactive applications over
cellular wireless networks.  Instead of reacting to losses or round-trip
delays, the receiver observes packet arrival times, infers the distribution
of the time-varying link rate with a doubly-stochastic Poisson model, and
sends the sender a cautious forecast of how many bytes the link will deliver
in the near future; the sender turns that forecast into a window that bounds
the risk of packets queueing for more than 100 ms.

Package layout:

* :mod:`repro.core` — the Sprout protocol itself (forecaster, sender,
  receiver, Sprout-EWMA variant);
* :mod:`repro.cache` — the in-process memo that keeps synthetic traces,
  rate models and trace baselines once built;
* :mod:`repro.simulation` — deterministic discrete-event substrate;
* :mod:`repro.traces` — synthetic cellular-link traces, the Saturator, and
  trace analysis;
* :mod:`repro.cellsim` — the trace-driven link emulator (with CoDel and
  loss injection);
* :mod:`repro.baselines` — every comparison scheme in the paper's
  evaluation (TCP Cubic/Vegas/Reno, Compound TCP, LEDBAT, and the
  Skype/Hangout/Facetime videoconference models);
* :mod:`repro.tunnel` — SproutTunnel;
* :mod:`repro.metrics` — throughput, self-inflicted delay, utilization;
* :mod:`repro.experiments` — the harness that regenerates the paper's
  tables and figures.
"""

__version__ = "1.0.0"

from repro.core import (  # noqa: F401
    BayesianForecaster,
    EWMAForecaster,
    SproutConfig,
    SproutConnection,
    SproutReceiver,
    SproutSender,
    make_sprout,
    make_sprout_ewma,
)

__all__ = [
    "__version__",
    "BayesianForecaster",
    "EWMAForecaster",
    "SproutConfig",
    "SproutConnection",
    "SproutReceiver",
    "SproutSender",
    "make_sprout",
    "make_sprout_ewma",
]
