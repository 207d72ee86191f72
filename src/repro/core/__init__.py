"""Sprout: stochastic forecasts for high throughput and low delay.

This package is the paper's primary contribution:

* :mod:`repro.core.rate_model` — the discretized doubly-stochastic model of
  the link rate and everything precomputable about it;
* :mod:`repro.core.forecaster` — Bayesian belief updates and the cautious
  cumulative-delivery forecast (plus the EWMA tracker used by Sprout-EWMA);
* :mod:`repro.core.packets` — the Sprout control protocol's wire format;
* :mod:`repro.core.receiver` / :mod:`repro.core.sender` — the two protocol
  endpoints;
* :mod:`repro.core.connection` — convenience constructors tying them together.
"""

from repro.core.connection import (
    SproutConfig,
    SproutConnection,
    make_connection,
    make_sprout,
    make_sprout_ewma,
)
from repro.core.forecaster import BayesianForecaster, EWMAForecaster, Forecaster
from repro.core.packets import (
    SproutDataHeader,
    SproutFeedback,
    make_data_packet,
    make_feedback_packet,
    parse_data_header,
    parse_feedback,
)
from repro.core.rate_model import (
    RateModel,
    RateModelParams,
    model_cache,
    shared_rate_model,
)
from repro.core.receiver import SproutReceiver, make_sprout_ewma_receiver, make_sprout_receiver
from repro.core.sender import SproutSender, saturating_payload_provider

__all__ = [
    "BayesianForecaster",
    "EWMAForecaster",
    "Forecaster",
    "RateModel",
    "RateModelParams",
    "model_cache",
    "shared_rate_model",
    "SproutConfig",
    "SproutConnection",
    "SproutDataHeader",
    "SproutFeedback",
    "SproutReceiver",
    "SproutSender",
    "make_connection",
    "make_sprout",
    "make_sprout_ewma",
    "make_sprout_receiver",
    "make_sprout_ewma_receiver",
    "make_data_packet",
    "make_feedback_packet",
    "parse_data_header",
    "parse_feedback",
    "saturating_payload_provider",
]
