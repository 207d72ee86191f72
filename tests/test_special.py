"""The special functions behind the likelihoods, held to in-repo oracles.

``repro.core._special`` replaces a scientific library for two functions, so
its oracles here are exact or high-precision computations written out in
the standard library's ``decimal`` and ``fractions``:

* for integer ``k``, ``P(k, mu)`` is the Poisson tail
  ``P[N >= k] = 1 - sum_{n<k} e^-mu mu^n / n!``, checked over the rate
  model's whole ``mu`` grid at 20 ms and 40 ms ticks;
* for fractional ``a``, the power series at 50 digits with a Stirling
  ``ln Gamma``, plus the recurrence and the orderings ``P`` must obey.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core._special import MAX_X, log_gamma, regularized_lower_gamma
from repro.core.rate_model import RateModelParams, shared_rate_model
from repro.experiments.analytic import sprout_conservative_rate_pps, sprout_forecast_moments

DIGITS = 50
#: pi to 60 digits, for Stirling's ``ln(2 pi)``
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
#: the smallest positive normal double
NORMAL = sys.float_info.min
#: relative error allowed wherever the value is a normal double
REL_TOL = 1e-12

# a, x: the ranges the likelihoods meet (a byte count over the MTU up to
# several times the largest per-tick mean; mu up to 40 ms x 1000 pkt/s)
A_VALUES = st.floats(min_value=6e-4, max_value=160.0)
X_VALUES = st.floats(min_value=0.0, max_value=60.0)


def _bernoulli_even(count: int) -> list:
    """``B_2, B_4, ..., B_2count`` exactly (Akiyama-Tanigawa)."""
    size = 2 * count + 1
    row = [Fraction(0)] * size
    numbers = []
    for m in range(size):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(row[0])
    return numbers[2::2]


_B2K = _bernoulli_even(24)


def _decimal_log_gamma(z: Decimal) -> Decimal:
    """``ln Gamma(z)`` to about 50 digits: shift to ``z >= 40``, then Stirling."""
    shift = Decimal(0)
    while z < 40:
        shift += z.ln()
        z += 1
    total = (z - Decimal("0.5")) * z.ln() - z + (2 * PI).ln() / 2
    for k, b in enumerate(_B2K, start=1):
        total += Decimal(b.numerator) / Decimal(b.denominator) / (
            (2 * k) * (2 * k - 1) * z ** (2 * k - 1)
        )
    return total - shift


def _decimal_lower_gamma(a: float, x: float) -> float:
    """``P(a, x)`` from its power series at 50 digits (all terms positive)."""
    if x == 0.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = DIGITS
        a_d, x_d = Decimal(a), Decimal(x)
        term = series = Decimal(1)
        n = 0
        while n < x or term > series * Decimal("1e-55"):
            n += 1
            term = term * x_d / (a_d + n)
            series += term
        log_prefix = a_d * x_d.ln() - x_d - _decimal_log_gamma(a_d + 1)
        return float(log_prefix.exp() * series)


def _decimal_poisson_tails(mu: float, kmax: int) -> list:
    """``P[N >= k]`` for ``k = 0 .. kmax`` at 50 digits, ``N ~ Poisson(mu)``.

    The same quantity as ``1 - sum_{n<k} p_n``, summed over the tail
    ``sum_{n>=k} p_n`` instead so that the 50 digits are relative ones even
    where the tail is far below 1e-50.  The ``p_n`` ratio ``mu / n`` is at
    most 1/2 beyond ``n = 2 kmax``, so 200 more terms leave a remainder
    below ``2**-200`` of the last tail.
    """
    with localcontext() as ctx:
        ctx.prec = DIGITS
        mu_d = Decimal(mu)
        terms = [(-mu_d).exp()]
        for n in range(1, 2 * kmax + 200):
            terms.append(terms[-1] * mu_d / n)
        tails = [Decimal(0)] * len(terms)
        running = Decimal(0)
        for n in range(len(terms) - 1, -1, -1):
            running += terms[n]
            tails[n] = running
        return [float(t) for t in tails[: kmax + 1]]


def _assert_close(got: np.ndarray, want: np.ndarray) -> None:
    """Relative error within REL_TOL where ``want`` is normal; elsewhere
    ``got`` is at most a normal double's worth away from it."""
    got, want = np.asarray(got), np.asarray(want)
    normal = want >= NORMAL
    rel = np.abs(got[normal] - want[normal]) / want[normal]
    assert rel.max(initial=0.0) <= REL_TOL, float(rel.max())
    assert np.all(np.abs(got[~normal] - want[~normal]) <= NORMAL)


# --------------------------------------------- integer k: the Poisson tail


@pytest.mark.parametrize("tick", [0.020, 0.040])
def test_integer_a_is_the_poisson_tail_over_the_models_mu_grid(tick):
    model = shared_rate_model(RateModelParams(tick=tick))
    mu = model._mu_positive
    kmax = 2 * int(math.ceil(model.params.max_rate * tick))
    oracle = np.array([_decimal_poisson_tails(float(m), kmax) for m in mu])
    for k in range(1, kmax + 1):
        _assert_close(regularized_lower_gamma(float(k), mu), oracle[:, k])


# ---------------------------------------------- fractional a: the properties


@settings(max_examples=200, deadline=None)
@given(a=A_VALUES, x=X_VALUES)
@example(a=1.0 / 1500.0, x=40.0)
@example(a=20.0, x=20.0)
@example(a=150.0, x=0.08)
def test_matches_the_50_digit_series(a, x):
    got = regularized_lower_gamma(a, np.array([x]))
    _assert_close(got, np.array([_decimal_lower_gamma(a, x)]))


@settings(max_examples=200, deadline=None)
@given(a=A_VALUES, x=X_VALUES)
def test_recurrence_in_a(a, x):
    """``P(a + 1, x) = P(a, x) - x^a e^-x / Gamma(a + 1)``."""
    lower = regularized_lower_gamma(a, np.array([x]))[0]
    upper = regularized_lower_gamma(a + 1.0, np.array([x]))[0]
    step = math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)) if x > 0 else 0.0
    assert abs(upper - (lower - step)) <= REL_TOL * lower + NORMAL


@settings(max_examples=200, deadline=None)
@given(a=A_VALUES, b=A_VALUES, x=X_VALUES, y=X_VALUES)
def test_in_unit_interval_rising_in_x_falling_in_a(a, b, x, y):
    a, b = sorted((a, b))
    x, y = sorted((x, y))
    at_a = regularized_lower_gamma(a, np.array([x, y]))
    at_b = regularized_lower_gamma(b, np.array([x, y]))
    for value in (*at_a, *at_b):
        assert 0.0 <= value <= 1.0
    slack = 1.0 + REL_TOL
    assert at_a[0] <= at_a[1] * slack and at_b[0] <= at_b[1] * slack
    assert at_b[0] <= at_a[0] * slack and at_b[1] <= at_a[1] * slack


def test_zero_x_gives_zero():
    assert regularized_lower_gamma(2.5, np.array([0.0, 1.0]))[0] == 0.0


def test_finite_up_to_the_largest_x():
    values = regularized_lower_gamma(1e-3, np.array([1.0, MAX_X]))
    assert np.all(np.isfinite(values)) and values[1] == 1.0


# ----------------------------------------------------------------- log gamma


def test_log_gamma_is_the_log_factorial():
    n = np.arange(0, 400)
    got = log_gamma(n + 1.0)
    for value, m in zip(got, n):
        want = math.fsum(math.log(k) for k in range(1, m + 1))
        assert value == pytest.approx(want, rel=1e-14, abs=1e-14)


# ----------------------------------------------------- the analytic quantile


@pytest.mark.parametrize(
    "confidence, z", [(0.5, 0.0), (0.75, 0.6744897502), (0.95, 1.6448536270), (0.99, 2.3263478740)]
)
def test_conservative_rate_uses_the_tabulated_normal_quantile(confidence, z):
    params = RateModelParams()
    mean, variance = sprout_forecast_moments(500.0, params, params.forecast_ticks)
    horizon = params.forecast_ticks * params.tick
    want = (mean - z * math.sqrt(variance)) / horizon
    got = sprout_conservative_rate_pps(500.0, params, confidence)
    assert got == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------- the dependency


def test_numpy_is_the_only_third_party_package_imported():
    """Importing the experiments and the live harness loads no package
    outside the standard library besides numpy (compiled helper modules
    that numpy loads are not packages)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = (
        "import sys; before = set(sys.modules); "
        "import repro.experiments, repro.transport.harness; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(m for m in new - set(sys.stdlib_module_names) "
        "if hasattr(sys.modules[m], '__path__')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "['numpy', 'repro']"
