"""The two special functions Sprout's inference needs (Section 3.2).

The per-tick Poisson likelihood needs the log-gamma function (the
log-factorial of a fractional packet count), and the censored update needs
the Poisson upper tail, which is the regularised lower incomplete gamma
function: for integer ``k``, ``P[N >= k] = P(k, mu)`` with ``N ~ Poisson(mu)``.

Both are built on :func:`math.lgamma` and numpy alone.
"""

from __future__ import annotations

import math

import numpy as np

#: largest ``x`` for which :func:`regularized_lower_gamma`'s series terms
#: (which peak near ``e^x / sqrt(2 pi x)``) and its ``e^-x`` prefix stay
#: finite and normal doubles
MAX_X = 700.0


def log_gamma(z: np.ndarray) -> np.ndarray:
    """``ln Gamma(z)`` elementwise, for ``z > 0``."""
    return np.array([math.lgamma(value) for value in z], dtype=float)


def regularized_lower_gamma(a: float, x: np.ndarray) -> np.ndarray:
    """``P(a, x)`` for one ``a > 0`` and a 1-D array of ``0 <= x <= MAX_X``.

    The power series ``P(a, x) = x^a e^-x / Gamma(a + 1) * sum_n t_n`` with
    ``t_0 = 1`` and ``t_n = t_{n-1} * x / (a + n)``, summed over a fixed
    number of terms for all ``x`` at once.  The terms peak near
    ``n = x - a`` and then fall off like a Poisson tail, so
    ``x_max + 12 sqrt(x_max) + 40`` terms leave a remainder far below one
    ulp of the sum.  A fixed count, not a convergence test: a test for
    exact convergence can miss through rounding and run on.  The result is
    clipped to 1 against rounding.
    """
    x = np.asarray(x, dtype=float)
    x_max = float(x.max())
    terms = int(math.ceil(x_max + 12.0 * math.sqrt(x_max) + 40.0))
    terms_n = np.divide(x[:, None], a + np.arange(1.0, terms + 1.0))
    np.cumprod(terms_n, axis=1, out=terms_n)
    series = 1.0 + terms_n.sum(axis=1)
    with np.errstate(divide="ignore"):
        log_prefix = a * np.log(x) - x - math.lgamma(a + 1.0)
    return np.minimum(np.exp(log_prefix) * series, 1.0)
