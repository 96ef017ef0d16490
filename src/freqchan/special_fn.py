"""Scalar special functions shared by every bound computation.

All logarithms are natural, so every rate and exponent produced
downstream is expressed in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy.special

__all__ = [
    "StirlingBracket",
    "binary_entropy",
    "log_gamma",
    "normal_cdf",
    "psi_fn",
    "stirling_bracket",
    "zeta",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)


def _checked(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def log_gamma(t: float) -> float:
    """Natural log of the gamma function for t > 0.

    Backed by the platform ``lgamma`` (a Lanczos-grade implementation);
    the test suite pins it against the recurrence, half-integer closed
    forms, an arbitrary-precision reference and the Stirling bracket.
    """
    t = _checked("t", t)
    if t <= 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t}")
    return math.lgamma(t)


@dataclass(frozen=True)
class StirlingBracket:
    """Two-sided Stirling sandwich around Gamma(t).

    ``lower``/``upper`` are in linear scale and overflow to ``inf`` for
    very large ``t``; ``log_lower``/``log_upper`` stay finite and are
    the fields to use when comparing against ``log_gamma``.
    """

    t: float
    lower: float
    upper: float
    log_lower: float
    log_upper: float

    def __post_init__(self) -> None:
        if not self.log_lower <= self.log_upper:
            raise ValueError("Stirling bracket is inverted")


def stirling_bracket(t: float) -> StirlingBracket:
    """Bounds sqrt(2 pi) t^(t-1/2) e^(-t) <= Gamma(t) <= lower * e^(1/(12 t))."""
    t = _checked("t", t)
    if t <= 0.0:
        raise ValueError(f"stirling_bracket requires t > 0, got {t}")
    log_lower = _HALF_LOG_2PI + (t - 0.5) * math.log(t) - t
    log_upper = log_lower + 1.0 / (12.0 * t)
    try:
        lower = math.exp(log_lower)
    except OverflowError:
        lower = math.inf
    try:
        upper = math.exp(log_upper)
    except OverflowError:
        upper = math.inf
    return StirlingBracket(t=t, lower=lower, upper=upper,
                           log_lower=log_lower, log_upper=log_upper)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1: ``scipy.special.zeta(s, 1)`` behind domain checks."""
    s = _checked("s", s)
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    return float(scipy.special.zeta(s, 1))


def binary_entropy(p: float) -> float:
    """Entropy of a Bernoulli(p) in nats, with 0 log 0 = 0."""
    p = _checked("p", p)
    if p < 0.0 or p > 1.0:
        raise ValueError(f"binary_entropy requires p in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log1p(-p))


def psi_fn(t: float) -> float:
    """(1 + t) log(1 + t) - t log t for t >= 0, continuous at 0.

    This arrangement avoids the cancellation that the equivalent form
    log(1 + t) + t log(1 + 1/t) suffers for large t.
    """
    t = _checked("t", t)
    if t < 0.0:
        raise ValueError(f"psi_fn requires t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    return (1.0 + t) * math.log1p(t) - t * math.log(t)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; saturates to exactly 1.0 for x >= 40."""
    x = _checked("x", x)
    return 0.5 * math.erfc(-x / _SQRT2)
