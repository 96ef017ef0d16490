"""Scalar special functions shared by every bound computation.

All logarithms are natural, so every rate and exponent produced
downstream is expressed in nats.
"""

from __future__ import annotations

import math

import scipy.special

__all__ = ["log_gamma", "psi_fn", "zeta"]


def _checked(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def log_gamma(t: float) -> float:
    """Natural log of the gamma function for t > 0.

    Backed by the platform ``lgamma`` (a Lanczos-grade implementation);
    the test suite pins it against the recurrence, closed forms and
    ``scipy.special.gammaln``.
    """
    t = _checked("t", t)
    if t <= 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t}")
    return math.lgamma(t)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1: ``scipy.special.zeta(s, 1)`` behind domain checks."""
    s = _checked("s", s)
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    return float(scipy.special.zeta(s, 1))


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

