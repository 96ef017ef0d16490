"""Reference curves the main bounds are compared against."""

from __future__ import annotations

import math

from ._record import frozen
from .special_fn import _finite, psi_fn

__all__ = ["FirQuery", "converse_rate", "fir_rate"]


@frozen
class FirQuery:
    """A (resolution budget, sampling ratio) pair for the finite-budget curve."""

    g: float
    r: float

    def __post_init__(self) -> None:
        if not (_finite(self.g) and self.g > 0.0):
            raise ValueError(f"g must be positive, got {self.g}")
        if not (_finite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive, got {self.r}")
        if not math.isfinite(self.r / self.g):
            raise ValueError(f"g = {self.g} is too small: r / g overflows")


def converse_rate(r: float) -> float:
    """log(r) / 2, the unlimited-resolution ceiling in nats.

    Below r = 1 this is negative, and a capacity never is, so it is no
    bound there.  Criterion 05 and the baseline tests check that the
    other curves stay under it only for r >= 10; the paper's abstract
    states no range of r for it.
    """
    if not (_finite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    return 0.5 * math.log(r)


def fir_rate(query: FirQuery) -> float:
    """log(r) / 2 - Psi(r / g), the finite-budget achievable curve.

    For fixed g this has a unique interior maximum near r = 0.398 g and
    can be negative away from it.  The derivation behind the formula
    assumes the per-type budget tracks the sampling ratio, so values far
    outside that regime should be read as extrapolations.
    """
    return 0.5 * math.log(query.r) - psi_fn(query.r / query.g)
