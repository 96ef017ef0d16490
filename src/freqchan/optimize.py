"""Deterministic scalar optimization on bounded or half-open intervals.

The strategy everywhere is a coarse grid scan followed by golden-section
refinement around the best grid cell.  It is derivative-free on purpose:
the objectives fed to this module contain inner optimizations and
root solves, so gradients would be noisy and fragile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "EvaluationError",
    "OptimizerSettings",
    "SearchInterval",
    "maximize_scalar",
    "minimize_scalar",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class EvaluationError(RuntimeError):
    """The objective produced no finite value anywhere on the coarse grid."""

    def __init__(self, message: str, point: float):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class SearchInterval:
    """A 1-D search domain; open endpoints are approached via an inset."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def effective_bounds(self, margin: float) -> tuple[float, float]:
        """Shrink open endpoints inward by ``margin`` relative to the width."""
        span = self.hi - self.lo
        lo = self.lo + margin * span if self.open_lo else self.lo
        hi = self.hi - margin * span if self.open_hi else self.hi
        return lo, hi


@dataclass(frozen=True)
class OptimizerSettings:
    coarse_points: int = 512
    refine_iters: int = 80
    tol: float = 1e-9
    open_margin: float = 1e-8

    def __post_init__(self) -> None:
        if self.coarse_points < 3:
            raise ValueError("coarse_points must be at least 3")
        if self.refine_iters < 0:
            raise ValueError("refine_iters must be nonnegative")
        if not 0.0 < self.tol:
            raise ValueError("tol must be positive")
        if not 0.0 < self.open_margin < 0.5:
            raise ValueError("open_margin must lie in (0, 0.5)")


def maximize_scalar(
    objective: Callable[[float], float],
    interval: SearchInterval,
    settings: OptimizerSettings | None = None,
) -> tuple[float, float]:
    """Return (argmax, value) of ``objective`` over ``interval``.

    Scans ``coarse_points`` evenly spaced points (the last one exactly
    ``hi``), then polishes the two cells around the best one by golden
    section.  Non-finite objective values are treated as -inf; if the
    entire coarse grid is non-finite an EvaluationError carrying the
    first offending point is raised.  The returned value is the best
    value actually evaluated, so it is never below any coarse-grid value.
    """
    settings = settings or OptimizerSettings()
    lo, hi = interval.effective_bounds(settings.open_margin)
    m = settings.coarse_points
    step = (hi - lo) / (m - 1)
    grid = [lo + i * step for i in range(m - 1)] + [hi]
    grid_vals = []
    for x in grid:
        v = objective(x)
        grid_vals.append(v if math.isfinite(v) else -math.inf)
    i_best = max(range(m), key=grid_vals.__getitem__)
    if grid_vals[i_best] == -math.inf:
        raise EvaluationError(
            "objective is non-finite on the entire coarse grid", lo)
    best_x, best_v = grid[i_best], grid_vals[i_best]

    def probe(x: float) -> float:
        nonlocal best_x, best_v
        v = objective(x)
        if not math.isfinite(v):
            return -math.inf
        if v > best_v:
            best_x, best_v = x, v
        return v

    a = lo + max(i_best - 1, 0) * step
    b = min(lo + (i_best + 1) * step, hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = probe(c)
    fd = probe(d)
    for _ in range(settings.refine_iters):
        if b - a <= settings.tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = probe(d)

    return best_x, best_v


def minimize_scalar(
    objective: Callable[[float], float],
    interval: SearchInterval,
    settings: OptimizerSettings | None = None,
) -> tuple[float, float]:
    """Return (argmin, value); implemented as maximization of the negation."""
    x, v = maximize_scalar(lambda t: -objective(t), interval, settings)
    return x, -v
