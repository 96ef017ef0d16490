"""Deterministic scalar optimization and root finding on intervals.

``maximize_scalar`` scans a coarse grid and refines the best cell by
golden section.  It is derivative-free on purpose: its objectives
contain inner optimizations and root solves, so gradients would be
noisy and fragile.  ``newton_root`` is the package's one root-finder:
safeguarded Newton steps on an increasing function whose slope is
known in closed form, falling back to bisection of the bracket.
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
    "newton_root",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Newton steps converge quadratically, so once a step is below
# _ROOT_RTOL the next would be at rounding.
_ROOT_RTOL = 1e-12
_ROOT_ATOL = 1e-20
_ROOT_ITERS = 100


class EvaluationError(RuntimeError):
    """The objective produced no finite value anywhere on the coarse grid."""

    def __init__(self, message: str, point: float):
        super().__init__(message)
        self.point = point


@dataclass(frozen=True)
class SearchInterval:
    """A 1-D search domain; an open lower end is approached via an inset."""

    lo: float
    hi: float
    open_lo: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def effective_bounds(self, margin: float) -> tuple[float, float]:
        """Shrink an open lower end inward by ``margin`` of the width."""
        if self.open_lo:
            return self.lo + margin * (self.hi - self.lo), self.hi
        return self.lo, self.hi


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


def newton_root(phi: Callable[[float], tuple[float, float]], lo: float,
                hi: float, start: float) -> float:
    """The root in (lo, hi) of phi, increasing from phi(lo) < 0.

    ``phi(x)`` returns (value, slope); the search starts at ``start``.
    A Newton step that leaves the bracket, or is not half the previous
    step (the first is measured against ``start``), becomes a bisection.
    Raises ArithmeticError if neither converges.
    """
    x = step = start
    for _ in range(_ROOT_ITERS):
        value, slope = phi(x)
        newton = value / slope
        if abs(newton) <= _ROOT_RTOL * x:
            return x - newton
        if value < 0.0:
            lo = x
        else:
            hi = x
        nxt = x - newton
        if not (lo < nxt < hi and abs(newton) <= 0.5 * step):
            nxt = 0.5 * (lo + hi)
        if hi - lo <= _ROOT_RTOL * hi + _ROOT_ATOL:
            return nxt
        step = abs(nxt - x)
        x = nxt
    raise ArithmeticError(f"root solve did not converge, last {x}")
