"""Deterministic scalar maximization and root finding on intervals.

``maximize_scalar(objective, lo, hi, coarse_points, tol)`` scans a
coarse grid of [lo, hi] and refines the best cell by golden section.  No
bound calls it: it is the search that acceptance criterion 04 and the
tests use to locate the peak of the finite-budget baseline.
``newton_root`` is the package's root-finder: safeguarded Newton steps
on an increasing function whose slope is known in closed form, falling
back to bisection of the bracket.  Both take plain arguments, and both
raise ArithmeticError when their search fails.
"""

from __future__ import annotations

import math
from collections.abc import Callable

__all__ = ["maximize_scalar", "newton_root"]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# A safety cap on golden-section steps; searches stop on ``tol`` first.
_REFINE_ITERS = 80

# Newton steps converge quadratically, so once a step is below
# _ROOT_RTOL the next would be at rounding.
_ROOT_RTOL = 1e-12
_ROOT_ATOL = 1e-20
_ROOT_ITERS = 100


def maximize_scalar(objective: Callable[[float], float], lo: float,
                    hi: float, coarse_points: int = 512,
                    tol: float = 1e-9) -> tuple[float, float]:
    """Return (argmax, value) of ``objective`` over the closed [lo, hi].

    Scans ``coarse_points`` evenly spaced points (the last one exactly
    ``hi``), then polishes the two cells around the best one by golden
    section until the cell [a, b] is at most ``tol * max(1, |a| + |b|)``
    wide, for at most ``_REFINE_ITERS`` steps.  Bad arguments raise
    ValueError.  Non-finite objective values are treated as -inf; if the
    entire coarse grid is non-finite, ArithmeticError is raised.  The
    returned value is the best value actually evaluated, so it is never
    below any coarse-grid value.
    """
    if not math.isfinite(hi - lo):  # so are lo, hi and the grid step
        raise ValueError(f"interval endpoints must be finite, and so must "
                         f"hi - lo; got [{lo}, {hi}]")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if coarse_points < 3:
        raise ValueError("coarse_points must be at least 3")
    if not 0.0 < tol:
        raise ValueError("tol must be positive")
    step = (hi - lo) / (coarse_points - 1)
    grid = [lo + i * step for i in range(coarse_points - 1)] + [hi]
    best_x, best_v = lo, -math.inf

    def probe(x: float) -> float:
        nonlocal best_x, best_v
        v = objective(x)
        if not math.isfinite(v):
            return -math.inf
        if v > best_v:
            best_x, best_v = x, v
        return v

    grid_vals = [probe(x) for x in grid]
    if best_v == -math.inf:
        raise ArithmeticError(
            "objective is non-finite on the entire coarse grid")
    i_best = grid_vals.index(best_v)  # the first best, as probe keeps it

    a = lo + max(i_best - 1, 0) * step
    b = min(lo + (i_best + 1) * step, hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = probe(c)
    fd = probe(d)
    for _ in range(_REFINE_ITERS):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
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
