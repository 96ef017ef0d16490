import inspect
import math

import pytest

import freqchan
from freqchan.optimize import maximize_scalar, newton_root


def _peak(t):
    return -(t - 0.3) ** 2


def test_reached_through_the_module_only():
    for name in ("maximize_scalar", "minimize_scalar", "newton_root"):
        assert not hasattr(freqchan, name)


class TestSearchInterval:
    """maximize_scalar's checks of lo and hi."""

    def test_invalid_rejected(self):
        with pytest.raises(ValueError, match=r"need lo < hi, got \[2.0, 2.0\]"):
            maximize_scalar(_peak, 2.0, 2.0)
        with pytest.raises(ValueError, match="need lo < hi"):
            maximize_scalar(_peak, 1.0, 0.0)
        # The last pair is finite, but hi - lo overflows to inf.
        for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                       (-1e308, 1e308)):
            with pytest.raises(ValueError,
                               match="interval endpoints must be finite"):
                maximize_scalar(_peak, lo, hi)


class TestOptimizerSettings:
    """maximize_scalar's coarse_points and tol: defaults and checks."""

    def test_defaults_valid(self):
        params = inspect.signature(maximize_scalar).parameters
        assert params["coarse_points"].default == 512
        assert params["tol"].default == 1e-9
        assert maximize_scalar(_peak, 0.0, 1.0) == maximize_scalar(
            _peak, 0.0, 1.0, coarse_points=512, tol=1e-9)

    @pytest.mark.parametrize("kw, message", [
        (dict(coarse_points=2), "coarse_points must be at least 3"),
        (dict(tol=-1e-9), "tol must be positive"),
        (dict(tol=0.0), "tol must be positive"),
    ], ids=["kw0", "kw1", "kw2"])
    def test_validation(self, kw, message):
        with pytest.raises(ValueError, match=message):
            maximize_scalar(_peak, 0.0, 1.0, **kw)


class TestMaximizeScalar:
    def test_quadratic_peak(self):
        x, v = maximize_scalar(lambda t: -(t - 2.3) ** 2 + 4.0, 0.0, 5.0)
        assert x == pytest.approx(2.3, abs=1e-8)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_boundary_maximum(self):
        x, v = maximize_scalar(lambda t: t, 0.0, 1.0)
        assert x == 1.0 and v == 1.0

    def test_sharp_interior_peak(self):
        # Narrow peak between coarse grid nodes still gets refined.
        x, v = maximize_scalar(
            lambda t: -abs(t - 0.617283) ** 0.5, 0.0, 1.0,
            coarse_points=64, tol=1e-12)
        assert x == pytest.approx(0.617283, abs=1e-7)

    def test_non_finite_regions_skipped(self):
        def f(t):
            if t < 0.5:
                return math.nan
            return -(t - 0.7) ** 2

        x, v = maximize_scalar(f, 0.0, 1.0)
        assert x == pytest.approx(0.7, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_all_non_finite_raises(self):
        with pytest.raises(ArithmeticError, match="non-finite"):
            maximize_scalar(lambda t: math.inf, 0.0, 1.0)

    def test_returns_best_probe_ever_seen(self):
        # A spiky objective where refinement could wander: the reported
        # value must never be below the best coarse-grid sample.
        def f(t):
            return math.sin(40.0 * t) + 0.3 * t

        x, v = maximize_scalar(f, 0.0, 6.0, coarse_points=512)
        grid_best = max(f(i * 6.0 / 511) for i in range(512))
        assert v >= grid_best - 1e-15
        assert v == pytest.approx(f(x), rel=1e-12)

    def test_convergence_tolerance(self):
        x, _ = maximize_scalar(lambda t: -(t - math.pi) ** 2, 0.0, 10.0,
                               tol=1e-12)
        assert x == pytest.approx(math.pi, abs=1e-9)

    def test_iteration_cap(self):
        # A tolerance no step can meet: the coarse grid, the two first
        # golden points and 80 golden steps, and the best of them returned.
        seen = []

        def f(t):
            seen.append(-(t - 0.3) ** 2)
            return seen[-1]

        x, v = maximize_scalar(f, 0.0, 1.0, coarse_points=16, tol=1e-300)
        assert len(seen) == 16 + 2 + 80
        assert v == max(seen)
        assert f(x) == v


def _recorded(phi):
    """phi plus the list of points it was evaluated at."""
    seen = []

    def wrapped(x):
        seen.append(x)
        return phi(x)

    return wrapped, seen


class TestNewtonRoot:
    def test_newton_path(self):
        # Quadratic convergence: a handful of evaluations, where bisection
        # of (0, 2) to 1e-12 would need about 40.
        phi, seen = _recorded(lambda x: (x * x - 2.0, 2.0 * x))
        root = newton_root(phi, 0.0, 2.0, 1.5)
        assert root == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert seen[0] == 1.5
        assert len(seen) <= 6

    def test_step_leaving_bracket_bisects(self):
        # From x = 0.05 the Newton step on atan(10 (x - 0.7)) lands near
        # x = 6.2, outside (0, 1), so the next point is the midpoint of
        # the bracket (0.05, 1) that the first value left.
        phi, seen = _recorded(lambda x: (math.atan(10.0 * (x - 0.7)),
                                         10.0 / (1.0 + (10.0 * (x - 0.7)) ** 2)))
        root = newton_root(phi, 0.0, 1.0, 0.05)
        assert seen[:2] == [0.05, 0.525]
        assert root == pytest.approx(0.7, rel=1e-12)

    def test_missing_slope_bisects(self):
        # A NaN slope (no usable derivative) falls back to bisection.
        phi, seen = _recorded(lambda x: (x - 0.3, math.nan))
        root = newton_root(phi, 0.0, 1.0, 0.5)
        assert root == pytest.approx(0.3, rel=1e-11)
        assert seen[1] == 0.25

    def test_bracket_and_start_from_caller(self):
        # log(x / 5) on (2, 10) from x = 9: every evaluation stays in the
        # caller's bracket, and the first is the caller's start.
        phi, seen = _recorded(lambda x: (math.log(x / 5.0), 1.0 / x))
        root = newton_root(phi, 2.0, 10.0, 9.0)
        assert root == pytest.approx(5.0, rel=1e-14)
        assert seen[0] == 9.0
        assert all(2.0 < x < 10.0 for x in seen)

    def test_non_convergence_raises(self):
        # Always positive and slope-free: bisection walks towards lo, but
        # the relative tolerance of a bracket near -1e300 is never met.
        with pytest.raises(ArithmeticError):
            newton_root(lambda x: (1.0, math.nan), -1e300, 1e300, 0.0)
