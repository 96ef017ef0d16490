import math

import pytest

from freqchan.optimize import (EvaluationError, OptimizerSettings,
                               SearchInterval, maximize_scalar,
                               minimize_scalar, newton_root)


class TestSearchInterval:
    def test_closed_bounds_untouched(self):
        iv = SearchInterval(1.0, 3.0)
        assert iv.effective_bounds(0.01) == (1.0, 3.0)

    def test_open_bounds_inset_relative_to_width(self):
        iv = SearchInterval(0.0, 10.0, open_lo=True)
        lo, hi = iv.effective_bounds(1e-3)
        assert lo == pytest.approx(0.01)
        assert hi == 10.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SearchInterval(2.0, 2.0)
        with pytest.raises(ValueError):
            SearchInterval(0.0, math.inf)


class TestOptimizerSettings:
    def test_defaults_valid(self):
        s = OptimizerSettings()
        assert s.coarse_points == 512 and s.tol == 1e-9

    @pytest.mark.parametrize("kw", [
        dict(coarse_points=2), dict(refine_iters=-1),
        dict(tol=0.0), dict(open_margin=0.7),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            OptimizerSettings(**kw)


class TestMaximizeScalar:
    def test_quadratic_peak(self):
        x, v = maximize_scalar(lambda t: -(t - 2.3) ** 2 + 4.0,
                               SearchInterval(0.0, 5.0))
        assert x == pytest.approx(2.3, abs=1e-8)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_boundary_maximum(self):
        x, v = maximize_scalar(lambda t: t, SearchInterval(0.0, 1.0))
        assert x == 1.0 and v == 1.0

    def test_open_endpoint_never_evaluated(self):
        seen = []

        def f(t):
            seen.append(t)
            return -t

        iv = SearchInterval(0.0, 1.0, open_lo=True)
        x, _ = maximize_scalar(f, iv)
        assert all(t > 0.0 for t in seen)
        assert x == pytest.approx(1e-8, rel=1e-6)

    def test_sharp_interior_peak(self):
        # Narrow peak between coarse grid nodes still gets refined.
        x, v = maximize_scalar(
            lambda t: -abs(t - 0.617283) ** 0.5,
            SearchInterval(0.0, 1.0),
            OptimizerSettings(coarse_points=64, refine_iters=200, tol=1e-12))
        assert x == pytest.approx(0.617283, abs=1e-7)

    def test_non_finite_regions_skipped(self):
        def f(t):
            if t < 0.5:
                return math.nan
            return -(t - 0.7) ** 2

        x, v = maximize_scalar(f, SearchInterval(0.0, 1.0))
        assert x == pytest.approx(0.7, abs=1e-8)
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_all_non_finite_raises(self):
        with pytest.raises(EvaluationError) as err:
            maximize_scalar(lambda t: math.inf, SearchInterval(0.0, 1.0))
        assert 0.0 <= err.value.point <= 1.0

    def test_returns_best_probe_ever_seen(self):
        # A spiky objective where refinement could wander: the reported
        # value must never be below the best coarse-grid sample.
        def f(t):
            return math.sin(40.0 * t) + 0.3 * t

        settings = OptimizerSettings(coarse_points=512)
        x, v = maximize_scalar(f, SearchInterval(0.0, 6.0), settings)
        grid_best = max(f(i * 6.0 / 511) for i in range(512))
        assert v >= grid_best - 1e-15
        assert v == pytest.approx(f(x), rel=1e-12)

    def test_convergence_tolerance(self):
        settings = OptimizerSettings(tol=1e-12, refine_iters=200)
        x, _ = maximize_scalar(lambda t: -(t - math.pi) ** 2,
                               SearchInterval(0.0, 10.0), settings)
        assert x == pytest.approx(math.pi, abs=1e-9)


class TestMinimizeScalar:
    def test_negation_wrapper(self):
        x, v = minimize_scalar(lambda t: (t - 1.5) ** 2 + 0.25,
                               SearchInterval(0.0, 4.0))
        assert x == pytest.approx(1.5, abs=1e-8)
        assert v == pytest.approx(0.25, abs=1e-12)


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
