import math

import pytest

from freqchan.baselines import FirQuery, converse_rate, fir_rate
from freqchan.optimize import OptimizerSettings, SearchInterval, maximize_scalar
from freqchan.rc_bounds import rate_lower_bound
from freqchan.special_fn import psi_fn


class TestConverseRate:
    def test_closed_form(self):
        for r in (1.0, 10.0, 400.0, 2000.0):
            assert converse_rate(r) == pytest.approx(0.5 * math.log(r),
                                                     rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            converse_rate(0.0)


class TestFirRate:
    def test_formula_identity(self):
        for g, r in ((1000.0, 400.0), (200.0, 50.0), (50.0, 100.0)):
            want = 0.5 * math.log(r) - psi_fn(r / g)
            assert fir_rate(FirQuery(g=g, r=r)) == pytest.approx(want,
                                                                 rel=1e-14)

    def test_peak_location_scales_with_budget(self):
        # The maximizing r solves 1/(2u) = log(1 + 1/u) with u = r/g,
        # giving u ~ 0.3983 regardless of g.
        for g in (100.0, 1000.0):
            r_star, _ = maximize_scalar(
                lambda r: fir_rate(FirQuery(g=g, r=r)),
                SearchInterval(1e-6, 5.0 * g),
                OptimizerSettings(coarse_points=2048, tol=1e-12))
            assert r_star / g == pytest.approx(0.3983, abs=2e-3)

    def test_never_exceeds_converse(self):
        for r in (10.0, 50.0, 100.0, 400.0, 2000.0):
            for g in (50.0, 200.0, 1000.0):
                assert fir_rate(FirQuery(g=g, r=r)) <= converse_rate(r)

    def test_negative_far_from_peak(self):
        # Oversampling relative to the budget destroys the rate.
        assert fir_rate(FirQuery(g=10.0, r=400.0)) < 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            FirQuery(g=0.0, r=1.0)
        with pytest.raises(ValueError):
            FirQuery(g=1.0, r=-1.0)


class TestCurveOrdering:
    def test_achievable_below_converse_above_useful_fir(self):
        # At a large sampling ratio the unlimited-resolution bound beats
        # the finite-budget curve evaluated at its own peak ratio, and
        # both respect the converse.
        r = 400.0
        rlb = rate_lower_bound(r)
        fir = fir_rate(FirQuery(g=1000.0, r=r))
        conv = converse_rate(r)
        assert rlb < conv
        assert fir < conv
        assert rlb > 0.0
