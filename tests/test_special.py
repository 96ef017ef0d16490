import math

import numpy as np
import pytest
import scipy.special

from freqchan.special_fn import log_gamma, psi_fn, zeta

# High-precision reference values (40-digit arithmetic, rounded).
ZETA_3_2 = 2.6123753486854883433
ZETA_1_01 = 100.57794333849687249
PSI_400 = 6.9927135067414487779
PSI_QUARTER = 0.62550302942273484942


class TestLogGamma:
    def test_closed_forms(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_recurrence(self):
        for t in (0.03, 0.7, 1.0, 4.5, 120.0, 3e3):
            assert log_gamma(t + 1.0) == pytest.approx(
                log_gamma(t) + math.log(t), rel=1e-13)

    def test_matches_scipy(self):
        for t in np.logspace(-3, 5, 40):
            assert log_gamma(float(t)) == pytest.approx(
                float(scipy.special.gammaln(t)), rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)


class TestZeta:
    def test_closed_forms(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-10)
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90.0, rel=1e-10)

    def test_reference_values(self):
        assert zeta(1.5) == pytest.approx(ZETA_3_2, rel=1e-10)
        assert zeta(1.01) == pytest.approx(ZETA_1_01, rel=1e-10)

    def test_matches_scipy_on_grid(self):
        for s in np.concatenate([np.linspace(1.001, 4, 20),
                                 np.linspace(4, 60, 15)]):
            assert zeta(float(s)) == pytest.approx(
                float(scipy.special.zeta(s, 1)), rel=1e-10)

    def test_large_argument_tends_to_one(self):
        assert zeta(50.0) == pytest.approx(1.0000000000000009, rel=1e-12)
        assert zeta(300.0) == pytest.approx(1.0, rel=1e-12)

    def test_monotone_decreasing(self):
        vals = [zeta(s) for s in (1.1, 1.5, 2.0, 3.0, 6.0, 20.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            zeta(bad)


class TestPsiFn:
    def test_zero_at_zero(self):
        assert psi_fn(0.0) == 0.0

    def test_closed_values(self):
        assert psi_fn(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert psi_fn(400.0) == pytest.approx(PSI_400, rel=1e-14)
        assert psi_fn(0.25) == pytest.approx(PSI_QUARTER, rel=1e-14)

    def test_strictly_increasing_and_concave(self):
        grid = np.linspace(0.0, 30.0, 200)
        vals = np.array([psi_fn(float(t)) for t in grid])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) < 1e-12)

    def test_log_growth(self):
        # psi(t) = log t + 1 + O(1/t) for large t
        for t in (1e3, 1e6):
            assert psi_fn(t) == pytest.approx(math.log(t) + 1.0, abs=1e-3 / t * 1e3)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_fn(-0.1)

