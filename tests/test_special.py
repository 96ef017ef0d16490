import math

import numpy as np
import pytest
import scipy.special

from freqchan.special_fn import log_gamma, psi_fn, zeta, zeta_jet

# High-precision reference values (40-digit arithmetic, rounded).
ZETA_3_2 = 2.6123753486854883433
ZETA_1_01 = 100.57794333849687249
PSI_400 = 6.9927135067414487779
PSI_QUARTER = 0.62550302942273484942
# psi_fn at large t, where (1 + t) log(1 + t) - t log t cancels: at the
# double nearest each t.
PSI_40_DIGITS = {
    10.0: 3.350997070841619144501464810772780222028,
    400.0: 6.992713506741448777943453113056621540772,
    1e6: 14.81551105796410743752461534477288524558,
    1e12: 28.63102111592904820821589728954570382463,
    1e16: 37.84136148790473099428786327494982565495,
    1e300: 691.7755278982137052579021966605136811507,
}
# zeta at the double nearest each s, around the s = 20 seam of the two
# evaluation branches and near the pole.
ZETA_40_DIGITS = {
    1.00000001: 100000001.184962766415,
    1.001: 1000.57728847601162685,
    1.5: 2.61237534868548834335,
    2.5: 1.34148725725091717976,
    7.3: 1.00672598641661358628,
    13.7: 1.00007543972450689159,
    19.999: 1.00000095462361621835,
    20.0: 1.0000009539620338728,
    20.001: 1.00000095330091007088,
    35.0: 1.00000000002910385044,
    64.5: 1.0,
}
# (zeta'(s), zeta''(s)) at 30 digits, rounded: three points of the
# Euler-Maclaurin branch, one of the direct sum.
ZETA_JET_30_DIGITS = {
    2.0: (-0.9375482543158437537, 1.9892802342989010234),
    1.05: (-399.92767119173027718, 15999.990209835167668),
    5.5: (-0.019028339813333910684, 0.015175093334873645186),
    25.0: (-2.0658693595011039935e-8, 1.4320041812523579799e-8),
}


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
        # Both branches and the s = 20 seam.  scipy is itself up to ~9e-16
        # off a 40-digit reference here (s near 4), while zeta stays within
        # ~5e-16, so the tight bound is the one against 40 digits below.
        grid = np.concatenate([
            1.0 + np.logspace(-8, 0, 200),
            np.linspace(2.0, 20.0, 900, endpoint=False),
            [np.nextafter(20.0, 0.0), 20.0, np.nextafter(20.0, 21.0)],
            np.linspace(20.0, 300.0, 200)])
        for s in grid:
            assert zeta(float(s)) == pytest.approx(
                float(scipy.special.zeta(s, 1)), rel=1.5e-15, abs=0.0)

    @pytest.mark.parametrize("s, want", list(ZETA_40_DIGITS.items()))
    def test_matches_40_digit_reference(self, s, want):
        assert zeta(s) == pytest.approx(want, rel=5e-16, abs=0.0)

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


class TestZetaJet:
    @pytest.mark.parametrize("s, want", sorted(ZETA_JET_30_DIGITS.items()))
    def test_matches_30_digit_reference(self, s, want):
        _, d1, d2 = zeta_jet(s)
        assert d1 == pytest.approx(want[0], rel=1e-14, abs=0.0)
        assert d2 == pytest.approx(want[1], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("s", [40.0, 42.0, 44.0])
    def test_direct_sum_matches_central_differences(self, s):
        # Richardson-extrapolated differences of zeta, whose values here
        # are 1 + 2^-s + ... with 2^-s near 1e-13: good to ~3e-3.
        h = 0.5

        def slope(h):
            return (zeta(s + h) - zeta(s - h)) / (2.0 * h)

        def bend(h):
            return (zeta(s + h) - 2.0 * zeta(s) + zeta(s - h)) / (h * h)

        _, d1, d2 = zeta_jet(s)
        assert d1 == pytest.approx((4.0 * slope(h) - slope(2.0 * h)) / 3.0,
                                   rel=1e-2)
        assert d2 == pytest.approx((4.0 * bend(h) - bend(2.0 * h)) / 3.0,
                                   rel=1e-2)

    @pytest.mark.parametrize("s", [100.0, 300.0, 1000.0])
    def test_leading_term_at_large_s(self, s):
        # 3^-s / 2^-s = (2/3)^s < 3e-18 from s = 100 on.
        _, d1, d2 = zeta_jet(s)
        log_2 = math.log(2.0)
        assert d1 == pytest.approx(-log_2 * 2.0 ** -s, rel=1e-15, abs=0.0)
        assert d2 == pytest.approx(log_2 * log_2 * 2.0 ** -s, rel=1e-15,
                                   abs=0.0)


class TestPsiFn:
    def test_zero_at_zero(self):
        assert psi_fn(0.0) == 0.0

    def test_closed_values(self):
        assert psi_fn(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        assert psi_fn(400.0) == pytest.approx(PSI_400, rel=1e-14)
        assert psi_fn(0.25) == pytest.approx(PSI_QUARTER, rel=1e-14)

    @pytest.mark.parametrize("t", sorted(PSI_40_DIGITS))
    def test_large_t_without_cancellation(self, t):
        assert psi_fn(t) == pytest.approx(PSI_40_DIGITS[t], rel=1e-15,
                                          abs=0.0)

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

