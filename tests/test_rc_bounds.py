import math
import warnings

import numpy as np
import pytest
import scipy.special

from freqchan.optimize import (OptimizerSettings, SearchInterval,
                               maximize_scalar)
from freqchan.rc_bounds import (BoundQuery, CapWarning, ExponentPoint, KlTailBound,
                         RcParams, RcSettings, chernoff_pairwise_bound,
                         delta_fn, lambda_fn, lemma1_tail_bound,
                         rate_lower_bound, rc_exponent,
                         thm1_probability_bound)
from freqchan.special_fn import psi_fn

# High-precision reference values (40-digit arithmetic, rounded).
LAMBDA_400_HALF_001 = 1.2231708410136708548
LAMBDA_400_06_005 = 1.8896122818528123205
LAMBDA_10_2_03 = 0.031962933190458876302


def _delta_grid_oracle(r: float, points: int = 40000, q_hi: float = 2000.0):
    """Dense-grid evaluation of the q-infimum with scipy's zeta."""
    q = np.logspace(math.log10(2.0 + 1e-9), math.log10(q_hi), points)
    correction = np.exp(-0.5 * q * math.log(2.0 * math.pi)) \
        * scipy.special.zeta(0.5 * q, 1)
    vals = (1.0 - 1.0 / q) * psi_fn(r) + np.log1p(correction) / q
    return float(vals.min())


class TestLambdaFn:
    def test_closed_form_at_alpha_half_xi_zero(self):
        # log Gamma(1/2) = log(pi)/2 collapses the expression to -log(2)/2.
        for r in (1.0, 3.0, 400.0):
            assert lambda_fn(r, 0.5, 0.0) == pytest.approx(
                -0.5 * math.log(2.0), rel=1e-14)

    def test_closed_form_at_alpha_one_xi_zero(self):
        assert lambda_fn(1.0, 1.0, 0.0) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), rel=1e-14)

    def test_reference_values(self):
        assert lambda_fn(400.0, 0.5, 0.01) == pytest.approx(
            LAMBDA_400_HALF_001, rel=1e-13)
        assert lambda_fn(400.0, 0.6, 0.05) == pytest.approx(
            LAMBDA_400_06_005, rel=1e-13)
        assert lambda_fn(10.0, 2.0, 0.3) == pytest.approx(
            LAMBDA_10_2_03, rel=1e-12)

    def test_increasing_in_xi(self):
        vals = [lambda_fn(400.0, 0.6, xi) for xi in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0.5, 10.0, 400.0, 2000.0])
    @pytest.mark.parametrize("xi", [0.0, 1e-6, 0.1, 10.0])
    def test_strictly_decreasing_in_alpha(self, r, xi):
        # dLambda/dalpha = digamma(alpha) - log(alpha)
        # - (alpha - 1/2)/(alpha + xi r) < 0, which is why the rc bounds
        # pin alpha at the open end of (1/2, alpha_cap].
        alphas = np.concatenate([0.5 + np.logspace(-6, -1.5, 30),
                                 np.linspace(0.6, 50.0, 300)])
        vals = [lambda_fn(r, 0.5, xi)]
        vals += [lambda_fn(r, float(a), xi) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            lambda_fn(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            lambda_fn(1.0, 0.4, 0.1)
        with pytest.raises(ValueError):
            lambda_fn(1.0, 1.0, -0.1)


class TestDeltaFn:
    @pytest.mark.parametrize("r", [0.5, 4.0, 10.0, 400.0, 2000.0])
    def test_matches_dense_grid(self, r):
        got = delta_fn(r)
        want = _delta_grid_oracle(r)
        assert got == pytest.approx(want, rel=1e-7)
        # A true infimum cannot exceed any grid value.
        assert got <= want + 1e-12

    def test_below_psi(self):
        for r in (1.0, 10.0, 100.0, 400.0):
            assert 0.0 < delta_fn(r) < psi_fn(r)

    def test_increasing_in_r(self):
        vals = [delta_fn(r) for r in (1.0, 4.0, 20.0, 100.0, 400.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_custom_interval_respected(self):
        # Restricting q to a window away from the minimizer gives a
        # larger (worse) value, as it must for an infimum.
        narrow = RcSettings(q_interval=SearchInterval(2.0, 4.0, open_lo=True))
        assert delta_fn(400.0, narrow) >= delta_fn(400.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_fn(-1.0)


class TestMuReduction:
    """The closed-form elimination of the inner mu search."""

    @pytest.mark.parametrize("case", [
        (400.0, 0.51, 0.05, 0.0), (400.0, 0.75, 0.1, 0.5),
        (400.0, 0.51, 0.12, 1.5), (10.0, 0.6, 0.4, 0.2),
        (10.0, 1.5, 0.05, 0.0),
    ])
    def test_grid_sup_equals_closed_form(self, case):
        r, alpha, xi, rate = case
        a_val = lambda_fn(r, alpha, xi) - xi * delta_fn(r) - rate
        closed = max(a_val, 0.0) / (1.0 + xi)
        mu = np.linspace(1e-9, 20.0, 400001)
        grid = np.minimum(np.maximum(a_val - xi * mu, 0.0), mu).max()
        assert closed == pytest.approx(float(grid), abs=1e-4)
        assert closed >= grid - 1e-12


class TestRcExponent:
    def test_decreasing_in_rate(self):
        es = [rc_exponent(BoundQuery(R=R, r=400.0)).E
              for R in (0.0, 0.5, 1.0, 1.5)]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_zero_beyond_achievable_rate(self):
        pt = rc_exponent(BoundQuery(R=2.5, r=400.0))
        assert pt.E == 0.0

    def test_witness_reproduces_value(self):
        pt = rc_exponent(BoundQuery(R=1.0, r=400.0))
        a_val = (lambda_fn(400.0, pt.argmax.alpha, pt.argmax.xi)
                 - pt.argmax.xi * delta_fn(400.0) - 1.0)
        assert pt.E == pytest.approx(max(a_val, 0.0) / (1.0 + pt.argmax.xi),
                                     rel=1e-12)

    def test_small_r_regime(self):
        # R must sit below rate_lower_bound(10) ~ 0.474 for a positive
        # exponent.
        pt = rc_exponent(BoundQuery(R=0.2, r=10.0))
        assert 0.0 < pt.E < 1.0

    def test_alpha_pins_to_lower_edge(self):
        # The objective is decreasing in alpha throughout this family,
        # so the argmax sits at the open lower endpoint, never a cap.
        for R, r in ((0.0, 400.0), (1.0, 400.0), (0.2, 10.0)):
            pt = rc_exponent(BoundQuery(R=R, r=r))
            assert pt.argmax.alpha == pytest.approx(0.5, abs=1e-5)

    def test_xi_cap_warns(self):
        tight = RcSettings(xi_cap=0.01)
        with pytest.warns(CapWarning):
            rc_exponent(BoundQuery(R=0.1, r=400.0), tight)

    def test_no_warning_at_default_caps(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", CapWarning)
            rc_exponent(BoundQuery(R=0.5, r=400.0))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RcParams(alpha=0.5, xi=0.1)
        with pytest.raises(ValueError):
            RcParams(alpha=1.0, xi=0.0)
        with pytest.raises(ValueError):
            ExponentPoint(R=0.0, E=-1e-9, argmax=RcParams(1.0, 0.1))


class TestRateLowerBound:
    def test_anchor_window(self):
        assert 1.90 <= rate_lower_bound(400.0) <= 1.96

    def test_below_converse_on_grid(self):
        for r in (10.0, 50.0, 100.0, 400.0, 2000.0):
            assert rate_lower_bound(r) < 0.5 * math.log(r)

    def test_increasing_in_r(self):
        vals = [rate_lower_bound(r) for r in (50.0, 100.0, 400.0, 2000.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_vanishing_exponent_at_the_bound(self):
        # E(R) hits zero exactly where the bound stops growing.
        r = 400.0
        rlb = rate_lower_bound(r)
        assert rc_exponent(BoundQuery(R=rlb + 0.01, r=r)).E == 0.0
        assert rc_exponent(BoundQuery(R=max(rlb - 0.01, 0.0), r=r)).E > 0.0


def _nested_reference(r: float, rate: float | None,
                      settings: RcSettings) -> float:
    """The alpha-outer, xi-inner nested search, kept as the reference for
    the profile engine that takes the alpha max first."""
    delta = delta_fn(r, settings)
    xi_interval = SearchInterval(0.0, settings.xi_cap, open_lo=True)

    def inner(alpha: float) -> float:
        def obj(xi: float) -> float:
            a = lambda_fn(r, alpha, xi) - xi * delta
            return a if rate is None else max(a - rate, 0.0) / (1.0 + xi)
        return maximize_scalar(obj, xi_interval, settings.optimizer)[1]

    alpha_interval = SearchInterval(0.5, settings.alpha_cap, open_lo=True)
    return maximize_scalar(inner, alpha_interval, settings.optimizer)[1]


class TestOrderSwap:
    """Taking the alpha max first gives the nested search's values."""

    SETTINGS = RcSettings(optimizer=OptimizerSettings(coarse_points=65))

    @pytest.mark.parametrize("R, r", [
        (0.0, 400.0), (1.0, 400.0), (0.2, 10.0), (0.1, 1.0), (0.0, 0.5),
    ])
    def test_exponent_matches_nested_search(self, R, r):
        got = rc_exponent(BoundQuery(R=R, r=r), self.SETTINGS).E
        want = max(_nested_reference(r, R, self.SETTINGS), 0.0)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("r", [0.5, 10.0, 400.0])
    def test_rate_bound_matches_nested_search(self, r):
        got = rate_lower_bound(r, self.SETTINGS)
        assert got == pytest.approx(
            _nested_reference(r, None, self.SETTINGS), abs=1e-9)


class TestFiniteNBounds:
    def test_thm1_formula_identity(self):
        query = BoundQuery(R=0.5, r=400.0, n=20)
        e_val = rc_exponent(query).E
        want = 2.0 * math.sqrt(2.0 * math.pi * math.e * 20 * 400.0) \
            * math.exp(-20 * e_val)
        assert thm1_probability_bound(query) == pytest.approx(want, rel=1e-10)

    def test_thm1_needs_n(self):
        with pytest.raises(ValueError):
            thm1_probability_bound(BoundQuery(R=0.5, r=400.0))

    def test_thm1_decreasing_in_n(self):
        vals = [thm1_probability_bound(BoundQuery(R=0.1, r=8.0, n=n))
                for n in (20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_lemma1_formula_identity(self):
        tail = lemma1_tail_bound(100, 4.0, 0.1)
        want = math.sqrt(2.0 * math.pi * math.e * 400.0) * math.exp(-10.0)
        assert tail.bound == pytest.approx(want, rel=1e-10)
        assert tail.rho_n == pytest.approx((delta_fn(4.0) + 0.1) / 4.0,
                                           rel=1e-12)
        assert isinstance(tail, KlTailBound)

    def test_lemma1_domain(self):
        with pytest.raises(ValueError):
            lemma1_tail_bound(0, 4.0, 0.1)
        with pytest.raises(ValueError):
            lemma1_tail_bound(10, 4.0, 0.0)

    def test_chernoff_formula_identity(self):
        got = chernoff_pairwise_bound(0.3, 50, 4.0, 0.8, 0.2)
        want = 2.0 * math.sqrt(1.0 + 2.0 * 0.2 * 4.0) * math.exp(
            0.2 * 50 * 4.0 * 0.3 - 50 * lambda_fn(4.0, 0.8, 0.2))
        assert got == pytest.approx(want, rel=1e-10)

    def test_chernoff_overflow_saturates(self):
        assert chernoff_pairwise_bound(50.0, 1000, 4.0, 0.8, 1.0) == math.inf

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(R=-0.1, r=400.0)
        with pytest.raises(ValueError):
            BoundQuery(R=0.1, r=0.0)
        with pytest.raises(ValueError):
            BoundQuery(R=0.1, r=400.0, n=0)
