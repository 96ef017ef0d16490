import math

import mpmath as mp
import numpy as np
import pytest
import scipy.special

from freqchan import rc_bounds
from freqchan.optimize import newton_root
from freqchan.rc_bounds import (BoundQuery, ExponentPoint, KlTailBound,
                         RcParams, delta_fn, lambda_fn, lemma1_tail_bound,
                         rate_lower_bound, rc_exponent,
                         thm1_probability_bound)
from freqchan.special_fn import psi_fn

pytestmark = pytest.mark.usefixtures("cold_bound_caches")

# High-precision reference values (40-digit arithmetic, rounded).
LAMBDA_400_HALF_001 = 1.2231708410136708548
LAMBDA_400_06_005 = 1.8896122818528123205
LAMBDA_10_2_03 = 0.031962933190458876302
# Delta(r) at 20 digits, rounded.
DELTA_20_DIGITS = {
    1.0: 0.9665917185890542006,
    4.0: 1.6531003501927674816,
    400.0: 4.2096048362846904687,
    1e10: 13.227100945447117817,
}
# Delta(r) as computed by version 0.1.12, from the doubling bracket.
DELTA_PINNED = {
    1e-3: 0.007001142311228988,
    0.01: 0.04735477874311415,
    0.1: 0.2603961779758032,
    0.5: 0.6873805886145758,
    1.0: 0.9665917185890541,
    3.0: 1.5008945169594874,
    12.0: 2.2563465954784188,
    16.0: 2.417147823824761,
    400.0: 4.209604836284691,
    1e4: 5.959422373756938,
    1e6: 8.412362195114614,
    1e10: 13.227100945447118,
}


def _delta_grid_oracle(r: float, points: int = 40000, q_hi: float = 2000.0):
    """Dense-grid evaluation of the q-infimum with scipy's zeta and Psi in
    closed form.  The grid is logarithmic in q - 2, so it resolves the
    minimizer, which nears 2 as r grows (q - 2 ~ 0.08 at r = 1e10)."""
    q = 2.0 + np.logspace(-12.0, math.log10(q_hi), points)
    psi = math.log1p(r) + r * math.log1p(1.0 / r)
    correction = np.exp(-0.5 * q * math.log(2.0 * math.pi)) \
        * scipy.special.zeta(0.5 * q, 1)
    vals = (1.0 - 1.0 / q) * psi + np.log1p(correction) / q
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
        # take the alpha = 1/2 limit.
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

    def test_overflowing_log_gamma_is_a_value_error(self):
        with pytest.raises(ValueError, match="log_gamma overflows at t"):
            lambda_fn(1.0, 1e306, 0.0)


class TestDeltaFn:
    @pytest.mark.parametrize("r", [1e-7, 0.03, 0.5, 4.0, 10.0, 400.0,
                                   2000.0, 3e6, 1e7, 1e8, 1e10])
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

    def test_tiny_r(self):
        # The minimizer sits near q = 500 here, past any fixed interval
        # scaled on r.
        got = delta_fn(1e-200)
        assert math.isfinite(got) and 0.0 < got < psi_fn(1e-200)
        assert got == pytest.approx(_delta_grid_oracle(1e-200), rel=1e-7)

    @pytest.mark.parametrize("r, want", sorted(DELTA_20_DIGITS.items()))
    def test_within_an_ulp_of_the_reference(self, r, want):
        assert abs(delta_fn(r) - want) <= math.ulp(want)

    @pytest.mark.parametrize("r", [1e-200, 1e-6, 1.0, 400.0, 1e10])
    def test_stationarity_increases_in_q(self, r):
        # h' has the sign of the Newton target, which increases from below
        # 0 to +inf (where the zeta term underflows), so h has one minimum.
        log_psi = math.log(psi_fn(r))
        q = 2.0 + np.logspace(-6.0, math.log10(2046.0), 400)
        vals = [rc_bounds._delta_slope(float(x), log_psi)[0] for x in q]
        assert vals[0] < 0.0 and vals[-1] == math.inf
        assert all(a < b or a == b == math.inf
                   for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("r", [0.01, 1.0, 400.0, 1e5, 1e8])
    def test_one_bracketed_search(self, r, monkeypatch):
        # One bracketed Newton root per r, exactly one psi_fn call (Psi(r))
        # and no zeta call: h is read off the last jet Newton evaluated.
        searches, psi_calls, zeta_calls = [], [], []

        def counted_root(*args):
            searches.append(args)
            return newton_root(*args)

        def counted_psi(t):
            psi_calls.append(t)
            return psi_fn(t)

        monkeypatch.setattr(rc_bounds, "newton_root", counted_root)
        monkeypatch.setattr(rc_bounds, "psi_fn", counted_psi)
        monkeypatch.setattr(rc_bounds, "zeta", zeta_calls.append)
        rc_bounds._delta_cached.cache_clear()
        delta_fn(r)
        assert len(searches) == 1
        _, lo, hi, start = searches[0]
        assert 2.0 <= lo < hi and start == hi
        assert psi_calls == [r] and zeta_calls == []

    @pytest.mark.parametrize("lo, hi, most", [(-10.0, 10.0, 12),
                                              (-200.0, 300.0, 30)],
                             ids=["1e-10..1e10", "1e-200..1e300"])
    def test_jet_evaluations_per_r(self, lo, hi, most, monkeypatch):
        jet, calls = rc_bounds.zeta_jet, []

        def counted_jet(s):
            calls.append(s)
            return jet(s)

        monkeypatch.setattr(rc_bounds, "zeta_jet", counted_jet)
        for r in np.logspace(lo, hi, 101):
            rc_bounds._delta_cached.cache_clear()
            calls.clear()
            delta_fn(float(r))
            assert 0 < len(calls) <= most, r

    def test_pole_start_saves_jets(self, monkeypatch):
        # From the pole asymptote's root 2 + 2/Psi(r), just above Delta's
        # root here, Newton takes at most 6 jets per r; the doubling
        # bracket from q = 4 took up to 10.
        jet, calls = rc_bounds.zeta_jet, []

        def counted_jet(s):
            calls.append(s)
            return jet(s)

        monkeypatch.setattr(rc_bounds, "zeta_jet", counted_jet)
        for r in np.logspace(0.0, 10.0, 101):
            rc_bounds._delta_cached.cache_clear()
            calls.clear()
            delta_fn(float(r))
            assert len(calls) <= 6, r

    @pytest.mark.parametrize("r, pinned", sorted(DELTA_PINNED.items()))
    def test_within_two_ulp_of_the_pinned_values(self, r, pinned):
        assert abs(delta_fn(r) - pinned) <= 2.0 * math.ulp(pinned)

    @pytest.mark.parametrize("r", [1e-300, 5e-324])
    def test_underflowed_zeta_term(self, r):
        # The zeta term, and the Newton slope with it, underflow near
        # q = 810, where the root solve bisects; at r = 5e-324 the root
        # itself is there.
        got = delta_fn(r)
        assert math.isfinite(got) and 0.0 < got <= psi_fn(r)

    def test_unbounded_descent_is_an_error(self, monkeypatch):
        monkeypatch.setattr(rc_bounds, "_delta_slope",
                            lambda q, log_psi: (-q, 1.0))
        rc_bounds._delta_cached.cache_clear()
        with pytest.raises(ArithmeticError):
            delta_fn(3.0)

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
        # so the supremum is the alpha = 1/2 limit.
        for R, r in ((0.0, 400.0), (1.0, 400.0), (0.2, 10.0), (2.5, 400.0)):
            pt = rc_exponent(BoundQuery(R=R, r=r))
            assert pt.argmax.alpha == 0.5

    @pytest.mark.parametrize("r", [0.5, 4.0, 400.0, 1e5, 1e10])
    def test_matches_a_50_digit_parametric_solve(self, r):
        # The Lambda-based parametric form A - (1 + xi) A' = R, with
        # Lambda at alpha = 1/2 as lambda_fn writes it and A' by numerical
        # differentiation, solved in xi at 50 digits for the same Delta.
        with mp.workdps(50):
            delta, r_mp = mp.mpf(delta_fn(r)), mp.mpf(r)

            def a_fn(xi):
                t = 2 * xi * r_mp
                return ((1 + t) * mp.log1p(t) - t * mp.log(t)) / 2 \
                    - mp.log(2 * mp.pi) / 2 + mp.loggamma(0.5) - xi * delta

            xi_lb = 1 / (2 * r_mp * mp.expm1(delta / r_mp))
            r_lb = a_fn(xi_lb)
            for frac in (0.0, 0.25, 0.5, 0.75, 0.9):
                rate = frac * max(float(r_lb), 0.0)
                got = rc_exponent(BoundQuery(R=rate, r=r)).E
                if rate >= r_lb:
                    assert got == 0.0
                    continue
                xi = mp.findroot(
                    lambda x: a_fn(x) - (1 + x) * mp.diff(a_fn, x) - rate,
                    (xi_lb * mp.mpf("1e-30"), xi_lb), solver="anderson")
                want = (a_fn(xi) - rate) / (1 + xi)
                assert abs(got - want) <= 3e-14 * want, (rate, got, want)

    def test_evaluations_per_rate(self, monkeypatch):
        # On the benchmark's rc-curve grid each rate below R_LB is one
        # Newton root of R + E = (u - log(2 expm1 u))/2 with at most 3
        # evaluations, and touches neither psi_fn nor lambda_fn.
        delta_fn(400.0)  # Delta's own psi_fn call is not counted here
        solves, others = [], []

        def counted_root(phi, lo, hi, start):
            evals = []
            solves.append(evals)
            return newton_root(lambda e: evals.append(e) or phi(e),
                               lo, hi, start)

        monkeypatch.setattr(rc_bounds, "newton_root", counted_root)
        for name in ("psi_fn", "lambda_fn"):
            fn = getattr(rc_bounds, name)
            monkeypatch.setattr(rc_bounds, name, lambda *args, name=name,
                                fn=fn: others.append(name) or fn(*args))
        r_lb = rate_lower_bound(400.0)
        for rate in np.linspace(0.0, 1.9, 39):
            solves.clear()
            pt = rc_exponent(BoundQuery(R=float(rate), r=400.0))
            assert rate < r_lb and pt.E > 0.0
            assert len(solves) == 1 and 0 < len(solves[0]) <= 3, rate
        assert others == []

    def test_one_root_solve_below_the_rate_bound(self, monkeypatch):
        delta_fn(400.0)  # Delta's own root solve is not counted here
        solves = []

        def counted(phi, lo, hi, start):
            solves.append(start)
            return newton_root(phi, lo, hi, start)

        monkeypatch.setattr(rc_bounds, "newton_root", counted)
        rc_exponent(BoundQuery(R=1.0, r=400.0))
        assert len(solves) == 1
        pt = rc_exponent(BoundQuery(R=2.5, r=400.0))
        assert len(solves) == 1
        # Past R_LB the witness is xi_LB, where A'(xi) = 0.
        delta = delta_fn(400.0)
        assert pt.argmax.xi == pytest.approx(
            1.0 / (800.0 * math.expm1(delta / 400.0)), rel=1e-15)

    @pytest.mark.parametrize("r", [5e-324, 1e-320, 1e-310, 6.03e-309])
    def test_subnormal_r_is_a_value_error(self, r):
        # exp(Delta/r) overflows below r ~ 6.03e-309; it once raised
        # OverflowError in rc_exponent and thm1_probability_bound alike.
        query = BoundQuery(R=0.0, r=r)
        with pytest.raises(ValueError, match=rf"^r = {r} is too small"):
            rc_exponent(query)
        with pytest.raises(ValueError, match=rf"^r = {r} is too small"):
            thm1_probability_bound(query, 10)

    def test_smallest_accepted_r(self):
        # Just above the cut: R_LB is about -log(2)/2, so E = 0 at every R.
        pt = rc_exponent(BoundQuery(R=0.0, r=6.04e-309))
        assert pt.E == 0.0 and 0.0 < pt.argmax.xi < 1.0

    def test_params_validation(self):
        RcParams(alpha=0.5, xi=0.1)
        with pytest.raises(ValueError):
            RcParams(alpha=0.49, xi=0.1)
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


def _dense_grid_reference(r: float, rate: float | None) -> float:
    """max over a dense xi grid of [A - R]_+ / (1 + xi), or of A itself
    when ``rate`` is None, with A = Psi(2 xi r)/2 - log(2)/2 - xi Delta(r):
    a log grid on [1e-8, 10], then a fine linear grid over the best cells.
    """
    delta = delta_fn(r)

    def objective(xi):
        t = 2.0 * xi * r
        a = 0.5 * ((1.0 + t) * np.log1p(t) - t * np.log(t)) \
            - 0.5 * math.log(2.0) - xi * delta
        return a if rate is None else np.maximum(a - rate, 0.0) / (1.0 + xi)

    xi = np.logspace(-8.0, 1.0, 100_001)
    i = int(np.argmax(objective(xi)))
    fine = np.linspace(xi[max(i - 2, 0)], xi[min(i + 2, xi.size - 1)],
                       100_001)
    return float(objective(fine).max())


class TestDenseXiGrid:
    """The root solve and the closed-form R_LB against a dense xi grid of
    the alpha = 1/2 objective."""

    @pytest.mark.parametrize("R, r", [
        (0.0, 400.0), (1.0, 400.0), (1.9, 400.0), (2.5, 400.0),
        (0.2, 10.0), (0.05, 4.0), (0.0, 2.0), (0.1, 1.0), (0.0, 0.5),
        (3.0, 5000.0),
    ])
    def test_exponent_matches_grid(self, R, r):
        got = rc_exponent(BoundQuery(R=R, r=r)).E
        assert got == pytest.approx(_dense_grid_reference(r, R), abs=1e-9)

    @pytest.mark.parametrize("r", [0.3, 0.5, 10.0, 400.0, 5000.0])
    def test_rate_bound_matches_grid(self, r):
        got = rate_lower_bound(r)
        assert got == pytest.approx(_dense_grid_reference(r, None), abs=1e-9)


class TestFiniteNBounds:
    def test_thm1_formula_identity(self):
        query = BoundQuery(R=0.5, r=400.0)
        e_val = rc_exponent(query).E
        want = 2.0 * math.sqrt(2.0 * math.pi * math.e * 20 * 400.0) \
            * math.exp(-20 * e_val)
        got = thm1_probability_bound(query, 20)
        assert got == pytest.approx(want, rel=1e-10)

    def test_thm1_needs_n(self):
        query = BoundQuery(R=0.5, r=400.0)
        with pytest.raises(TypeError):
            thm1_probability_bound(query)
        # 10**400 is beyond the float range, so n*r cannot be formed.
        for n in (0, -3, 10**400):
            with pytest.raises(ValueError, match=r"^n must be a positive "):
                thm1_probability_bound(query, n)

    def test_thm1_decreasing_in_n(self):
        vals = [thm1_probability_bound(BoundQuery(R=0.1, r=8.0), n)
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
        for n in (0, 10**400):
            with pytest.raises(ValueError, match=r"^n must be a positive "):
                lemma1_tail_bound(n, 4.0, 0.1)
        with pytest.raises(ValueError):
            lemma1_tail_bound(10, 4.0, 0.0)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(R=-0.1, r=400.0)
        with pytest.raises(ValueError):
            BoundQuery(R=0.1, r=0.0)
