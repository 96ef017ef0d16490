import math

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize

from freqchan import ex_bounds
from freqchan.ex_bounds import (MEAN_ABS_XY, ExParams, ExSettings,
                                ex_exponent, f_kappa, g_fn, j_fn, l_fn,
                                s_fn)
from freqchan.rc_bounds import BoundQuery

pytestmark = pytest.mark.usefixtures("cold_bound_caches")

# High-precision reference values (40-digit arithmetic, rounded).
F_02 = 1.1514524984457282451
F_05 = 1.5396007178390020387
F_08 = 2.6505574510028884945
F_095 = 5.757679193019936042
G_09 = 0.0456120683577734394
L_095 = 0.0114562171237582


def _f_scipy(kappa: float) -> float:
    """Independent route: adaptive quadrature of the same integral."""

    def integrand(x):
        phi = 0.5 * (1.0 + math.erf(kappa * x / math.sqrt(2.0)))
        return math.exp(-0.5 * (1.0 - kappa * kappa) * x * x) * phi

    val, _ = scipy.integrate.quad(integrand, 0.0, np.inf, limit=200)
    return 4.0 / math.sqrt(2.0 * math.pi) * val


class TestFKappa:
    def test_one_at_zero(self):
        assert f_kappa(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self):
        assert f_kappa(0.2) == pytest.approx(F_02, rel=1e-12)
        assert f_kappa(0.5) == pytest.approx(F_05, rel=1e-12)
        assert f_kappa(0.8) == pytest.approx(F_08, rel=1e-12)
        assert f_kappa(0.95) == pytest.approx(F_095, rel=1e-11)

    def test_matches_adaptive_quadrature(self):
        for kappa in (0.1, 0.35, 0.65, 0.9):
            assert f_kappa(kappa) == pytest.approx(_f_scipy(kappa), rel=1e-9)

    def test_increasing_and_convex(self):
        grid = np.linspace(0.0, 0.97, 60)
        vals = np.array([f_kappa(float(k)) for k in grid])
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) > -1e-12)

    def test_blows_up_like_inverse_sqrt_gap(self):
        # F(kappa) ~ 2 / sqrt(1 - kappa^2) as kappa -> 1.
        kappa = 0.999
        asymptote = 2.0 / math.sqrt(1.0 - kappa * kappa)
        assert f_kappa(kappa) == pytest.approx(asymptote, rel=0.05)
        assert f_kappa(0.9999) > f_kappa(0.999) > f_kappa(0.99)

    def test_domain(self):
        with pytest.raises(ValueError):
            f_kappa(1.0)
        with pytest.raises(ValueError):
            f_kappa(-0.1)


def _kappa_point(kappa: float, r: float) -> tuple[float, float, float, float]:
    """(x, G, lam, rho) at kappa, by a route independent of the module:
    x = (log F)' by differentiating the closed form, sigma by root-finding
    J(sigma) = G, lam = x / sigma, rho = r log(1 / lam) / G."""
    asin = math.asin(kappa)
    gap = 1.0 - kappa * kappa
    x = ((2.0 / math.pi) / (math.sqrt(gap) * (1.0 + 2.0 / math.pi * asin))
         + kappa / gap)
    g = kappa * x - math.log((1.0 + 2.0 / math.pi * asin) / math.sqrt(gap))
    sigma = scipy.optimize.brentq(lambda s: j_fn(s) - g, 1e-12, 1.0,
                                  xtol=1e-16, rtol=1e-15)
    lam = x / sigma
    return x, g, lam, r * math.log(1.0 / lam) / g


def _kappa_of_rho(r: float, rho: float) -> float:
    """kappa with rho(kappa) = rho on the independent route; rho falls
    from +inf near kappa = 0 to 0 at lam(kappa) = 1."""
    top = scipy.optimize.brentq(lambda k: _kappa_point(k, 1.0)[2] - 1.0,
                                0.19, 0.2, xtol=1e-16)
    return scipy.optimize.brentq(lambda k: _kappa_point(k, r)[3] - rho,
                                 1e-4, top, xtol=1e-16, rtol=1e-15)


def _envelope_rate(kappa: float, r: float) -> float:
    """The rate R = G + rho G' / rho' at which the line rho(kappa) (G(kappa)
    - R) touches the exponent, with G' and rho' from five-point stencils
    of the independent route at step 3e-4 kappa (~2e-11 relative for
    kappa >= 0.05)."""
    h = 3e-4 * kappa
    side = [_kappa_point(kappa + k * h, r) for k in (-2, -1, 1, 2)]

    def slope(i: int) -> float:
        return (side[0][i] - 8.0 * side[1][i] + 8.0 * side[2][i]
                - side[3][i]) / (12.0 * h)

    _, g, _, rho = _kappa_point(kappa, r)
    return g + rho * slope(1) / slope(3)


def _two_j(sigma: float, u: float) -> float:
    """2 J(sigma) = sigma - log sigma - 1 with u = 1 - sigma, summed as
    u^2 / 2 + u^3 / 3 + ... while u < 1/2, where the closed form cancels."""
    if u < 0.5:
        return math.fsum(u ** k / k for k in range(2, 120))
    return sigma - math.log(sigma) - 1.0


class TestSigma:
    """sigma < 1 with J(sigma) = G, the root behind every L and S level."""

    G_GRID = np.concatenate([np.geomspace(1e-12, 30.0, 600),
                             [np.nextafter(0.5, 0.0), 0.5,
                              np.nextafter(0.5, 1.0)]])

    def test_residual(self):
        for g in self.G_GRID:
            sigma, u = ex_bounds._sigma(float(g))
            assert 0.0 < sigma < 1.0
            assert abs(sigma + u - 1.0) <= 2e-16
            assert 0.5 * _two_j(sigma, u) == pytest.approx(g, rel=5e-15,
                                                           abs=0.0)

    def test_matches_brentq(self):
        for g in self.G_GRID:
            g = float(g)
            sigma, u = ex_bounds._sigma(g)
            if g < 0.5:
                want = scipy.optimize.brentq(
                    lambda v: _two_j(1.0 - v, v) - 2.0 * g, 0.0, 0.9,
                    xtol=1e-300, rtol=1e-15)
                assert u == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                want = scipy.optimize.brentq(
                    lambda s: s - math.log(s) - 1.0 - 2.0 * g, 1e-300, 0.5,
                    xtol=1e-300, rtol=1e-15)
                assert sigma == pytest.approx(want, rel=2e-14, abs=0.0)

    def test_no_root_at_or_below_zero(self):
        assert ex_bounds._sigma(0.0) == (1.0, 0.0)
        assert ex_bounds._sigma(-1e-18) == (1.0, 0.0)

    def test_l_fn_steps_near_two_over_pi(self, monkeypatch):
        # Near lam = 2/pi sigma sits at its branch point; noise in it turns
        # the Newton steps in kappa into bisections (61 chain evaluations
        # per l_fn when sigma came from scipy's lambertw), and a start far
        # above the root bisects down to kappa ~ 1e-6 (24 from 0.2).
        calls = _counted_chain(monkeypatch)
        for lam in np.linspace(MEAN_ABS_XY + 1e-6, 1.0, 2001,
                               endpoint=False):
            calls.append(0)
            l_fn(float(lam))
        assert max(calls) <= 10
        assert np.median(calls) <= 7


class TestKappaChain:
    """Each level of the chain is G(kappa) at its own crossing point."""

    KAPPAS = (0.02, 0.08, 0.15, 0.18, 0.19)

    def test_levels_equal_g_at_kappa(self):
        for kappa in self.KAPPAS:
            x, g, lam, rho = _kappa_point(kappa, r=400.0)
            assert g_fn(x) == pytest.approx(g, abs=1e-12)
            assert l_fn(lam) == pytest.approx(g, abs=1e-12)
            if rho > 1.0:
                assert s_fn(400.0, rho) == pytest.approx(g, abs=1e-12)

    def test_s_level_at_other_ratios(self):
        for r, kappa in ((1.0, 0.05), (10.0, 0.12), (2000.0, 0.19)):
            _, g, _, rho = _kappa_point(kappa, r)
            assert rho > 1.0
            assert s_fn(r, rho) == pytest.approx(g, abs=1e-12)

    def test_reference_values_to_1e_12(self):
        assert g_fn(0.9) == pytest.approx(G_09, abs=1e-12)
        assert l_fn(0.95) == pytest.approx(L_095, abs=1e-12)

    def test_exponent_dominates_dense_rho_grid(self):
        rhos = np.concatenate([np.linspace(1.0 + 1e-6, 20.0, 400),
                               np.geomspace(20.0, 1000.0, 400)])
        for r, R in ((400.0, 0.0), (400.0, 0.011), (400.0, 0.014),
                     (100.0, 0.005), (100.0, 0.012), (10.0, 0.004)):
            grid = max(rho * (s_fn(r, float(rho)) - R) for rho in rhos)
            assert ex_exponent(BoundQuery(R=R, r=r)).E >= grid - 1e-9

    def test_argmax_rho_within_cap(self):
        for rho_max in (2.0, 100.0, 1000.0):
            settings = ExSettings(rho_max=rho_max)
            for r in (10.0, 100.0, 400.0):
                for R in (0.0, 0.003, 0.006, 0.012, 0.014, 0.05):
                    pt = ex_exponent(BoundQuery(R=R, r=r), settings)
                    assert 1.0 < pt.argmax.rho <= rho_max
                    assert pt.rho_capped == (pt.argmax.rho == rho_max)


class TestGFn:
    def test_zero_at_and_below_the_mean(self):
        for x in (0.0, 0.2, 0.5, MEAN_ABS_XY - 1e-3, MEAN_ABS_XY):
            assert g_fn(x) <= 1e-9

    def test_positive_above_the_mean(self):
        assert g_fn(MEAN_ABS_XY + 0.05) > 1e-4

    def test_reference_value(self):
        assert g_fn(0.9) == pytest.approx(G_09, abs=1e-8)

    def test_matches_independent_optimization(self):
        # Legendre transform computed with scipy's quadrature and
        # bounded minimizer instead of the module's machinery.
        for x in (0.7, 0.8, 0.9, 0.95):
            res = scipy.optimize.minimize_scalar(
                lambda k: -(k * x - math.log(_f_scipy(k))),
                bounds=(1e-9, 1.0 - 1e-9), method="bounded",
                options={"xatol": 1e-12})
            assert g_fn(x) == pytest.approx(-res.fun, abs=1e-7)

    def test_nondecreasing(self):
        grid = np.linspace(0.0, 0.99, 80)
        vals = [g_fn(float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            g_fn(1.0)
        with pytest.raises(ValueError):
            g_fn(-0.01)


class TestJFn:
    def test_zero_at_one(self):
        assert j_fn(1.0) == 0.0

    def test_closed_form(self):
        assert j_fn(0.5) == pytest.approx(
            0.5 * (0.5 - math.log(0.5) - 1.0), rel=1e-15)

    def test_decreasing_on_unit_interval(self):
        vals = [j_fn(s) for s in (0.1, 0.3, 0.6, 0.9, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            j_fn(0.0)
        with pytest.raises(ValueError):
            j_fn(1.5)


class TestLFn:
    def test_zero_at_and_below_the_mean(self):
        for lam in (0.1, 0.5, MEAN_ABS_XY - 1e-3, MEAN_ABS_XY):
            assert l_fn(lam) <= 1e-9

    def test_reference_value(self):
        assert l_fn(0.95) == pytest.approx(L_095, abs=1e-7)

    def test_min_max_structure(self):
        # At the reported value both branches are attainable: some sigma
        # must make min(G(lam sigma), J(sigma)) reach L within tolerance.
        lam = 0.95
        val = l_fn(lam)
        sigmas = np.linspace(0.5, 1.0 - 1e-9, 20001)
        inner = np.array([min(g_fn(lam * s), j_fn(float(s))) for s in sigmas])
        assert val == pytest.approx(float(inner.max()), abs=1e-6)
        assert val >= inner.max() - 1e-8

    def test_nondecreasing(self):
        vals = [l_fn(lam) for lam in (0.7, 0.8, 0.9, 0.95, 0.98)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            l_fn(0.0)
        with pytest.raises(ValueError):
            l_fn(1.0)


class TestSFn:
    def test_decreasing_in_rho(self):
        vals = [s_fn(400.0, rho) for rho in (2.0, 10.0, 100.0, 1000.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_r(self):
        vals = [s_fn(r, 100.0) for r in (10.0, 100.0, 400.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_crossing_structure(self):
        # The supremum is the crossing height of a decreasing and a
        # nondecreasing branch; verify against a dense lambda grid.
        r, rho = 400.0, 1000.0
        val = s_fn(r, rho)
        lams = np.linspace(MEAN_ABS_XY + 1e-6, 1.0 - 1e-9, 20001)
        inner = np.array([
            min((r / rho) * math.log(1.0 / lam), l_fn(float(lam)))
            for lam in lams
        ])
        assert val == pytest.approx(float(inner.max()), abs=1e-6)
        assert val >= inner.max() - 1e-8

    def test_domain(self):
        with pytest.raises(ValueError):
            s_fn(0.0, 10.0)
        with pytest.raises(ValueError):
            s_fn(400.0, 1.0)
        # rho / r above 1e20, where S is rounding noise: -5.7e-33 and 1e-32.
        with pytest.raises(ValueError, match="rho / r"):
            s_fn(400.0, 1e34)
        with pytest.raises(ValueError, match="rho / r"):
            s_fn(1e-300, 2.0)

    @pytest.mark.parametrize("r", [1e-10, 1e-5, 1.0, 400.0, 1e5, 1e10])
    def test_largest_rho_meets_its_limit(self, r):
        # S -> r log(pi/2) / rho as rho / r grows; at the 1e20 bound it is
        # still within 6e-6 relative of that limit.
        rho = 1e20 * r
        assert s_fn(r, rho) == pytest.approx(
            r * math.log(math.pi / 2.0) / rho, rel=1e-5)


class TestExExponent:
    def test_zero_rate_is_cap_dominated(self):
        pt = ex_exponent(BoundQuery(R=0.0, r=400.0))
        assert pt.rho_capped
        assert pt.E == pytest.approx(1000.0 * s_fn(400.0, 1000.0), rel=1e-6)

    def test_interior_argmax_not_capped(self):
        pt = ex_exponent(BoundQuery(R=0.014, r=400.0))
        assert not pt.rho_capped
        assert 1.0 < pt.argmax.rho < 1000.0

    def test_decreasing_in_rate(self):
        es = [ex_exponent(BoundQuery(R=R, r=400.0)).E
              for R in (0.0, 0.005, 0.01, 0.012, 0.014)]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_witness_reproduces_value(self):
        pt = ex_exponent(BoundQuery(R=0.012, r=400.0))
        s_at = s_fn(400.0, pt.argmax.rho)
        assert pt.E == pytest.approx(pt.argmax.rho * (s_at - 0.012), rel=1e-6)

    def test_cap_controls_low_rate_value(self):
        small = ExSettings(rho_max=100.0)
        pt_small = ex_exponent(BoundQuery(R=0.0, r=400.0), small)
        pt_big = ex_exponent(BoundQuery(R=0.0, r=400.0))
        assert pt_small.rho_capped and pt_big.rho_capped
        assert pt_small.E < pt_big.E

    def test_zero_beyond_crossover(self):
        pt = ex_exponent(BoundQuery(R=0.05, r=400.0))
        assert pt.E == 0.0

    def test_r_range(self):
        # E(0) = r log(1 / lam) at the rho_max end, from 60-digit
        # arithmetic on the same chain; ell has ~7 digits left at r = 1e10.
        for r, want in ((1e-10, 4.51581916233113e-11),
                        (1e10, 14.5496234449534)):
            got = ex_exponent(BoundQuery(R=0.0, r=r)).E
            assert got == pytest.approx(want, rel=1e-6)
        for r in (1e-300, 1e-200, 9.9e-11, 1.01e10, 1e20, 1e300):
            with pytest.raises(ValueError, match="r must lie in"):
                ex_exponent(BoundQuery(R=0.0, r=r))

    def test_huge_cap_is_a_value_or_a_value_error(self):
        # From a cap of ~1e22 on, G at the rho_max end can round to 0 or
        # below and sigma to 1, where R(kappa) is its kappa -> 0 limit 0.
        # Every decade of rho_max gives a finite E >= 0 or, for a capped
        # rate only, a ValueError.  At R = 0, E does not fall as the cap
        # grows, and stays under its supremum r log(pi / 2).
        refused = 0
        for r in (1e-10, 1.0, 400.0, 1e10):
            top, last = r * math.log(math.pi / 2.0) * (1.0 + 1e-15), 0.0
            for d in range(2, 309):
                settings = ExSettings(rho_max=float(f"1e{d}"))
                for R in (0.0, 0.005, 0.012, 0.05):
                    try:
                        pt = ex_exponent(BoundQuery(R=R, r=r), settings)
                    except ValueError as exc:
                        assert R == 0.0 and "rho_max" in str(exc)
                        refused += 1
                        continue
                    assert math.isfinite(pt.E) and pt.E >= 0.0
                    if R == 0.0:
                        assert last * (1.0 - 1e-15) <= pt.E <= top
                        last = pt.E
        assert refused > 0

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExParams(kappa=0.0, sigma=0.5, lam=0.5, rho=2.0)
        with pytest.raises(ValueError):
            ExParams(kappa=0.5, sigma=0.5, lam=0.5, rho=1.0)
        with pytest.raises(ValueError):
            ExSettings(rho_max=1.0)


def _counted_chain(monkeypatch) -> list[int]:
    """Count ``_chain`` calls into the last entry of the returned list."""
    chain, calls = ex_bounds._chain, []

    def counted(kappa):
        calls[-1] += 1
        return chain(kappa)

    monkeypatch.setattr(ex_bounds, "_chain", counted)
    return calls


class TestRateRoot:
    """ex_exponent solves R(kappa) = R: rho (G - R) rises in kappa while
    R(kappa) < R and falls after, so the root is the argmax."""

    RATIOS = (4.0, 100.0, 400.0, 2000.0)

    def test_rate_increasing_and_convex(self):
        top = _kappa_of_rho(2000.0, 1.0)  # the largest kappa(1) here
        kappas = np.geomspace(1e-4, top, 4000)
        rates, slopes = np.array([ex_bounds._rate(float(k)) for k in kappas]).T
        assert rates[0] > 0.0
        assert np.all(np.diff(rates) > 0.0)
        assert np.all(slopes > 0.0) and np.all(np.diff(slopes) > 0.0)

    def test_slope_matches_central_difference(self):
        for kappa in (1e-3, 0.01, 0.05, 0.1, 0.15, 0.19):
            h = 1e-6 * kappa
            diff = (ex_bounds._rate(kappa + h)[0]
                    - ex_bounds._rate(kappa - h)[0]) / (2.0 * h)
            assert ex_bounds._rate(kappa)[1] == pytest.approx(diff, rel=1e-6)

    def test_rate_is_the_envelope_at_every_ratio(self):
        # The touching point of rho (G - R) computed at each r from the
        # independent route is one r-free function of kappa.
        for kappa in (0.05, 0.08, 0.12, 0.16, 0.19):
            want = ex_bounds._rate(kappa)[0]
            for r in self.RATIOS:
                assert _envelope_rate(kappa, r) == pytest.approx(want,
                                                                 rel=1e-9)

    @pytest.mark.parametrize("rho_max", [2.0, 100.0, 1000.0])
    def test_matches_dense_kappa_scan(self, rho_max):
        for r in self.RATIOS:
            k_cap, k_one = _kappa_of_rho(r, rho_max), _kappa_of_rho(r, 1.0)
            r_cap, r_one = (_envelope_rate(k, r) for k in (k_cap, k_one))
            s_one = _kappa_point(k_one, r)[1]
            # Every branch: capped, interior root, the rho = 1 end with
            # E > 0, and E = 0.
            rates = (0.0, 0.5 * r_cap, 0.9 * r_cap + 0.1 * r_one,
                     0.5 * (r_cap + r_one), 0.1 * r_cap + 0.9 * r_one,
                     0.5 * (r_one + s_one), 1.5 * s_one)
            kappas = np.linspace(k_cap, k_one, 2001)
            points = [_kappa_point(float(k), r) for k in kappas]

            def scan(R: float) -> tuple[float, bool]:
                """(E, argmax at the rho_max end): the best grid point,
                polished on its two cells by a bounded search."""

                def loss(kappa: float) -> float:
                    _, g, _, rho = _kappa_point(kappa, r)
                    return -rho * (g - R)

                vals = [rho * (g - R) for _, g, _, rho in points]
                i = int(np.argmax(vals))
                lo, hi = kappas[max(i - 1, 0)], kappas[min(i + 1, 2000)]
                res = scipy.optimize.minimize_scalar(
                    loss, bounds=(lo, hi), method="bounded",
                    options={"xatol": 1e-13})
                return max(vals[i], -res.fun, 0.0), i == 0

            for R in rates:
                pt = ex_exponent(BoundQuery(R=R, r=r),
                                 ExSettings(rho_max=rho_max))
                want, capped = scan(R)
                assert pt.E == pytest.approx(want, rel=1e-9, abs=1e-12)
                assert pt.rho_capped == capped
                kappa = pt.argmax.kappa
                if r_cap < R < r_one:
                    assert k_cap < kappa < k_one
                    assert _envelope_rate(kappa, r) == pytest.approx(
                        R, rel=1e-10)
                elif R >= r_one:
                    assert kappa == pytest.approx(k_one, rel=1e-12)
                    assert pt.E == pytest.approx(max(s_one - R, 0.0),
                                                 rel=1e-9, abs=1e-12)

    def test_chain_calls_per_rate(self, monkeypatch):
        # From cold records: the rho_max end at the first rate, the rho = 1
        # end at the first rate above the capped range, then one Newton
        # root and one chain call per interior rate and none at either end.
        # A bisection-only root takes ~40 chain calls, the 512-point kappa
        # scan it replaced 544.
        calls = _counted_chain(monkeypatch)
        for r in self.RATIOS:
            calls.clear()
            for R in np.linspace(0.0, 0.02, 81):
                calls.append(0)
                ex_exponent(BoundQuery(R=float(R), r=r))
            assert max(calls) <= 18
            assert np.median(calls) <= 7

    def test_rho_end_cache_is_bitwise(self, monkeypatch):
        # The ex-curve sweep (rates on [0, 0.05] at r = 400 and on [0, 0.02]
        # at r = 100), and at each cap and r one rate on each branch:
        # capped, interior root, the rho = 1 end with E > 0, and E = 0.  The
        # same points with and without the cache.
        cases = [(BoundQuery(R=float(R), r=r), None)
                 for r, top, k in ((400.0, 0.05, 45), (100.0, 0.02, 5))
                 for R in np.linspace(0.0, top, k)]
        groups = []
        for rho_max in (2.0, 100.0, 1000.0):
            for r in (1e-10, 1.0, 100.0, 400.0, 1e10):
                r_cap = ex_bounds._end(r, rho_max)[1]
                k_one, r_one, chain = ex_bounds._end(r, 1.0)
                groups.append((len(cases), k_one))
                cases += [(BoundQuery(R=R, r=r), ExSettings(rho_max=rho_max))
                          for R in (0.5 * r_cap, 0.5 * (r_cap + r_one),
                                    0.5 * (r_one + chain[4]), 2.0 * chain[4])]
        ex_bounds._end.cache_clear()
        cached = [ex_exponent(q, settings) for q, settings in cases]
        monkeypatch.setattr(ex_bounds, "_end", ex_bounds._end.__wrapped__)
        assert [ex_exponent(q, settings) for q, settings in cases] == cached
        for i, k_one in groups:
            capped, inner, one, zero = cached[i:i + 4]
            assert capped.rho_capped
            assert not inner.rho_capped and inner.argmax.kappa < k_one
            assert one.argmax.kappa == k_one and one.E > 0.0
            assert zero.argmax.kappa == k_one and zero.E == 0.0

    def test_cached_ends_need_no_chain_call(self, monkeypatch):
        ends = {r: (ex_bounds._end(r, 1000.0), ex_bounds._end(r, 1.0))
                for r in self.RATIOS}
        calls = _counted_chain(monkeypatch)
        for r, ((_, r_cap, _), (_, r_one, chain)) in ends.items():
            calls.clear()
            # Capped rates, then rates at the rho = 1 end.
            for R in (0.0, 0.5 * r_cap, r_cap, r_one,
                      0.5 * (r_one + chain[4]), 2.0 * chain[4]):
                calls.append(0)
                ex_exponent(BoundQuery(R=R, r=r))
            assert calls == [0] * 6

    def test_first_capped_rate_solves_only_the_cap_end(self, monkeypatch):
        end, seen = ex_bounds._end, []

        def spied(r, rho):
            seen.append((r, rho))
            return end(r, rho)

        monkeypatch.setattr(ex_bounds, "_end", spied)
        assert ex_exponent(BoundQuery(R=0.0, r=400.0)).rho_capped
        assert seen == [(400.0, 1000.0)]
        assert end.cache_info().currsize == 1

    def test_second_rate_reuses_the_rho_ends(self, monkeypatch):
        calls = _counted_chain(monkeypatch)
        for R in (0.013, 0.014):  # interior roots: both rho ends solved
            calls.append(0)
            pt = ex_exponent(BoundQuery(R=R, r=400.0))
            assert pt.E > 0.0 and not pt.rho_capped
        assert calls[1] < calls[0] / 2
        assert ex_bounds._end.cache_info().currsize == 2
