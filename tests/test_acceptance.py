"""Acceptance gate: one test per criterion, run in numbered order.

Each test prints a single summary line (visible with -v via the test
name, and in captured output on failure) and asserts the criterion at
its stated tolerance.  Monte Carlo criteria use fixed seeds, so a pass
is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest
import scipy.special

from freqchan.baselines import FirQuery, converse_rate, fir_rate
from freqchan.channel import (SimConfig, estimate_bc_tail,
                              estimate_error_probability, estimate_kl_tail,
                              estimate_product_moment, ml_decode,
                              wilson_std_err)
from freqchan.cli import main
from freqchan.ex_bounds import MEAN_ABS_XY, ex_exponent, f_kappa, g_fn, l_fn
from freqchan.optimize import maximize_scalar
from freqchan.rc_bounds import (BoundQuery, delta_fn, lambda_fn,
                         rate_lower_bound, rc_exponent,
                         thm1_probability_bound)

SEED = 20260814
WORKERS = 8

RC_ANCHORS = {0.0: 1.7595, 0.5: 1.2993, 1.0: 0.8423, 1.5: 0.3890,
              1.9: 0.0296}
EX_ANCHORS = {0.0: 12.5969, 0.005: 7.5969, 0.01: 2.5969, 0.012: 0.8055,
              0.014: 0.0357}


_CAPSYS: pytest.CaptureFixture | None = None


@pytest.fixture(autouse=True)
def _console(capsys: pytest.CaptureFixture):
    # Criterion verdicts must reach the console even under capture.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num: int, ok: bool, detail: str) -> None:
    msg = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(msg)
    else:
        print(msg)


def test_criterion_01_random_coding_anchor_curve():
    started = time.monotonic()
    sweep = {}
    for i in range(41):
        rate = round(i * 0.05, 10)
        sweep[rate] = rc_exponent(BoundQuery(R=rate, r=400.0)).E
    elapsed = time.monotonic() - started

    worst = max(abs(sweep[R] - want) for R, want in RC_ANCHORS.items())
    ok = worst <= 0.02 and elapsed < 60.0
    _line(1, ok, f"max anchor gap {worst:.2e}, 41-point sweep {elapsed:.1f}s")
    assert worst <= 0.02
    assert elapsed < 60.0


def test_criterion_02_expurgated_anchor_curve():
    started = time.monotonic()
    got = {R: ex_exponent(BoundQuery(R=R, r=400.0)).E for R in EX_ANCHORS}
    elapsed = time.monotonic() - started

    gaps = {R: abs(got[R] - want) for R, want in EX_ANCHORS.items()}
    ok = all(gap <= (0.1 if R == 0.0 else 0.05) for R, gap in gaps.items())
    ok = ok and elapsed < 300.0
    worst = max(gaps.values())
    _line(2, ok, f"max anchor gap {worst:.2e}, five points in {elapsed:.1f}s")
    for R, gap in gaps.items():
        assert gap <= (0.1 if R == 0.0 else 0.05), f"R={R}: gap {gap}"
    assert elapsed < 300.0


def test_criterion_03_rate_bound_zero_crossing():
    value = rate_lower_bound(400.0)
    ok = 1.90 <= value <= 1.96
    _line(3, ok, f"rate_lower_bound(400) = {value:.6f}")
    assert 1.90 <= value <= 1.96


def test_criterion_04_finite_budget_peak_location():
    r_star, _ = maximize_scalar(
        lambda r: fir_rate(FirQuery(g=1000.0, r=r)), 1.0, 2000.0,
        coarse_points=4096, tol=1e-12)
    ok = 390.0 <= r_star <= 406.0
    _line(4, ok, f"argmax_r fir_rate(g=1000) = {r_star:.2f}")
    assert 390.0 <= r_star <= 406.0


def test_criterion_05_converse_dominance_grid():
    worst = -math.inf
    for r in (10.0, 50.0, 100.0, 400.0, 2000.0):
        conv = 0.5 * math.log(r)
        worst = max(worst, rate_lower_bound(r) - conv)
        for g in (50.0, 200.0, 1000.0):
            worst = max(worst, fir_rate(FirQuery(g=g, r=r)) - conv)
    ok = worst < 0.0
    _line(5, ok, f"max (bound - converse) over grid = {worst:.3e}")
    assert worst < 0.0


def test_criterion_06_divergence_tail_ceiling():
    started = time.monotonic()
    rep = estimate_kl_tail(n=100, r=4.0, alpha=0.5, mu=0.1,
                           trials=1_000_000, seed=SEED,
                           parallelism=WORKERS)
    elapsed = time.monotonic() - started
    ceiling = math.sqrt(2.0 * math.pi * math.e * 400.0) * math.exp(-10.0)
    ok = rep.empirical <= ceiling and rep.bound == pytest.approx(
        ceiling, rel=1e-12) and elapsed < 120.0
    _line(6, ok, f"empirical {rep.empirical:.2e} <= {ceiling:.4e}, "
                 f"1e6 trials in {elapsed:.1f}s")
    assert rep.empirical <= ceiling
    assert rep.bound == pytest.approx(ceiling, rel=1e-12)
    assert elapsed < 120.0


def test_criterion_07_error_probability_ceiling():
    grid = [(20, 4.0), (40, 4.0), (60, 4.0), (80, 4.0), (40, 8.0)]
    checked = 0
    details = []
    for n, r in grid:
        rate = math.log(2.0) / n
        bound = thm1_probability_bound(BoundQuery(R=rate, r=r), n)
        if bound >= 1.0:
            continue
        checked += 1
        cfg = SimConfig(n=n, r=r, alpha=0.5, trials=20_000, seed=SEED,
                        M=2, parallelism=WORKERS)
        rep = estimate_error_probability(cfg)
        se = wilson_std_err(rep.errors, rep.trials)
        assert rep.eps_hat <= bound + 3.0 * se, \
            f"(n={n}, r={r}): {rep.eps_hat} > {bound} + 3*{se}"
        details.append(f"(n={n},r={r:g}) {rep.eps_hat:.2e}<={bound:.2e}")
    ok = checked >= 3
    _line(7, ok, f"{checked} configs with bound < 1: " + "; ".join(details))
    assert checked >= 3


def _moment_configs():
    rng = np.random.default_rng(SEED)
    configs = [(np.full(3, 0.5), np.array([0.3, 1.2, 0.0]))]
    while len(configs) < 20:
        dim = int(rng.integers(2, 6))
        alphas = np.round(rng.uniform(0.3, 2.5, dim), 3)
        betas = np.round(rng.uniform(0.0, 2.0, dim), 3)
        betas[int(rng.integers(dim))] = 0.0
        if np.all(betas == np.round(betas)):
            continue
        configs.append((alphas, betas))
    return configs


def test_criterion_08_product_moment_oracle():
    worst = 0.0
    for i, (alphas, betas) in enumerate(_moment_configs()):
        rep = estimate_product_moment(alphas, betas, trials=10_000_000,
                                      seed=SEED + i, parallelism=WORKERS)
        gap = abs(rep.mc_estimate - rep.closed_form) / rep.mc_std_err
        worst = max(worst, gap)
        assert gap <= 3.0, f"config {i}: {gap:.2f} standard errors"
    ok = worst <= 3.0
    _line(8, ok, f"20 configs x 1e7 draws, worst gap {worst:.2f} SE")
    assert worst <= 3.0


def _exact_error_rate_two_types(codewords: np.ndarray) -> float:
    """Exact error probability at n=2, reads=4, M=2 for one codebook."""
    from freqchan.channel import Codebook, SampleCounts

    cb = Codebook(codewords=codewords)
    total = 0.0
    for message in range(2):
        p1 = codewords[message, 0]
        for z in range(5):
            prob = math.comb(4, z) * p1 ** z * (1.0 - p1) ** (4 - z)
            counts = SampleCounts(counts=np.array([z, 4 - z]), trials=4)
            if ml_decode(counts, cb) != message:
                total += 0.5 * prob
    return total


def test_criterion_09_exact_small_instance_decode():
    rng = np.random.default_rng(SEED)
    exact = np.empty(1000)
    for i in range(exact.size):
        rows = rng.dirichlet([0.5, 0.5], size=2)
        exact[i] = _exact_error_rate_two_types(rows)
    enum_mean = float(exact.mean())
    enum_se = float(exact.std(ddof=1)) / math.sqrt(exact.size)

    cfg = SimConfig(n=2, r=2.0, alpha=0.5, trials=100_000, seed=SEED, M=2,
                    parallelism=WORKERS)
    rep = estimate_error_probability(cfg)
    sim_se = wilson_std_err(rep.errors, rep.trials)

    combined = math.hypot(enum_se, sim_se)
    gap = abs(rep.eps_hat - enum_mean)
    ok = gap <= 3.0 * combined
    _line(9, ok, f"enumeration {enum_mean:.5f} vs simulation "
                 f"{rep.eps_hat:.5f}, gap {gap / combined:.2f} combined SE")
    assert gap <= 3.0 * combined


def test_criterion_10_pair_moment_quadrature_cross_check():
    assert abs(f_kappa(0.0) - 1.0) <= 1e-9
    rng = np.random.default_rng(SEED)
    details = []
    for kappa in (0.2, 0.5, 0.8):
        total = 0.0
        total_sq = 0.0
        n_pairs = 10_000_000
        chunk = 1_000_000
        for _ in range(n_pairs // chunk):
            vals = np.exp(kappa * np.abs(rng.standard_normal(chunk)
                                         * rng.standard_normal(chunk)))
            total += float(vals.sum())
            total_sq += float((vals * vals).sum())
        mean = total / n_pairs
        var = max(total_sq / n_pairs - mean * mean, 0.0)
        se = math.sqrt(var / n_pairs)
        gap = abs(f_kappa(kappa) - mean) / se
        details.append(f"kappa={kappa}: {gap:.2f} SE")
        assert gap <= 3.0, f"kappa={kappa}: {gap:.2f} standard errors"
    _line(10, True, "F(0)=1 to 1e-9; " + "; ".join(details))


def test_criterion_11_structural_zero_regions():
    edge = MEAN_ABS_XY - 1e-3
    worst_g = max(g_fn(float(x)) for x in np.linspace(0.0, edge, 200))
    worst_l = max(l_fn(float(x)) for x in np.linspace(1e-6, edge, 200))
    ok = worst_g <= 1e-6 and worst_l <= 1e-6
    _line(11, ok, f"max G {worst_g:.2e}, max L {worst_l:.2e} "
                  f"below 2/pi - 1e-3")
    assert worst_g <= 1e-6
    assert worst_l <= 1e-6


def test_criterion_12_overlap_tail_ceiling():
    rep = estimate_bc_tail(n=50, lam=0.95, trials=1_000_000, seed=SEED,
                           parallelism=WORKERS)
    ceiling = 4.0 * math.exp(-50.0 * l_fn(0.95))
    ok = rep.empirical <= ceiling and rep.bound == pytest.approx(
        ceiling, rel=1e-12)
    _line(12, ok, f"empirical {rep.empirical:.2e} <= {ceiling:.4f}")
    assert rep.empirical <= ceiling
    assert rep.bound == pytest.approx(ceiling, rel=1e-12)


def _brute_force_exponent(rate: float, r: float, levels: int = 3,
                          points: int = 100) -> float:
    """Zoomed 3-D grid search over (alpha, xi, mu) of the pre-reduction
    objective min([Lambda - xi (Delta + mu) - R]_+, mu)."""
    delta = delta_fn(r)
    lo = np.array([0.5 + 1e-6, 1e-6, 1e-6])
    hi = np.array([50.0, 10.0, 20.0])
    domain_lo, domain_hi = lo.copy(), hi.copy()
    best = -math.inf
    best_at = None
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], points) for i in range(3)]
        alpha, xi, mu = axes
        # Vectorized objective on the (alpha, xi) plane, then over mu.
        psi_term = np.zeros((points, points))
        t = np.outer(1.0 / alpha, xi) * r
        pos = t > 0
        psi_term[pos] = (1.0 + t[pos]) * np.log1p(t[pos]) \
            - t[pos] * np.log(t[pos])
        lam = (alpha[:, None] * psi_term
               - 0.5 * (2.0 * alpha[:, None] - 1.0)
               * np.log(alpha[:, None] + xi[None, :] * r)
               - 0.5 * math.log(2.0 * math.pi)
               + scipy.special.gammaln(alpha)[:, None])
        a_val = lam - xi[None, :] * delta - rate
        obj = np.minimum(
            np.maximum(a_val[:, :, None] - xi[None, :, None] * mu, 0.0),
            mu[None, None, :])
        flat = int(np.argmax(obj))
        value = float(obj.reshape(-1)[flat])
        ia, ix, im = np.unravel_index(flat, obj.shape)
        if value > best:
            best = value
            best_at = (alpha[ia], xi[ix], mu[im])
        steps = (hi - lo) / (points - 1)
        center = np.array(best_at)
        lo = np.maximum(center - steps, domain_lo)
        hi = np.minimum(center + steps, domain_hi)
    return best


def test_criterion_13_closed_form_mu_reduction():
    worst = 0.0
    details = []
    for rate, r in ((0.0, 400.0), (1.0, 400.0), (0.5, 10.0)):
        closed = rc_exponent(BoundQuery(R=rate, r=r)).E
        brute = _brute_force_exponent(rate, r)
        gap = abs(closed - brute)
        worst = max(worst, gap)
        details.append(f"(R={rate},r={r:g}) gap {gap:.1e}")
        assert gap <= 1e-3, f"(R={rate}, r={r}): |{closed} - {brute}|"
    _line(13, worst <= 1e-3, "; ".join(details))
    assert worst <= 1e-3


def test_criterion_14_simulation_csv_determinism(tmp_path):
    bodies = []
    for parallelism in (1, 4, 16):
        out = tmp_path / f"sim_p{parallelism}.csv"
        code = main(["simulate", "--n", "10", "--r", "2", "--M", "8",
                     "--trials", "2000", "--seed", str(SEED),
                     "--parallelism", str(parallelism), "--out", str(out)])
        assert code == 0
        with open(out, "rb") as fh:
            bodies.append(fh.read())
    ok = bodies[0] == bodies[1] == bodies[2]
    _line(14, ok, f"CSV byte-identical at parallelism 1/4/16 "
                  f"({len(bodies[0])} bytes)")
    assert ok
