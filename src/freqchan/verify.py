"""Built-in self checks.

Each suite is a list of named checks returning (name, passed, detail).
They are cheap cross-validations meant to catch a broken install or a
numerically misbehaving platform, not a replacement for the test
suite: closed forms, monotonicity, dual-route agreement, and small
seeded Monte Carlo runs against the analytic ceilings.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import FirQuery, converse_rate, fir_rate
from .channel import (Codebook, SimConfig, dirichlet_product_moment,
                      estimate_bc_tail, estimate_error_probability,
                      estimate_kl_tail, estimate_product_moment,
                      kl_divergence, ml_decode, sample_dirichlet,
                      sample_multinomial)
from .ex_bounds import (MEAN_ABS_XY, ex_exponent, f_kappa, g_fn, j_fn, l_fn,
                 s_fn)
from .rc_bounds import (BoundQuery, RcSettings, delta_fn, lambda_fn,
                 lemma1_tail_bound, rate_lower_bound, rc_exponent)
from .special_fn import log_gamma, psi_fn, zeta

__all__ = ["run_suites", "SUITES"]

Check = tuple[str, bool, str]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _suite_special(seed: int) -> list[Check]:
    checks: list[Check] = []

    got = (log_gamma(1.0), log_gamma(5.0), log_gamma(0.5))
    want = (0.0, math.log(24.0), 0.5 * math.log(math.pi))
    ok = all(_close(g, w, 1e-14) for g, w in zip(got, want))
    checks.append(("log_gamma closed forms", ok, f"lg(5)={got[1]:.12g}"))

    z2, z4 = zeta(2.0), zeta(4.0)
    ok = (_close(z2, math.pi ** 2 / 6.0, 1e-10)
          and _close(z4, math.pi ** 4 / 90.0, 1e-10))
    checks.append(("zeta matches pi^2/6 and pi^4/90", ok,
                   f"zeta(2)={z2:.12g}"))

    ok = psi_fn(0.0) == 0.0 and _close(psi_fn(1.0), 2.0 * math.log(2.0), 1e-14)
    vals = [psi_fn(t) for t in (0.1, 0.5, 1.0, 5.0, 50.0)]
    ok = ok and all(a < b for a, b in zip(vals, vals[1:]))
    checks.append(("psi_fn anchors and monotonicity", ok,
                   f"psi(1)={psi_fn(1.0):.12g}"))
    return checks


def _suite_rc(seed: int) -> list[Check]:
    checks: list[Check] = []
    settings = RcSettings()

    got = lambda_fn(3.0, 0.5, 0.0)
    ok = _close(got, -0.5 * math.log(2.0), 1e-12)
    got1 = lambda_fn(1.0, 1.0, 0.0)
    ok = ok and _close(got1, -0.5 * math.log(2.0 * math.pi), 1e-12)
    checks.append(("lambda_fn closed forms at xi=0", ok,
                   f"alpha=1/2 edge gives {got:.12g}"))

    rs = (1.0, 10.0, 100.0, 400.0, 2000.0)
    deltas = [delta_fn(r, settings) for r in rs]
    ok = all(0.0 < d < psi_fn(r) for d, r in zip(deltas, rs))
    ok = ok and all(a < b for a, b in zip(deltas, deltas[1:]))
    checks.append(("delta_fn below psi_fn and increasing", ok,
                   f"delta(400)={deltas[3]:.9g}"))

    rlb = rate_lower_bound(400.0, settings)
    ok = 1.90 <= rlb <= 1.96
    checks.append(("rate lower bound near r=400 anchor", ok,
                   f"R_LB(400)={rlb:.9g}"))

    ok = all(rate_lower_bound(r, settings) < converse_rate(r)
             for r in (10.0, 100.0, 400.0))
    checks.append(("lower bound under the converse", ok, "r in {10,100,400}"))

    es = [rc_exponent(BoundQuery(R=R, r=400.0), settings).E
          for R in (0.0, 0.5, 1.0, 1.5, 2.5)]
    ok = all(a >= b for a, b in zip(es, es[1:])) and es[0] > 0 and es[-1] == 0
    checks.append(("random-coding exponent decreasing, zero past R_LB", ok,
                   f"E(0)={es[0]:.6g} E(2.5)={es[-1]:.6g}"))

    tail = lemma1_tail_bound(100, 4.0, 0.1, settings)
    ok = 0.0 < tail.bound < 1.0 and tail.rho_n > 0.0
    checks.append(("divergence tail bound sane", ok,
                   f"bound={tail.bound:.6g} rho_n={tail.rho_n:.6g}"))
    return checks


def _suite_ex(seed: int) -> list[Check]:
    checks: list[Check] = []

    f0 = f_kappa(0.0)
    ok = _close(f0, 1.0, 1e-9)
    fs = [f_kappa(k) for k in (0.0, 0.2, 0.5, 0.8, 0.95)]
    ok = ok and all(a < b for a, b in zip(fs, fs[1:]))
    checks.append(("pair moment generating value at 0, increasing", ok,
                   f"F(0)={f0:.12g} F(0.8)={fs[3]:.9g}"))

    below = max(g_fn(x) for x in (0.0, 0.3, MEAN_ABS_XY - 1e-3))
    above = g_fn(0.9)
    ok = below <= 1e-9 and above > 1e-3
    checks.append(("overlap rate function zero below the mean", ok,
                   f"G(0.9)={above:.9g}"))

    ok = j_fn(1.0) == 0.0 and j_fn(0.5) > j_fn(0.9) > 0.0
    ls = [l_fn(lam) for lam in (0.5, MEAN_ABS_XY, 0.8, 0.95)]
    ok = ok and ls[0] == 0.0 and ls[1] == 0.0 and 0.0 < ls[2] < ls[3]
    checks.append(("norm penalty and combined overlap rate", ok,
                   f"L(0.95)={ls[3]:.9g}"))

    s_hi = s_fn(400.0, 10.0)
    s_lo = s_fn(400.0, 1000.0)
    ok = s_hi > s_lo > 0.0
    checks.append(("expurgation tradeoff decreasing in rho", ok,
                   f"S(400,1000)={s_lo:.9g}"))

    pt0 = ex_exponent(BoundQuery(R=0.0, r=400.0))
    pt1 = ex_exponent(BoundQuery(R=0.014, r=400.0))
    ok = (pt0.rho_capped and pt0.E > pt1.E >= 0.0 and not pt1.rho_capped)
    checks.append(("expurgated exponent capped at zero rate only", ok,
                   f"E(0)={pt0.E:.6g} E(0.014)={pt1.E:.6g}"))
    return checks


def _suite_channel(seed: int) -> list[Check]:
    checks: list[Check] = []

    rng = np.random.default_rng(seed)
    rows = np.stack([sample_dirichlet(6, 0.5, rng).probs for _ in range(8)])
    cb = Codebook(codewords=rows, alpha=0.5, seed=seed)
    sums = cb.codewords.sum(axis=1)
    ok = (cb.codewords.shape == (8, 6) and np.all(cb.codewords >= 0.0)
          and np.allclose(sums, 1.0, atol=1e-12))
    checks.append(("codebook rows on the simplex", ok, "8 rows, 6 types"))

    ok = True
    for _ in range(50):
        point = sample_dirichlet(6, 0.5, rng)
        counts = sample_multinomial(point, trials=24, rng=rng)
        ml = ml_decode(counts, cb)
        kls = [kl_divergence(counts, cb.codewords[i]) for i in range(cb.m)]
        ok = ok and ml == int(np.argmin(kls))
    checks.append(("ml decode equals divergence minimizer", ok, "50 draws"))

    alphas = np.array([0.5, 1.5, 2.0])
    betas = np.array([1.0, 0.5, 2.5])
    closed = dirichlet_product_moment(alphas, betas)
    est = estimate_product_moment(alphas, betas, trials=200_000, seed=seed)
    gap = abs(est.mc_estimate - closed) / max(est.mc_std_err, 1e-300)
    ok = gap <= 3.5
    checks.append(("product moment matches closed form", ok,
                   f"gap={gap:.2f} std errors"))

    tail = estimate_kl_tail(n=20, r=5.0, alpha=0.5, mu=0.3,
                            trials=20_000, seed=seed)
    ok = tail.empirical <= tail.bound
    checks.append(("divergence tail under its ceiling", ok,
                   f"emp={tail.empirical:.3g} bound={tail.bound:.3g}"))

    bc = estimate_bc_tail(n=20, lam=0.9, trials=20_000, seed=seed)
    ok = bc.empirical <= bc.bound
    checks.append(("overlap tail under its ceiling", ok,
                   f"emp={bc.empirical:.3g} bound={bc.bound:.3g}"))

    # Three chunks of 819 at M = 8, n = 10, so the pool runs; ~1% of the
    # trials err, so a lost or repeated chunk changes the count.
    config = SimConfig(n=10, r=2.0, alpha=0.5, trials=2000, seed=seed, M=8)
    rep1 = estimate_error_probability(config)
    rep2 = estimate_error_probability(config)
    par = SimConfig(n=10, r=2.0, alpha=0.5, trials=2000, seed=seed, M=8,
                    parallelism=4)
    rep3 = estimate_error_probability(par)
    ok = (rep1.errors > 0 and rep1.errors == rep2.errors == rep3.errors
          and rep1.wilson_ci[0] <= rep1.eps_hat <= rep1.wilson_ci[1])
    checks.append(("simulation deterministic and parallelism invariant", ok,
                   f"errors={rep1.errors}/{config.trials}"))

    fir = fir_rate(FirQuery(g=1000.0, r=400.0))
    ok = 0.0 < fir < converse_rate(400.0)
    checks.append(("finite-budget baseline below the converse", ok,
                   f"fir(g=1000,r=400)={fir:.6g}"))
    return checks


SUITES = {
    "special": _suite_special,
    "rc": _suite_rc,
    "ex": _suite_ex,
    "channel": _suite_channel,
}


def run_suites(suite: str, seed: int = 0) -> list[Check]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    results: list[Check] = []
    for name in names:
        results.extend(SUITES[name](seed))
    return results
