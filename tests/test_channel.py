import math

import numpy as np
import pytest

from freqchan.channel import (BcTailReport, Codebook, DecodeError,
                              MomentReport, SampleCounts, SimConfig,
                              SimReport, SimplexPoint, TailReport,
                              dirichlet_product_moment,
                              estimate_bc_tail, estimate_error_probability,
                              estimate_kl_tail, estimate_product_moment,
                              kl_divergence, ml_decode, sample_dirichlet,
                              sample_multinomial, wilson_std_err)

# High-precision reference values (40-digit arithmetic, rounded).
KL_34_12 = 0.13081203594113695913


class TestSimplexTypes:
    def test_simplex_point_accepts_valid(self):
        p = SimplexPoint(np.array([0.25, 0.75]))
        assert len(p) == 2

    @pytest.mark.parametrize("probs", [
        np.array([0.5, 0.6]), np.array([-0.1, 1.1]),
        np.array([[0.5, 0.5]]), np.array([math.nan, 1.0]),
    ])
    def test_simplex_point_rejects_invalid(self, probs):
        with pytest.raises(ValueError):
            SimplexPoint(probs)

    def test_codebook_shape_and_rows(self):
        cw = np.array([[0.5, 0.5], [0.9, 0.1]])
        cb = Codebook(codewords=cw, alpha=0.5, seed=1)
        assert cb.m == 2 and cb.n == 2

    def test_codebook_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            Codebook(codewords=np.array([[0.5, 0.6]]), alpha=0.5, seed=1)
        with pytest.raises(ValueError):
            Codebook(codewords=np.array([[0.5, 0.5]]), alpha=0.0, seed=1)

    def test_sample_counts_conservation(self):
        with pytest.raises(ValueError):
            SampleCounts(counts=np.array([2, 1]), trials=4)
        with pytest.raises(ValueError):
            SampleCounts(counts=np.array([2.0, 2.0]), trials=4)
        sc = SampleCounts(counts=np.array([3, 1]), trials=4)
        assert sc.empirical.tolist() == [0.75, 0.25]


class TestSampleDirichlet:
    def test_single_type_is_deterministic(self):
        rng = np.random.default_rng(0)
        p = sample_dirichlet(1, 0.5, rng)
        assert p.probs.tolist() == [1.0]

    def test_coordinate_symmetry(self):
        rng = np.random.default_rng(1)
        draws = np.stack([sample_dirichlet(4, 0.5, rng).probs
                          for _ in range(100_000)])
        means = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(means - 0.25) <= 3.0 * se)

    def test_small_alpha_boost_preserves_moments(self):
        # E[P_1] = 1/n and E[P_1^2] = (alpha+1)/(n(n alpha+1)) must hold
        # through the boosted gamma path used below shape 1.
        rng = np.random.default_rng(2)
        alpha, n = 0.3, 3
        draws = np.stack([sample_dirichlet(n, alpha, rng).probs
                          for _ in range(100_000)])
        first = draws[:, 0]
        want_sq = (alpha + 1.0) / (n * (n * alpha + 1.0))
        se = first.std(ddof=1) / math.sqrt(first.size)
        assert first.mean() == pytest.approx(1.0 / n, abs=3.0 * se)
        sq = first ** 2
        se_sq = sq.std(ddof=1) / math.sqrt(sq.size)
        assert sq.mean() == pytest.approx(want_sq, abs=3.0 * se_sq)

    def test_domain(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_dirichlet(0, 0.5, rng)
        with pytest.raises(ValueError):
            sample_dirichlet(2, -1.0, rng)


class TestSampleMultinomial:
    def test_degenerate_pmf(self):
        rng = np.random.default_rng(0)
        sc = sample_multinomial(SimplexPoint(np.array([1.0, 0.0, 0.0])),
                                trials=17, rng=rng)
        assert sc.counts.tolist() == [17, 0, 0]

    def test_conservation_over_many_draws(self):
        rng = np.random.default_rng(3)
        p = SimplexPoint(np.array([0.2, 0.3, 0.5]))
        for _ in range(10_000):
            assert int(sample_multinomial(p, 6, rng).counts.sum()) == 6

    def test_marginal_mean(self):
        rng = np.random.default_rng(4)
        p = SimplexPoint(np.full(5, 0.2))
        counts = np.stack([sample_multinomial(p, 100, rng).counts
                           for _ in range(20_000)])
        first = counts[:, 0]
        se = first.std(ddof=1) / math.sqrt(first.size)
        assert first.mean() == pytest.approx(20.0, abs=3.0 * se)


class TestDivergenceAndOverlap:
    def test_kl_identity_is_zero(self):
        p = SimplexPoint(np.array([0.3, 0.7]))
        assert kl_divergence(p, p) == 0.0

    def test_kl_closed_forms(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5])) \
            == pytest.approx(math.log(2.0), rel=1e-15)
        assert kl_divergence(np.array([0.75, 0.25]), np.array([0.5, 0.5])) \
            == pytest.approx(KL_34_12, rel=1e-14)

    def test_kl_infinite_off_support(self):
        assert kl_divergence(np.array([0.5, 0.5]),
                             np.array([1.0, 0.0])) == math.inf

    def test_kl_accepts_counts(self):
        sc = SampleCounts(counts=np.array([3, 1]), trials=4)
        assert kl_divergence(sc, np.array([0.5, 0.5])) \
            == pytest.approx(KL_34_12, rel=1e-14)

    def test_kl_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))


class TestMlDecode:
    def test_exact_member_wins(self):
        cw = np.array([[0.5, 0.5], [0.75, 0.25], [0.1, 0.9]])
        cb = Codebook(codewords=cw, alpha=0.5, seed=0)
        sc = SampleCounts(counts=np.array([3, 1]), trials=4)
        assert ml_decode(sc, cb) == 1

    def test_equals_divergence_minimizer(self):
        rng = np.random.default_rng(5)
        mismatches = 0
        for _ in range(2_000):
            rows = np.stack([sample_dirichlet(4, 0.5, rng).probs
                             for _ in range(6)])
            cb = Codebook(codewords=rows, alpha=0.5, seed=0)
            counts = sample_multinomial(
                sample_dirichlet(4, 0.5, rng), trials=12, rng=rng)
            kls = [kl_divergence(counts, rows[i]) for i in range(6)]
            mismatches += ml_decode(counts, cb) != int(np.argmin(kls))
        assert mismatches == 0

    def test_tie_resolves_to_lowest_index(self):
        cw = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        cb = Codebook(codewords=cw, alpha=0.5, seed=0)
        sc = SampleCounts(counts=np.array([2, 2]), trials=4)
        assert ml_decode(sc, cb) == 0

    def test_all_zero_likelihood_is_an_error(self):
        cw = np.array([[1.0, 0.0], [1.0, 0.0]])
        cb = Codebook(codewords=cw, alpha=0.5, seed=0)
        sc = SampleCounts(counts=np.array([0, 2]), trials=2)
        with pytest.raises(DecodeError):
            ml_decode(sc, cb)

    def test_length_mismatch(self):
        cb = Codebook(codewords=np.array([[0.5, 0.5]]), alpha=0.5, seed=0)
        with pytest.raises(ValueError):
            ml_decode(SampleCounts(counts=np.array([1, 1, 0]), trials=2), cb)


class TestSimConfig:
    def test_requires_integral_reads(self):
        with pytest.raises(ValueError):
            SimConfig(n=3, r=0.5, alpha=0.5, trials=10, seed=0, M=2)
        cfg = SimConfig(n=4, r=0.5, alpha=0.5, trials=10, seed=0, M=2)
        assert cfg.reads == 2

    def test_exactly_one_size_spec(self):
        with pytest.raises(ValueError):
            SimConfig(n=2, r=2.0, alpha=0.5, trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(n=2, r=2.0, alpha=0.5, trials=1, seed=0, M=2, R=0.1)

    def test_rate_resolution(self):
        cfg = SimConfig(n=10, r=2.0, alpha=0.5, trials=1, seed=0, R=0.3)
        assert cfg.resolved_m == round(math.exp(3.0))
        assert cfg.resolved_rate == pytest.approx(
            math.log(cfg.resolved_m) / 10.0, rel=1e-15)
        tiny = SimConfig(n=2, r=2.0, alpha=0.5, trials=1, seed=0, R=0.0)
        assert tiny.resolved_m == 1

    def test_oversized_codebook_rejected(self):
        # Only constructed: exp(1000) overflows a float, and exp(18)
        # codewords of length 20 would need about 10 GiB.
        for size in (dict(n=1000, R=1.0), dict(n=20, R=0.9),
                     dict(n=10, M=(1 << 24) // 10 + 1)):
            with pytest.raises(ValueError, match="codebook budget"):
                SimConfig(r=1.0, alpha=0.5, trials=1, seed=0, **size)

    def test_codebook_budget_edge_accepted(self):
        cfg = SimConfig(n=16, r=1.0, alpha=0.5, trials=1, seed=0, M=1 << 20)
        assert cfg.resolved_m * cfg.n == 1 << 24


class TestErrorSimulation:
    def test_single_message_never_errs(self):
        cfg = SimConfig(n=5, r=2.0, alpha=0.5, trials=200, seed=0, M=1)
        rep = estimate_error_probability(cfg)
        assert rep.errors == 0 and rep.eps_hat == 0.0

    def test_deterministic_and_parallelism_invariant(self):
        base = dict(n=10, r=2.0, alpha=0.5, trials=600, seed=11, M=8)
        rep1 = estimate_error_probability(SimConfig(**base))
        rep2 = estimate_error_probability(SimConfig(**base))
        rep4 = estimate_error_probability(SimConfig(**base, parallelism=4))
        assert rep1 == rep2 == rep4
        assert rep1.errors > 0

    def test_wilson_ci_contains_estimate(self):
        cfg = SimConfig(n=10, r=2.0, alpha=0.5, trials=300, seed=3, M=8)
        rep = estimate_error_probability(cfg)
        lo, hi = rep.wilson_ci
        assert lo <= rep.eps_hat <= hi
        assert rep.thm1_bound > 0.0

    def test_zero_errors_ci_contains_zero(self):
        cfg = SimConfig(n=5, r=2.0, alpha=0.5, trials=50, seed=0, M=1)
        rep = estimate_error_probability(cfg)
        lo, hi = rep.wilson_ci
        assert lo == 0.0 and hi > 0.0

    def test_fixed_codebook_mode_differs(self):
        base = dict(n=6, r=2.0, alpha=0.5, trials=500, seed=7, M=8)
        fresh = estimate_error_probability(SimConfig(**base))
        fixed = estimate_error_probability(
            SimConfig(**base, fresh_codebook=False))
        assert fresh.errors != fixed.errors

    def test_wilson_std_err_positive(self):
        assert wilson_std_err(0, 100) > 0.0
        assert wilson_std_err(50, 100) == pytest.approx(
            math.sqrt(0.25 / 100), rel=0.05)


class TestTailEstimators:
    def test_kl_tail_nonincreasing_in_mu(self):
        reports = [estimate_kl_tail(n=20, r=5.0, alpha=0.5, mu=mu,
                                    trials=30_000, seed=13)
                   for mu in (0.05, 0.1, 0.2)]
        emps = [rep.empirical for rep in reports]
        assert all(a >= b for a, b in zip(emps, emps[1:]))
        assert all(isinstance(rep, TailReport) for rep in reports)

    def test_kl_tail_unreachable_threshold(self):
        rep = estimate_kl_tail(n=50, r=4.0, alpha=0.5, mu=5.0,
                               trials=5_000, seed=1)
        assert rep.empirical == 0.0

    def test_kl_tail_parallelism_invariant(self):
        a = estimate_kl_tail(n=20, r=5.0, alpha=0.5, mu=0.1,
                             trials=30_000, seed=13)
        b = estimate_kl_tail(n=20, r=5.0, alpha=0.5, mu=0.1,
                             trials=30_000, seed=13, parallelism=4)
        assert a == b

    def test_bc_tail_vacuous_at_tiny_lambda(self):
        rep = estimate_bc_tail(n=10, lam=0.01, trials=2_000, seed=2)
        assert rep.empirical == 1.0
        assert rep.bound >= 1.0
        assert isinstance(rep, BcTailReport)

    def test_bc_tail_nonincreasing_in_lambda(self):
        emps = [estimate_bc_tail(n=20, lam=lam, trials=30_000, seed=4).empirical
                for lam in (0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(emps, emps[1:]))

    def test_bc_tail_parallelism_invariant(self):
        a = estimate_bc_tail(n=20, lam=0.9, trials=30_000, seed=4)
        b = estimate_bc_tail(n=20, lam=0.9, trials=30_000, seed=4,
                             parallelism=4)
        assert a == b


class TestProductMoments:
    def test_uniform_mean_is_half(self):
        assert dirichlet_product_moment(np.array([1.0, 1.0]),
                                        np.array([1.0, 0.0])) \
            == pytest.approx(0.5, rel=1e-12)

    def test_uniform_cross_moment_is_sixth(self):
        assert dirichlet_product_moment(np.array([1.0, 1.0]),
                                        np.array([1.0, 1.0])) \
            == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_monte_carlo_agreement(self):
        rep = estimate_product_moment(np.array([0.5, 0.5, 0.5]),
                                      np.array([0.3, 1.2, 0.0]),
                                      trials=300_000, seed=6)
        assert isinstance(rep, MomentReport)
        assert rep.mc_std_err > 0.0
        assert abs(rep.mc_estimate - rep.closed_form) <= 3.5 * rep.mc_std_err

    def test_parallelism_invariant(self):
        a = estimate_product_moment(np.array([0.5, 2.0]),
                                    np.array([1.5, 0.25]),
                                    trials=100_000, seed=8)
        b = estimate_product_moment(np.array([0.5, 2.0]),
                                    np.array([1.5, 0.25]),
                                    trials=100_000, seed=8, parallelism=4)
        assert a == b

    def test_domain(self):
        with pytest.raises(ValueError):
            dirichlet_product_moment(np.array([0.0, 1.0]),
                                     np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            dirichlet_product_moment(np.array([1.0, 1.0]),
                                     np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            estimate_product_moment(np.array([1.0]), np.array([1.0]),
                                    trials=0, seed=0)


class TestReportInvariants:
    def test_sim_report_consistency(self):
        cfg = SimConfig(n=8, r=2.0, alpha=0.5, trials=250, seed=9, M=4)
        rep = estimate_error_probability(cfg)
        assert isinstance(rep, SimReport)
        assert rep.eps_hat == rep.errors / rep.trials
        assert 0.0 <= rep.wilson_ci[0] <= rep.wilson_ci[1] <= 1.0
