import math
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from freqchan import channel
from freqchan.channel import (BcTailReport, Codebook, DecodeError,
                              MomentReport, SampleCounts, SimConfig,
                              SimReport, TailReport,
                              dirichlet_product_moment,
                              estimate_bc_tail, estimate_error_probability,
                              estimate_kl_tail, estimate_product_moment,
                              kl_divergence, ml_decode, wilson_std_err)

# High-precision reference values (40-digit arithmetic, rounded).
KL_34_12 = 0.13081203594113695913


class TestSimplexTypes:
    # Plain probability vectors are checked where they are read, by
    # kl_divergence.
    def test_simplex_point_accepts_valid(self):
        p = np.full(10, 0.1)  # sums to 1 - 1.1e-16
        assert kl_divergence(p, p) == 0.0

    @pytest.mark.parametrize("probs", [
        np.array([0.5, 0.6]), np.array([-0.1, 1.1]),
        np.array([[0.5, 0.5]]), np.array([math.nan, 1.0]),
    ])
    def test_simplex_point_rejects_invalid(self, probs):
        with pytest.raises(ValueError):
            kl_divergence(probs, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            kl_divergence(np.array([0.5, 0.5]), probs)

    def test_codebook_shape_and_rows(self):
        cw = np.array([[0.5, 0.5], [0.9, 0.1]])
        cb = Codebook(codewords=cw)
        assert cb.m == 2 and cb.n == 2

    def test_codebook_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            Codebook(codewords=np.array([[0.5, 0.6]]))

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
        assert channel._dirichlet(rng, 0.5, 1).tolist() == [1.0]

    def test_coordinate_symmetry(self):
        rng = np.random.default_rng(1)
        draws = channel._dirichlet(rng, 0.5, (100_000, 4))
        means = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(means - 0.25) <= 3.0 * se)

    def test_small_alpha_boost_preserves_moments(self):
        # E[P_1] = 1/n and E[P_1^2] = (alpha+1)/(n(n alpha+1)) must hold
        # through the boosted gamma path used below shape 1.
        rng = np.random.default_rng(2)
        alpha, n = 0.3, 3
        draws = channel._dirichlet(rng, alpha, (100_000, n))
        first = draws[:, 0]
        want_sq = (alpha + 1.0) / (n * (n * alpha + 1.0))
        se = first.std(ddof=1) / math.sqrt(first.size)
        assert first.mean() == pytest.approx(1.0 / n, abs=3.0 * se)
        sq = first ** 2
        se_sq = sq.std(ddof=1) / math.sqrt(sq.size)
        assert sq.mean() == pytest.approx(want_sq, abs=3.0 * se_sq)

    def test_half_is_normalized_squared_normals(self):
        shape = (50, 7)
        z = np.random.default_rng(11).standard_normal(shape)
        want = z * z / (z * z).sum(axis=1, keepdims=True)
        got = channel._dirichlet(np.random.default_rng(11), 0.5, shape)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_half_marginal_is_beta(self, n):
        # One coordinate of Dirichlet(1/2) over n types is Beta(1/2, (n-1)/2).
        first = channel._dirichlet(np.random.default_rng(12), 0.5,
                                   (20_000, n))[:, 0]
        dist = scipy.stats.beta(0.5, (n - 1) / 2.0)
        assert scipy.stats.kstest(first, dist.cdf).pvalue > 1e-3

    def test_half_underflowed_rows_stay_on_simplex(self):
        class TinyNormals:
            # Squares near 1e-320 are subnormal, so every row sum
            # underflows below the smallest normal float.
            def standard_normal(self, size):
                return 1e-160 * np.random.default_rng(13).uniform(0.5, 1.5,
                                                                  size)

        rows = channel._dirichlet(TinyNormals(), 0.5, (40, 5))
        assert np.all(np.isfinite(rows)) and np.all(rows > 0.0)
        assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-12
        # Subnormal squares keep about 11 bits.
        z = np.random.default_rng(13).uniform(0.5, 1.5, (40, 5))
        assert np.allclose(rows, z * z / (z * z).sum(axis=1, keepdims=True),
                           rtol=1e-2, atol=0.0)


class TestDivergenceAndOverlap:
    def test_kl_identity_is_zero(self):
        p = np.array([0.3, 0.7])
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

    def test_batched_kl_matches_scipy_rel_entr(self):
        rng = np.random.default_rng(31)
        q = rng.dirichlet(np.full(7, 0.5), size=400)
        q[rng.random(q.shape) < 0.3] = 0.0
        p = rng.dirichlet(np.full(7, 0.5), size=400)
        p[rng.random(p.shape) < 0.1] = 0.0  # some q > 0 = p: +inf
        # Ratios q / p beyond the float range: subnormal p, subnormal q.
        p[:20, 0] = 1e-320
        q[20:40, 0] = 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = channel._rel_entr_sum(q, p)
        want = scipy.special.rel_entr(q, p).sum(axis=1)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert 0 < np.count_nonzero(np.isinf(got)) < 400
        finite = np.isfinite(want)
        assert np.allclose(got[finite], want[finite], rtol=1e-14, atol=1e-16)
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 1e-320])) \
            == pytest.approx(math.log(0.5) - 0.5 * math.log(1e-320),
                             rel=1e-15, abs=0.0)

    def test_kl_length_mismatch(self):
        with pytest.raises(ValueError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))


class TestMlDecode:
    def test_exact_member_wins(self):
        cw = np.array([[0.5, 0.5], [0.75, 0.25], [0.1, 0.9]])
        cb = Codebook(codewords=cw)
        sc = SampleCounts(counts=np.array([3, 1]), trials=4)
        assert ml_decode(sc, cb) == 1

    def test_equals_divergence_minimizer(self):
        rng = np.random.default_rng(5)
        mismatches = 0
        for _ in range(2_000):
            rows = channel._dirichlet(rng, 0.5, (6, 4))
            cb = Codebook(codewords=rows)
            counts = SampleCounts(
                rng.multinomial(12, channel._dirichlet(rng, 0.5, 4)),
                trials=12)
            kls = [kl_divergence(counts, rows[i]) for i in range(6)]
            mismatches += ml_decode(counts, cb) != int(np.argmin(kls))
        assert mismatches == 0

    def test_tie_resolves_to_lowest_index(self):
        cw = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
        cb = Codebook(codewords=cw)
        sc = SampleCounts(counts=np.array([2, 2]), trials=4)
        assert ml_decode(sc, cb) == 0

    def test_all_zero_likelihood_is_an_error(self):
        cw = np.array([[1.0, 0.0], [1.0, 0.0]])
        cb = Codebook(codewords=cw)
        sc = SampleCounts(counts=np.array([0, 2]), trials=2)
        with pytest.raises(DecodeError):
            ml_decode(sc, cb)

    def test_length_mismatch(self):
        cb = Codebook(codewords=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            ml_decode(SampleCounts(counts=np.array([1, 1, 0]), trials=2), cb)


def _batch(rng, trials, m, n, reads, zeros=False):
    """Random (trials, M, n) codebooks with each trial's counts drawn from
    one of its codewords; ``zeros`` zeroes about a third of the entries."""
    cw = rng.dirichlet(np.full(n, 0.5), size=(trials, m))
    if zeros:
        cw[rng.random(cw.shape) < 0.3] = 0.0
        cw[..., 0] += cw.sum(axis=-1) == 0.0
        cw /= cw.sum(axis=-1, keepdims=True)
    sent = cw[np.arange(trials), rng.integers(m, size=trials)]
    return cw, rng.multinomial(reads, sent)


class TestBatchedDecode:
    @pytest.mark.parametrize("zeros", [False, True])
    def test_rows_equal_ml_decode_and_divergence_minimizer(self, zeros):
        rng = np.random.default_rng(21)
        cw, counts = _batch(rng, 500, 6, 4, 12, zeros)
        decoded = channel._decode(counts, channel._log(cw))
        for t in range(cw.shape[0]):
            cb = Codebook(codewords=cw[t])
            sc = SampleCounts(counts=counts[t], trials=12)
            kls = [kl_divergence(sc, row) for row in cw[t]]
            assert decoded[t] == ml_decode(sc, cb) == int(np.argmin(kls))

    def test_planted_ties_go_to_lowest_index(self):
        rng = np.random.default_rng(23)
        cw, counts = _batch(rng, 400, 6, 3, 8)
        low = rng.integers(5, size=400)
        high = rng.integers(low + 1, 6)
        rows = np.arange(400)
        # Copy each trial's ML codeword to indices low < high, so the
        # maximum is tied between them and the original.
        best = channel._decode(counts, channel._log(cw))
        cw[rows, low] = cw[rows, best]
        cw[rows, high] = cw[rows, best]
        decoded = channel._decode(counts, channel._log(cw))
        assert np.array_equal(decoded, np.minimum(low, best))

    def test_zero_likelihood_row_raises(self):
        cw = np.array([[[0.5, 0.5], [0.9, 0.1]], [[1.0, 0.0], [1.0, 0.0]]])
        counts = np.array([[1, 1], [0, 2]])
        with pytest.raises(DecodeError):
            channel._decode(counts, channel._log(cw))
        assert channel._decode(counts[:1], channel._log(cw[:1])).tolist() \
            == [0]


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

    @pytest.mark.parametrize("n, r", [(1, 1e300), (1, 2.0 ** 63),
                                      (4, 2.0 ** 61)])
    def test_reads_beyond_int64_rejected(self, n, r):
        # numpy's multinomial count is an int64.
        with pytest.raises(ValueError, match="2\\*\\*63 - 1"):
            SimConfig(n=n, r=r, alpha=0.5, trials=10, seed=0, M=2)

    def test_largest_read_count_runs(self):
        # 2**63 - 1024 is the largest float below 2**63.
        cfg = SimConfig(n=1, r=2.0 ** 63 - 1024, alpha=0.5, trials=10,
                        seed=1, M=2)
        assert cfg.reads == 2 ** 63 - 1024
        assert estimate_error_probability(cfg).trials == 10

    @pytest.mark.parametrize("r", [1e-300, 1e-10])
    def test_zero_reads_rejected(self, r):
        # n * r rounds to 0 reads, within 1e-9 of an integer.
        with pytest.raises(ValueError, match=r"n \* r"):
            SimConfig(n=10, r=r, alpha=0.5, trials=100, seed=0, M=2)
        with pytest.raises(ValueError, match=r"n \* r"):
            estimate_kl_tail(n=10, r=r, alpha=0.5, mu=0.1, trials=100, seed=0)

    def test_n_past_the_float_range_rejected(self):
        # n * r once raised OverflowError, from converting n to a float.
        with pytest.raises(ValueError, match=r"n \* r"):
            SimConfig(n=10 ** 400, r=1.0, alpha=0.5, trials=1, seed=0, M=2)
        with pytest.raises(ValueError, match=r"n \* r"):
            estimate_kl_tail(n=10 ** 400, r=1.0, alpha=0.5, mu=0.1,
                             trials=1, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(n=10, r=2.0, alpha=0.5, trials=10, seed=-1, M=4)


class TestErrorSimulation:
    def test_single_message_never_errs(self):
        cfg = SimConfig(n=5, r=2.0, alpha=0.5, trials=200, seed=0, M=1)
        rep = estimate_error_probability(cfg)
        assert rep.errors == 0 and rep.eps_hat == 0.0

    def test_deterministic_and_parallelism_invariant(self):
        # Three chunks (2 x 819 + 362), so parallelism 4 starts a pool.
        base = dict(n=10, r=2.0, alpha=0.5, trials=2000, seed=11, M=8)
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

    @pytest.mark.parametrize("fresh", [True, False])
    def test_errors_equal_at_parallelism_1_2_3(self, fresh):
        # M n = 40 gives 1638-trial chunks; 5000 trials leave a partial one.
        base = dict(n=10, r=1.0, alpha=0.5, trials=5000, seed=12, M=4,
                    fresh_codebook=fresh)
        reports = [estimate_error_probability(SimConfig(**base,
                                                        parallelism=p))
                   for p in (1, 2, 3)]
        assert reports[0] == reports[1] == reports[2]
        assert 0 < reports[0].errors < 5000

    def test_chunks_do_not_depend_on_parallelism(self, monkeypatch):
        seen = []

        def record(fn, jobs, parallelism):
            seen.append([job[-2:] for job in jobs])
            return [(0, 0, 0)] * len(jobs)

        monkeypatch.setattr(channel, "_map", record)
        for p in (1, 2, 7):
            estimate_error_probability(SimConfig(
                n=10, r=1.0, alpha=0.5, trials=5000, seed=1, M=4,
                parallelism=p))
        assert seen[0] == seen[1] == seen[2]
        assert seen[0] == [(0, 1638), (1, 1638), (2, 1638), (3, 86)]

    @pytest.mark.parametrize("fresh", [True, False])
    def test_chunk_matches_per_trial_decode(self, monkeypatch, fresh):
        # Replays every chunk's draws (1638 + 1638 + 224 trials, the reads in
        # row blocks of 409) and decodes each trial on its own against its
        # own codebook.  A simulation that wrote into the shared codebook
        # would decode later chunks against altered logs, and would differ
        # between parallelism 1 and 3.
        shared = []
        chunked = channel._chunked

        def spy(kernel, tag, seed, trials, params, *args, **kwargs):
            shared.append(params[-1])
            return chunked(kernel, tag, seed, trials, params, *args, **kwargs)

        monkeypatch.setattr(channel, "_chunked", spy)
        base = dict(n=10, r=1.0, alpha=0.5, trials=3500, seed=5, M=4,
                    fresh_codebook=fresh)
        reports = [estimate_error_probability(SimConfig(**base,
                                                        parallelism=p))
                   for p in (1, 3)]
        rng = channel._substream(5, channel._STREAM_FIXED_CODEBOOK, 0)
        book = channel._dirichlet(rng, 0.5, (4, 10))
        errors = 0
        for index, start in enumerate(range(0, 3500, 1638)):
            size = min(1638, 3500 - start)
            rng = channel._substream(5, channel._STREAM_ERROR_CHUNK, index)
            books = np.broadcast_to(book, (size, 4, 10))
            if fresh:
                books = channel._dirichlet(rng, 0.5, (size, 4, 10))
            messages = rng.integers(4, size=size)
            counts = rng.multinomial(10, books[np.arange(size), messages])
            for t in range(size):
                codebook = Codebook(codewords=books[t])
                before = codebook.codewords.copy()
                errors += ml_decode(SampleCounts(counts=counts[t], trials=10),
                                    codebook) != messages[t]
                assert np.array_equal(codebook.codewords, before)
        assert reports[0].errors == reports[1].errors == errors > 0
        for fixed in shared:
            assert fresh or (np.array_equal(fixed[0], book)
                             and np.array_equal(fixed[1], channel._log(book)))

    # Recorded before a chunk's codebook buffer took its logs, log 0 was
    # clamped and the reads were drawn in row blocks.
    @pytest.mark.parametrize("fresh, alpha, errors, wilson_ci", [
        (True, 0.001, 541, (0.12500106556157847, 0.1461988483182588)),
        (True, 0.5, 20, (0.0032391284674616835, 0.007710720389342788)),
        (True, 1.5, 216, (0.047413974906787615, 0.061441848507626115)),
        (False, 0.001, 973, (0.2302044424280183, 0.25678823170124343)),
        (False, 0.5, 25, (0.004237069176935509, 0.00921038107164471)),
        (False, 1.5, 293, (0.06557866825719237, 0.08174021659056784)),
    ])
    def test_reports_pinned(self, fresh, alpha, errors, wilson_ci):
        rep = estimate_error_probability(SimConfig(
            n=10, r=2.0, alpha=alpha, M=4, trials=4000, seed=4,
            fresh_codebook=fresh))
        assert rep == SimReport(errors=errors, trials=4000,
                                eps_hat=errors / 4000, wilson_ci=wilson_ci,
                                thm1_bound=36.964272962250604)

    def test_single_message_never_errs_in_chunks(self):
        for fresh in (True, False):
            cfg = SimConfig(n=2, r=1.0, alpha=0.5, trials=70_000, seed=3,
                            M=1, fresh_codebook=fresh, parallelism=2)
            assert estimate_error_probability(cfg).errors == 0

    def test_wilson_std_err_positive(self):
        assert wilson_std_err(0, 100) > 0.0
        assert wilson_std_err(50, 100) == pytest.approx(
            math.sqrt(0.25 / 100), rel=0.05)

    @pytest.mark.parametrize("errors, trials", [
        (0, 0), (5, 3), (-1, 3), (0, -2), (math.nan, 3),
        pytest.param(1, 10**400, id="1-10**400"),
    ])
    def test_wilson_std_err_refuses_impossible_counts(self, errors, trials):
        with pytest.raises(ValueError,
                           match=f"errors = {errors}, trials = {trials}"):
            wilson_std_err(errors, trials)


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
        assert rep.events == 0 and rep.std_err == 0.0

    @pytest.mark.parametrize("name", ["kl_tail", "bc_tail"])
    def test_counting_report_is_events_over_trials(self, name):
        trials = 9000
        rep = ESTIMATORS[name](trials=trials)
        p = rep.events / trials
        assert 0 < rep.events < trials
        assert rep.empirical == p
        assert rep.std_err == pytest.approx(
            math.sqrt(p * (1.0 - p) / (trials - 1)), rel=1e-15, abs=0.0)

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


def _peak_bytes(kernel, tag, *args) -> int:
    """tracemalloc peak of one chunk kernel call on substream (1, tag, 0)."""
    tracemalloc.start()
    try:
        rng = channel._substream(1, tag, 0)
        tracemalloc.reset_peak()
        kernel(rng, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTailChunks:
    # rho_n is set low enough for events.
    @pytest.mark.parametrize("n, reads, alpha, rho_n, size, index, blocks", [
        (20, 100, 0.5, 0.15, 4096, 0, 3),  # 1638 + 1638 + 820 rows
        (20, 100, 1.5, 0.15, 808, 2, 1),   # the last chunk of 9000 trials
        (100, 400, 0.5, 0.11, 4096, 0, 13),
    ])
    def test_blocks_draw_sort_then_read(
            self, monkeypatch, n, reads, alpha, rho_n, size, index, blocks):
        # Each block's points, sorted row by row, then its reads, all from
        # the chunk's one substream.
        rng = channel._substream(1, channel._STREAM_KL_CHUNK, index)
        step = channel._BLOCK_ENTRIES // n
        want = []
        for lo in range(0, size, step):
            rows = np.sort(channel._dirichlet(rng, alpha,
                                              (min(step, size - lo), n)))
            want.append(channel._rel_entr_sum(
                rng.multinomial(reads, rows) / reads, rows))
        rel_entr_sum = channel._rel_entr_sum
        seen = []

        def recording(q, p):
            seen.append(rel_entr_sum(q, p))
            return seen[-1]

        monkeypatch.setattr(channel, "_rel_entr_sum", recording)
        events = channel._kl_tail_chunk(
            channel._substream(1, channel._STREAM_KL_CHUNK, index), size, n,
            reads, alpha, rho_n)
        assert len(seen) == len(want) == blocks
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))
        exceed = int(np.count_nonzero(np.concatenate(want) >= rho_n))
        assert exceed > 0 and events == (exceed,) * 3

    def test_sorted_rows_keep_the_tail_frequency(self):
        # Sorting both the point and its reads leaves the divergence as it
        # was, so the kernel's frequency must match unsorted points read
        # directly, here with ~15,500 events a side out of 49,152.  Rows
        # sorted after their reads were drawn would be read against the
        # wrong types, and nearly every draw would cross rho_n.
        n, reads, alpha, rho_n, chunks = 20, 100, 0.5, 0.1, 12
        trials = chunks * channel._CHUNK
        got = sum(channel._kl_tail_chunk(
            channel._substream(5, channel._STREAM_KL_CHUNK, i),
            channel._CHUNK, n, reads, alpha, rho_n)[0] for i in range(chunks))
        rng = np.random.default_rng(6)
        unsorted = 0
        for _ in range(chunks):
            p = channel._dirichlet(rng, alpha, (channel._CHUNK, n))
            div = channel._rel_entr_sum(rng.multinomial(reads, p) / reads, p)
            unsorted += int(np.count_nonzero(div >= rho_n))
        assert min(got, unsorted) >= 5000
        a, b = got / trials, unsorted / trials
        se = math.sqrt((a * (1 - a) + b * (1 - b)) / trials)
        assert abs(a - b) <= 3 * se

    def test_kl_chunk_holds_its_points_and_one_block(self):
        # One block's points, counts, frequencies and terms (~868 KiB): 3.72
        # MiB when the chunk's points were drawn in one call, and 12.96 MiB
        # when its reads were too.
        rho_n = channel.lemma1_tail_bound(100, 4.0, 0.1).rho_n
        peak = _peak_bytes(channel._kl_tail_chunk, channel._STREAM_KL_CHUNK,
                           4096, 100, 400, 0.5, rho_n)
        assert peak <= 1 << 20

    def test_bc_chunk_holds_its_draws_and_one_temporary(self):
        # x, y and the square np.linalg.norm forms; 6.25 MiB when |x y| was
        # formed in two more temporaries.
        peak = _peak_bytes(channel._bc_tail_chunk, channel._STREAM_BC_CHUNK,
                           4096, 50, 0.9)
        assert peak <= 3 * 4096 * 50 * 8 + (1 << 20)

    def test_bc_chunk_holds_its_draws_and_one_block(self):
        # 4.78 MiB when np.linalg.norm squared all of x at once.
        peak = _peak_bytes(channel._bc_tail_chunk, channel._STREAM_BC_CHUNK,
                           4096, 50, 0.9)
        assert peak <= 2 * 4096 * 50 * 8 + (1 << 20)

    def test_blocked_norms_equal_one_norm_call(self):
        # Thresholds at overlaps taken with whole-chunk norms (7 blocks of
        # 655 rows at n = 50): a one-ulp move of any of them changes a count.
        rng = channel._substream(1, channel._STREAM_BC_CHUNK, 0)
        x = rng.standard_normal((4096, 50))
        y = rng.standard_normal((4096, 50))
        want = np.abs(x * y).sum(axis=1) / (np.linalg.norm(x, axis=1)
                                            * np.linalg.norm(y, axis=1))
        for lam in want[::256]:
            events = channel._bc_tail_chunk(
                channel._substream(1, channel._STREAM_BC_CHUNK, 0), 4096, 50,
                lam)
            assert events[0] == np.count_nonzero(want >= lam)

    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("size, m, n", [(25, 256, 10), (819, 2, 40)])
    def test_error_chunk_holds_one_codebook_buffer(self, size, m, n, fresh):
        # The buffer, the counts and one read block.  The peaks were 1,576
        # and 1,841 KiB with fresh codebooks when the logs and the masked
        # terms took two more buffers and the reads were drawn at once.
        fixed = None
        if not fresh:
            book = channel._dirichlet(
                channel._substream(1, channel._STREAM_FIXED_CODEBOOK, 0), 0.5,
                (m, n))
            fixed = (book, channel._log(book))
        peak = _peak_bytes(channel._error_chunk, channel._STREAM_ERROR_CHUNK,
                           size, n, 4 * n, 0.5, m, fixed)
        assert peak <= size * m * n * 8 + size * n * 8 + (1 << 18)

    @pytest.mark.parametrize("name", ["kl", "bc"])
    def test_oversized_chunk_refused_first(self, monkeypatch, name,
                                           address_space_cap):
        def no_call(*args):
            raise AssertionError("called before the chunk-size check")

        for fn in ("lemma1_tail_bound", "l_fn", "_dirichlet", "_chunked"):
            monkeypatch.setattr(channel, fn, no_call)
        with pytest.raises(ValueError, match="chunk budget"):
            if name == "kl":
                estimate_kl_tail(n=10 ** 6, r=4.0, alpha=0.5, mu=0.1,
                                 trials=10 ** 4, seed=1)
            else:
                estimate_bc_tail(n=10 ** 6, lam=0.9, trials=10 ** 4, seed=1)

    def test_chunk_budget_edge(self):
        n = channel._MAX_CODEBOOK_ENTRIES // channel._CHUNK
        assert estimate_bc_tail(n=n, lam=0.9, trials=10, seed=1).events == 0
        with pytest.raises(ValueError, match="chunk budget"):
            estimate_bc_tail(n=n + 1, lam=0.9, trials=10, seed=1)


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

    def test_overflowing_moment_is_a_value_error(self, monkeypatch):
        # Gamma(0.5 + 1e308) overflows; the estimator fails before sampling.
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the closed form")

        with pytest.raises(ValueError, match="log_gamma overflows at t"):
            dirichlet_product_moment([0.5], [1e308])
        monkeypatch.setattr(channel, "_chunked", no_sampling)
        with pytest.raises(ValueError, match="log_gamma overflows at t"):
            estimate_product_moment([0.5], [1e308], trials=10, seed=0)


class TestTinyAlpha:
    # At alpha = 0.001 the boosted draw G U^(1/alpha) underflows to zero
    # for most rows, so every row is formed from its logs.

    def test_underflowed_rows_are_points_of_the_simplex(self):
        rng = np.random.default_rng(4)
        p = channel._dirichlet(rng, 0.001, (2000, 3))
        assert np.all(np.isfinite(p)) and np.all(p >= 0.0)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        # Near-vertex points: the largest coordinate is almost always ~1.
        assert np.mean(p.max(axis=1) > 1.0 - 1e-6) > 0.9

    @pytest.mark.parametrize("alpha", [0.001, 0.3])
    def test_rows_are_normalized_log_domain_draws(self, alpha):
        # Bit for bit exp(L - max L) / sum, L = log G + log(U) / alpha.
        shape = (4000, 3)
        rng = np.random.default_rng(6)
        logs = np.log(rng.standard_gamma(alpha + 1.0, shape))
        logs = logs + np.log(rng.random(shape)) / alpha
        want = np.exp(logs - logs.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        got = channel._dirichlet(np.random.default_rng(6), alpha, shape)
        assert np.array_equal(got, want)

    def test_sample_dirichlet(self):
        rng = np.random.default_rng(1)
        tops = [channel._dirichlet(rng, 0.001, 2).max() for _ in range(200)]
        assert np.mean(np.array(tops) > 1.0 - 1e-6) > 0.9

    def test_error_simulation(self):
        rep = estimate_error_probability(SimConfig(
            n=2, r=2.0, alpha=0.001, M=2, trials=2000, seed=1))
        # Both codewords sit at the same vertex half the time, and the
        # tie then goes to message 0: the error rate is close to 1/4.
        assert abs(rep.eps_hat - 0.25) <= 4.0 * wilson_std_err(
            rep.errors, rep.trials)

    def test_kl_tail(self):
        rep = estimate_kl_tail(n=2, r=2.0, alpha=0.001, mu=0.1,
                               trials=4096, seed=1)
        assert 0.0 <= rep.empirical <= 1.0

    def test_product_moment(self):
        rep = estimate_product_moment([0.002, 0.002], [0.5, 0.0],
                                      trials=4096, seed=1)
        assert math.isfinite(rep.mc_estimate)
        assert abs(rep.mc_estimate - rep.closed_form) \
            <= 4.0 * rep.mc_std_err

    def test_zero_beta_columns_are_quiet(self):
        # Coordinates that underflow to 0 under a zero exponent are
        # 0 log 0 = 0 terms: no RuntimeWarning and no NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_product_moment([0.002, 0.002, 1.0],
                                          [0.5, 0.0, 1.0],
                                          trials=4096, seed=1)
            # sum b_j log G_j overflows to -inf: a quiet 0, as is the
            # closed form to double precision.
            tiny = estimate_product_moment([1e-300, 1.0], [1e10, 0.5],
                                           trials=2, seed=0)
        assert tiny.mc_estimate == 0.0 and tiny.closed_form < 1e-300
        assert math.isfinite(rep.mc_estimate)
        assert abs(rep.mc_estimate - rep.closed_form) \
            <= 4.0 * rep.mc_std_err


class TestMap:
    def test_pool_never_larger_than_job_count(self, monkeypatch):
        # Nor larger than the CPU count.
        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(job) for job in jobs]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(channel.os, "cpu_count", lambda: 4)
        assert channel._map(abs, [-1, -2, -3, -4, -5], 16) == [1, 2, 3, 4, 5]
        assert channel._map(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert channel._map(abs, [-1], 16) == [1]
        assert sizes == [4, 2]
        for cpus in (1, None):
            monkeypatch.setattr(channel.os, "cpu_count", lambda: cpus)
            assert channel._map(abs, [-1, -2], 8) == [1, 2]
        assert sizes == [4, 2]


def _error(parallelism=1, trials=3000, alpha=0.5, fresh=True, seed=3):
    return estimate_error_probability(SimConfig(
        n=10, r=1.0, alpha=alpha, trials=trials, seed=seed, M=256,
        parallelism=parallelism, fresh_codebook=fresh))


def _kl_tail(parallelism=1, trials=9000, alpha=1.5, seed=2):
    return estimate_kl_tail(n=5, r=2.0, alpha=alpha, mu=0.2, trials=trials,
                            seed=seed, parallelism=parallelism)


def _bc_tail(parallelism=1, trials=20_000, seed=5):
    return estimate_bc_tail(n=10, lam=0.9, trials=trials, seed=seed,
                            parallelism=parallelism)


def _moment(parallelism=1, trials=9000, alpha=0.5, seed=8):
    return estimate_product_moment([alpha, 2.0], [1.5, 0.25], trials=trials,
                                   seed=seed, parallelism=parallelism)


ESTIMATORS = {"error": _error, "kl_tail": _kl_tail, "bc_tail": _bc_tail,
              "moment": _moment}


class TestChunkDriver:
    @pytest.mark.parametrize("name, key, value", [
        (name, key, value) for name in ESTIMATORS
        for key, value in (("parallelism", 0), ("parallelism", -3),
                           ("trials", 0), ("trials", -1), ("seed", -1))
    ] + [(name, "alpha", alpha) for name in ("error", "kl_tail", "moment")
         for alpha in (0.0, -1.0, math.nan, math.inf, 1e-308, 1e-320)
    ] + [(name, "alpha", 1e308) for name in ("error", "kl_tail")])
    def test_bad_input_is_a_value_error(self, name, key, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=key):
                ESTIMATORS[name](**{key: value})

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_too_many_chunks_rejected(self, name, address_space_cap):
        # Refused before the job list of a trillion trials is built.
        with pytest.raises(ValueError, match="chunks"):
            ESTIMATORS[name](trials=10 ** 12)

    def test_fixed_codebook_not_drawn_for_a_refused_run(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("codebook drawn before the chunk check")

        monkeypatch.setattr(channel, "_dirichlet", no_draw)
        with pytest.raises(ValueError, match="chunks"):
            _error(trials=10 ** 12, fresh=False)

    def test_chunk_cap_is_exact(self, monkeypatch):
        monkeypatch.setattr(channel, "_MAX_CHUNKS", 3)
        trials = 3 * channel._CHUNK

        def kernel(rng, size):
            return size, size, size

        assert channel._chunked(kernel, 0, 1, trials, (), 1) \
            == (1.0, 0.0, trials)
        with pytest.raises(ValueError, match="chunks"):
            channel._chunked(kernel, 0, 1, trials + 1, (), 1)

    def test_chunk_sums_are_added_exactly(self):
        # Added in float order, 1e16 + 1 - 1e16 would lose the 1.
        sums = iter([(1e16, 1e32, 1), (1.0, 1.0, 1), (-1e16, 1e32, 1)])
        mean, _, events = channel._chunked(lambda rng, size: next(sums), 0, 1,
                                           3 * channel._CHUNK, (), 1)
        assert (mean, events) == (1.0 / (3 * channel._CHUNK), 3)

    @pytest.mark.parametrize("name, kwargs", [
        pytest.param(name, {}, id=name) for name in sorted(ESTIMATORS)
    ] + [pytest.param(name, {"alpha": 0.001}, id=f"{name}-alpha-0.001")
         for name in ("error", "kl_tail")])
    def test_outputs_equal_at_parallelism_1_2_8_16(self, name, kwargs):
        # Several chunks each, so every parallelism above 1 starts a pool,
        # capped at the CPU count.
        reports = [ESTIMATORS[name](parallelism=p, **kwargs)
                   for p in (1, 2, 8, 16)]
        assert reports[0] == reports[1] == reports[2] == reports[3]

    def test_stream_pins(self):
        # Exact outputs recorded before the estimators shared one chunk
        # driver; any change to a substream or to the draw order moves them.
        # The alpha = 1/2 error counts were re-recorded in 0.1.9, when
        # Dirichlet(1/2) moved to squared normals; the others keep theirs.
        assert _error(trials=2500).errors == 1339
        assert _error(trials=2500, fresh=False).errors == 1347
        fresh = estimate_error_probability(SimConfig(
            n=6, r=2.0, alpha=1.7, R=0.3, trials=3000, seed=9))
        fixed = estimate_error_probability(SimConfig(
            n=6, r=2.0, alpha=1.7, R=0.3, trials=3000, seed=9,
            fresh_codebook=False))
        assert (fresh.errors, fixed.errors) == (750, 896)
        assert _kl_tail().empirical == 26 / 9000
        assert _bc_tail().empirical == 0.01835
        assert _kl_tail().events == 26  # unmoved in 0.1.12 by coincidence
        assert _bc_tail().events == 367
        moment = estimate_product_moment(
            [0.002, 0.3, 0.5, 1.7], [0.5, 1.0, 0.0, 2.0], trials=50_000,
            seed=7)
        assert moment.mc_estimate == 5.054519953082678e-05
        assert moment.mc_std_err == 3.5983978867217397e-06
        # Recorded in 0.1.10, when tiny-alpha rows moved to the log domain.
        assert _error(trials=2500, alpha=0.001).errors == 2331
        assert _error(trials=2500, alpha=0.001, fresh=False).errors == 2367
        # Recorded in 0.1.12, when divergence-tail blocks began to draw and
        # sort their own points (84 events before); 819-row blocks at n = 40.
        assert estimate_kl_tail(n=40, r=0.25, alpha=1.5, mu=0.01, trials=9000,
                                seed=2).events == 68


class TestReportInvariants:
    def test_sim_report_consistency(self):
        cfg = SimConfig(n=8, r=2.0, alpha=0.5, trials=250, seed=9, M=4)
        rep = estimate_error_probability(cfg)
        assert isinstance(rep, SimReport)
        assert rep.eps_hat == rep.errors / rep.trials
        assert 0.0 <= rep.wilson_ci[0] <= rep.wilson_ci[1] <= 1.0
