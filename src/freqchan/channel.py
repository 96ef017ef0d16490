"""Monte Carlo ground truth for the sampling channel.

Dirichlet codebooks are read through multinomial sampling and decoded
by maximum likelihood; the estimators here pair seeded empirical
frequencies with the analytic ceilings they must stay under.

Randomness is derived counter-style from (seed, stream tag, index), so
every estimate is independent of how work is split across processes:
the error-probability simulator gives each trial its own substream,
while the bulk tail/moment estimators give each fixed-size chunk of
draws a substream and vectorize inside the chunk.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass

import numpy as np
from scipy.special import rel_entr, xlogy

from .ex_bounds import l_fn
from .rc_bounds import BoundQuery, KlTailBound, RcSettings, lemma1_tail_bound, thm1_probability_bound
from .special_fn import log_gamma

__all__ = [
    "BcTailReport",
    "Codebook",
    "DecodeError",
    "MomentReport",
    "SampleCounts",
    "SimConfig",
    "SimReport",
    "SimplexPoint",
    "bhattacharyya",
    "dirichlet_product_moment",
    "estimate_bc_tail",
    "estimate_error_probability",
    "estimate_kl_tail",
    "estimate_product_moment",
    "kl_divergence",
    "ml_decode",
    "sample_dirichlet",
    "sample_multinomial",
]

_WILSON_Z = 1.959963984540054  # two-sided 95%
_SIMPLEX_ATOL = 1e-12

# Stream tags; a fixed chunk size keeps chunked estimators independent
# of the parallelism degree.
_STREAM_ERROR_TRIAL = 0
_STREAM_KL_CHUNK = 1
_STREAM_BC_CHUNK = 2
_STREAM_FIXED_CODEBOOK = 3
_STREAM_MOMENT_CHUNK = 4
_CHUNK = 4096
# Largest codebook a simulation may draw, in M * n entries (128 MiB of
# float64); beyond it a config is rejected before anything is allocated.
_MAX_CODEBOOK_ENTRIES = 1 << 24


class DecodeError(RuntimeError):
    """Every codeword had likelihood zero for the observed counts."""


def _substream(seed: int, tag: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return np.random.default_rng(ss)


def _chunk_sizes(total: int) -> list[int]:
    sizes = [_CHUNK] * (total // _CHUNK)
    if total % _CHUNK:
        sizes.append(total % _CHUNK)
    return sizes


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector; entries sum to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 1:
            raise ValueError("probs must be a nonempty 1-D vector")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("probs must be finite and nonnegative")
        if abs(float(probs.sum()) - 1.0) > _SIMPLEX_ATOL:
            raise ValueError("probs must sum to 1 within 1e-12")
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Codebook:
    """M codewords on the n-simplex, plus the draw that produced them."""

    codewords: np.ndarray
    alpha: float
    seed: int

    def __post_init__(self) -> None:
        cw = np.asarray(self.codewords, dtype=np.float64)
        if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
            raise ValueError("codewords must be a nonempty (M, n) matrix")
        if np.any(cw < 0.0) or not np.all(np.isfinite(cw)):
            raise ValueError("codewords must be finite and nonnegative")
        if np.max(np.abs(cw.sum(axis=1) - 1.0)) > _SIMPLEX_ATOL:
            raise ValueError("each codeword must sum to 1 within 1e-12")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        object.__setattr__(self, "codewords", cw)

    @property
    def m(self) -> int:
        return int(self.codewords.shape[0])

    @property
    def n(self) -> int:
        return int(self.codewords.shape[1])


@dataclass(frozen=True)
class SampleCounts:
    """Multinomial counts over n types from a known number of draws."""

    counts: np.ndarray
    trials: int

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("counts must be a nonempty 1-D vector")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != self.trials:
            raise ValueError("counts must sum to the number of trials")
        object.__setattr__(self, "counts", counts)

    @property
    def empirical(self) -> np.ndarray:
        return self.counts / float(self.trials)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one error-probability experiment.

    Exactly one of ``M`` (codebook size) and ``R`` (rate in nats, giving
    M = round(exp(n R))) must be set.  ``n * r`` must be integral: it is
    the number of reads per transmission.
    """

    n: int
    r: float
    alpha: float
    trials: int
    seed: int
    M: int | None = None
    R: float | None = None
    parallelism: int = 1
    fresh_codebook: bool = True

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive count, got {self.n}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive, got {self.r}")
        reads = self.n * self.r
        if abs(reads - round(reads)) > 1e-9:
            raise ValueError(f"n * r must be integral, got {reads}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if (self.M is None) == (self.R is None):
            raise ValueError("exactly one of M and R must be given")
        if self.M is not None and self.M < 1:
            raise ValueError(f"M must be a positive count, got {self.M}")
        if self.R is not None and not (math.isfinite(self.R) and self.R >= 0.0):
            raise ValueError(f"R must be finite and >= 0, got {self.R}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be a positive count")
        # In log space, so that exp(n R) is never formed when it is huge.
        log_m = math.log(self.M) if self.M is not None else self.n * self.R
        if log_m > math.log(_MAX_CODEBOOK_ENTRIES / self.n):
            raise ValueError(f"exp({log_m:.6g}) codewords of length {self.n} "
                             f"exceed the codebook budget of "
                             f"{_MAX_CODEBOOK_ENTRIES} entries")

    @property
    def reads(self) -> int:
        return int(round(self.n * self.r))

    @property
    def resolved_m(self) -> int:
        if self.M is not None:
            return self.M
        return max(1, int(round(math.exp(self.n * self.R))))

    @property
    def resolved_rate(self) -> float:
        # The realized codebook rate; used for the analytic ceiling.
        return math.log(self.resolved_m) / self.n


@dataclass(frozen=True)
class SimReport:
    """Simulated error frequency with its confidence interval and ceiling."""

    errors: int
    trials: int
    eps_hat: float
    wilson_ci: tuple[float, float]
    thm1_bound: float


@dataclass(frozen=True)
class TailReport:
    """Empirical divergence tail next to its analytic ceiling."""

    mu: float
    rho_n: float
    empirical: float
    bound: float


@dataclass(frozen=True)
class BcTailReport:
    """Empirical overlap tail next to its analytic ceiling."""

    lam: float
    empirical: float
    bound: float


@dataclass(frozen=True)
class MomentReport:
    """Closed-form product moment next to its Monte Carlo estimate."""

    closed_form: float
    mc_estimate: float
    mc_std_err: float


def _gamma_draws(rng: np.random.Generator, alpha: float,
                 size: int | tuple[int, ...]) -> np.ndarray:
    """Gamma(alpha, 1) draws; shapes below 1 use the boosted draw
    Gamma(alpha + 1) * U^(1/alpha), which never underflows the way the
    direct rejection sampler can for small shapes."""
    if alpha >= 1.0:
        return rng.standard_gamma(alpha, size)
    g = rng.standard_gamma(alpha + 1.0, size)
    u = rng.random(size)
    return g * u ** (1.0 / alpha)


def sample_dirichlet(n: int, alpha: float,
                     rng: np.random.Generator) -> SimplexPoint:
    """A symmetric Dirichlet(alpha) point on the n-simplex via gamma draws."""
    if n < 1:
        raise ValueError(f"n must be a positive count, got {n}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be positive, got {alpha}")
    for _ in range(2):
        draws = _gamma_draws(rng, alpha, n)
        total = float(draws.sum())
        if total > 0.0:
            return SimplexPoint(draws / total)
    raise RuntimeError("all gamma draws were zero twice in a row")


def sample_multinomial(p: SimplexPoint, trials: int,
                       rng: np.random.Generator) -> SampleCounts:
    """Counts of ``trials`` independent draws from ``p``."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    counts = rng.multinomial(trials, p.probs)
    return SampleCounts(counts=counts, trials=trials)


def _as_pmf(x) -> np.ndarray:
    if isinstance(x, SimplexPoint):
        return x.probs
    if isinstance(x, SampleCounts):
        return x.empirical
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-D probability vector")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return arr


def kl_divergence(q, p) -> float:
    """D(q || p) in nats with 0 log 0 = 0; +inf when q charges a p-null type.

    Both arguments may be SimplexPoints, SampleCounts (read as empirical
    frequencies) or plain probability vectors.
    """
    qv = _as_pmf(q)
    pv = _as_pmf(p)
    if qv.size != pv.size:
        raise ValueError("distributions must have the same length")
    return float(rel_entr(qv, pv).sum())


def bhattacharyya(u, v) -> float:
    """Overlap sum of sqrt(u_i v_i); equals 1 iff u = v, in [0, 1]."""
    uv = _as_pmf(u)
    vv = _as_pmf(v)
    if uv.size != vv.size:
        raise ValueError("distributions must have the same length")
    return float(np.sqrt(uv * vv).sum())


def _decode_ll(counts: np.ndarray, codewords: np.ndarray) -> int:
    """Index of the codeword maximizing sum_t N_t log p_m(t).

    Only types with positive counts enter the sum (0 log 0 = 0), and
    np.argmax resolves exact ties to the lowest index.
    """
    mask = counts > 0
    with np.errstate(divide="ignore"):
        ll = np.log(codewords[:, mask]) @ counts[mask]
    if np.all(np.isneginf(ll)):
        raise DecodeError("every codeword has likelihood zero")
    return int(np.argmax(ll))


def ml_decode(counts: SampleCounts, codebook: Codebook) -> int:
    """Maximum-likelihood message index for the observed counts.

    Equivalent to minimizing D(empirical || p_m) over the codebook; ties
    resolve to the lowest index, so a tie involving the true message can
    resolve away from it and is then counted as an error by the
    simulator.
    """
    if len(counts.counts) != codebook.n:
        raise ValueError("counts and codebook disagree on the type count")
    return _decode_ll(np.asarray(counts.counts), codebook.codewords)


def _wilson_ci(errors: int, trials: int,
               z: float = _WILSON_Z) -> tuple[float, float]:
    p_hat = errors / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials
                         + z * z / (4.0 * trials * trials)) / denom
    # The interval contains p_hat in exact arithmetic; the clamps keep
    # that invariant under roundoff at the 0- and all-error edges.
    lo = min(max(0.0, center - half), p_hat)
    hi = max(min(1.0, center + half), p_hat)
    return (lo, hi)


def wilson_std_err(errors: int, trials: int) -> float:
    """Half-width of the 95% Wilson interval rescaled to one z unit."""
    lo, hi = _wilson_ci(errors, trials)
    return (hi - lo) / (2.0 * _WILSON_Z)


def _draw_codebook(rng: np.random.Generator, m: int, n: int,
                   alpha: float) -> np.ndarray:
    draws = _gamma_draws(rng, alpha, (m, n))
    totals = draws.sum(axis=1, keepdims=True)
    if np.any(totals <= 0.0):
        draws = _gamma_draws(rng, alpha, (m, n))
        totals = draws.sum(axis=1, keepdims=True)
        if np.any(totals <= 0.0):
            raise RuntimeError("all gamma draws were zero twice in a row")
    return draws / totals


def _error_trials(args) -> int:
    (seed, n, reads, alpha, m, fixed_codewords, start, stop) = args
    errors = 0
    for t in range(start, stop):
        rng = _substream(seed, _STREAM_ERROR_TRIAL, t)
        if fixed_codewords is None:
            codewords = _draw_codebook(rng, m, n, alpha)
        else:
            codewords = fixed_codewords
        message = int(rng.integers(m))
        counts = rng.multinomial(reads, codewords[message])
        errors += _decode_ll(counts, codewords) != message
    return errors


def estimate_error_probability(config: SimConfig,
                               settings: RcSettings | None = None) -> SimReport:
    """Simulate the channel and report the error frequency.

    Each trial draws a fresh codebook (unless ``fresh_codebook`` is
    off), sends a uniform message, reads n*r samples and decodes by
    maximum likelihood.  Results are a pure function of (config, seed)
    regardless of ``parallelism``.
    """
    m = config.resolved_m
    fixed = None
    if not config.fresh_codebook:
        rng = _substream(config.seed, _STREAM_FIXED_CODEBOOK, 0)
        fixed = _draw_codebook(rng, m, config.n, config.alpha)

    bounds = [0]
    step = max(1, math.ceil(config.trials / max(config.parallelism, 1)))
    while bounds[-1] < config.trials:
        bounds.append(min(bounds[-1] + step, config.trials))
    jobs = [
        (config.seed, config.n, config.reads, config.alpha, m, fixed,
         bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
    ]
    if config.parallelism > 1 and len(jobs) > 1:
        with multiprocessing.Pool(config.parallelism) as pool:
            errors = sum(pool.map(_error_trials, jobs))
    else:
        errors = sum(_error_trials(job) for job in jobs)

    eps_hat = errors / config.trials
    query = BoundQuery(R=config.resolved_rate, r=config.r, n=config.n)
    return SimReport(
        errors=errors,
        trials=config.trials,
        eps_hat=eps_hat,
        wilson_ci=_wilson_ci(errors, config.trials),
        thm1_bound=thm1_probability_bound(query, settings),
    )


def _kl_tail_chunk(args) -> int:
    (seed, n, reads, alpha, rho_n, index, size) = args
    rng = _substream(seed, _STREAM_KL_CHUNK, index)
    draws = _gamma_draws(rng, alpha, (size, n))
    p = draws / draws.sum(axis=1, keepdims=True)
    counts = rng.multinomial(reads, p)
    div = rel_entr(counts / reads, p).sum(axis=1)
    return int(np.count_nonzero(div >= rho_n))


def estimate_kl_tail(n: int, r: float, alpha: float, mu: float, trials: int,
                     seed: int, parallelism: int = 1,
                     settings: RcSettings | None = None) -> TailReport:
    """Empirical frequency of D(empirical || p) >= rho_n over fresh
    Dirichlet(alpha) points p, next to its analytic ceiling."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    reads = n * r
    if abs(reads - round(reads)) > 1e-9:
        raise ValueError(f"n * r must be integral, got {reads}")
    tail: KlTailBound = lemma1_tail_bound(n, r, mu, settings)
    jobs = [
        (seed, n, int(round(reads)), alpha, tail.rho_n, i, size)
        for i, size in enumerate(_chunk_sizes(trials))
    ]
    if parallelism > 1 and len(jobs) > 1:
        with multiprocessing.Pool(parallelism) as pool:
            exceed = sum(pool.map(_kl_tail_chunk, jobs))
    else:
        exceed = sum(_kl_tail_chunk(job) for job in jobs)
    return TailReport(mu=mu, rho_n=tail.rho_n,
                      empirical=exceed / trials, bound=tail.bound)


def _bc_tail_chunk(args) -> int:
    (seed, n, lam, index, size) = args
    rng = _substream(seed, _STREAM_BC_CHUNK, index)
    # Dirichlet(1/2) overlap via normal vectors: sum |x_k y_k| / (|x| |y|).
    x = rng.standard_normal((size, n))
    y = rng.standard_normal((size, n))
    overlap = np.abs(x * y).sum(axis=1)
    overlap /= np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
    return int(np.count_nonzero(overlap >= lam))


def estimate_bc_tail(n: int, lam: float, trials: int, seed: int,
                     parallelism: int = 1) -> BcTailReport:
    """Empirical frequency of the overlap of two independent
    Dirichlet(1/2) points reaching lam, next to 4 exp(-n L(lam))."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if n < 1:
        raise ValueError(f"n must be a positive count, got {n}")
    bound = 4.0 * math.exp(-n * l_fn(lam))
    jobs = [
        (seed, n, lam, i, size)
        for i, size in enumerate(_chunk_sizes(trials))
    ]
    if parallelism > 1 and len(jobs) > 1:
        with multiprocessing.Pool(parallelism) as pool:
            exceed = sum(pool.map(_bc_tail_chunk, jobs))
    else:
        exceed = sum(_bc_tail_chunk(job) for job in jobs)
    return BcTailReport(lam=lam, empirical=exceed / trials, bound=bound)


def _moment_arrays(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(alphas, dtype=np.float64)
    b = np.asarray(betas, dtype=np.float64)
    if a.ndim != 1 or a.size < 1 or a.shape != b.shape:
        raise ValueError("alphas and betas must be matching 1-D vectors")
    if np.any(a <= 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("alphas must be positive")
    if np.any(b < 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("betas must be nonnegative")
    return a, b


def dirichlet_product_moment(alphas, betas) -> float:
    """E[prod X_i^(beta_i)] for X ~ Dirichlet(alphas), via log-gamma.

    Equals Gamma(sum a) / Gamma(sum (a + b)) * prod Gamma(a_i + b_i)
    / Gamma(a_i); evaluated entirely in the log domain.
    """
    a, b = _moment_arrays(alphas, betas)
    log_val = log_gamma(float(a.sum())) - log_gamma(float((a + b).sum()))
    log_val += sum(log_gamma(float(ai + bi)) - log_gamma(float(ai))
                   for ai, bi in zip(a, b))
    return math.exp(log_val)


def _moment_chunk(args) -> tuple[float, float]:
    (seed, a, b, index, size) = args
    rng = _substream(seed, _STREAM_MOMENT_CHUNK, index)
    draws = np.empty((size, a.size))
    # Column-wise draws keep the gamma shape parameter scalar, which is
    # the fast sampler path; order over columns is part of the stream
    # contract.
    for j, aj in enumerate(a):
        draws[:, j] = _gamma_draws(rng, float(aj), size)
    x = draws / draws.sum(axis=1, keepdims=True)
    prods = np.exp(xlogy(b, x).sum(axis=1))
    return float(prods.sum()), float((prods * prods).sum())


def estimate_product_moment(alphas, betas, trials: int, seed: int,
                            parallelism: int = 1) -> MomentReport:
    """Monte Carlo check of the closed-form product moment.

    Draws Dirichlet(alphas) points chunk by chunk and accumulates the
    running sums in chunk order, so the report depends only on
    (alphas, betas, trials, seed) and never on ``parallelism``.
    """
    a, b = _moment_arrays(alphas, betas)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    jobs = [
        (seed, a, b, index, size)
        for index, size in enumerate(_chunk_sizes(trials))
    ]
    if parallelism > 1 and len(jobs) > 1:
        with multiprocessing.Pool(parallelism) as pool:
            partials = pool.map(_moment_chunk, jobs)
    else:
        partials = [_moment_chunk(job) for job in jobs]
    total = 0.0
    total_sq = 0.0
    for chunk_total, chunk_total_sq in partials:
        total += chunk_total
        total_sq += chunk_total_sq
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    if trials > 1:
        var *= trials / (trials - 1.0)
    return MomentReport(
        closed_form=dirichlet_product_moment(a, b),
        mc_estimate=mean,
        mc_std_err=math.sqrt(var / trials),
    )
