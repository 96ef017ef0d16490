"""Monte Carlo ground truth for the sampling channel.

Dirichlet codebooks are read through multinomial sampling and decoded
by maximum likelihood; the estimators here pair seeded empirical
frequencies with the analytic ceilings they must stay under.

Randomness is derived counter-style from (seed, stream tag, index), so
every estimate is independent of how work is split across processes:
one driver, ``_chunked``, splits the trials into chunks whose size depends
only on the problem and gives each chunk a substream and a kernel that
vectorizes inside it and returns (sum w, sum w^2, events), which the driver
alone reduces.  The error-probability kernel draws a chunk's codebooks and
messages in one call each and its reads in row blocks of about 2^12
entries, then overwrites the codebooks with their logs, log 0 clamped to
a finite stand-in, and decodes from that one buffer; a shared codebook's
logs are taken once and only read.  The divergence-tail kernel works in row
blocks of about 2^15 entries: each draws its points, sorts every row, then
draws its reads and divergences, so its values depend on the block size.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import numpy.random  # noqa: F401  at import, not lazily at the first draw

# Listed in the package, which loads this module on their first access.
from . import _CHANNEL_NAMES as __all__
from ._record import frozen
from .ex_bounds import l_fn
from .rc_bounds import BoundQuery, lemma1_tail_bound, thm1_probability_bound
from .special_fn import _finite, log_gamma

_WILSON_Z = 1.959963984540054  # two-sided 95%
_SIMPLEX_ATOL = 1e-12
# Stand-in for log 0 in the decoder: finite, so that times a zero count it
# adds 0, and below every finite log-likelihood, which is at least -745 per
# read (the log of the smallest float) over fewer than 2^63 reads.
_LOG_ZERO = -1e300

# Stream tags, and the trials of one chunk.
_STREAM_ERROR_CHUNK = 0
_STREAM_KL_CHUNK = 1
_STREAM_BC_CHUNK = 2
_STREAM_FIXED_CODEBOOK = 3
_STREAM_MOMENT_CHUNK = 4
_CHUNK = 4096
# Entries in the (trials, M, n) codebook array of one error-simulation chunk.
_ERROR_CHUNK_ENTRIES = 1 << 16
# Largest codebook a simulation may draw, in M * n entries (128 MiB of
# float64); beyond it a config is rejected before anything is allocated.
_MAX_CODEBOOK_ENTRIES = 1 << 24
# Chunks one estimator run may take; checked before its job list is built.
_MAX_CHUNKS = 1 << 20
# Entries in one row block of a divergence-tail chunk (256 KiB of float64,
# about an L2 cache): the chunk holds one block's points, counts, frequencies
# and terms at a time.
_BLOCK_ENTRIES = 1 << 15
# Entries in one row block of an error chunk's message rows and reads: with
# its buffer and counts, a chunk at M = 2 stays under the ~1 MiB of freed
# heap at which glibc returns memory to the system for the next chunk to
# fault back in.
_READ_BLOCK_ENTRIES = 1 << 12


class DecodeError(RuntimeError):
    """Every codeword had likelihood zero for the observed counts."""


def _substream(seed: int, tag: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, index))
    return np.random.default_rng(ss)


def _map(fn, jobs: list, parallelism: int) -> list:
    """``[fn(job) for job in jobs]`` on at most ``parallelism`` workers, one
    per job and per CPU; results keep the order of ``jobs`` either way.  The
    pool's module loads on the first call with more than one worker, so a
    serial run never imports it."""
    workers = min(parallelism, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def _run_chunk(job):
    kernel, params, seed, tag, index, size = job
    return kernel(_substream(seed, tag, index), size, *params)


def _chunk_size(trials: int, codebook_entries: int = 0) -> int:
    """Trials per chunk: _CHUNK, and at most _ERROR_CHUNK_ENTRIES entries when
    each trial draws ``codebook_entries``; over _MAX_CHUNKS chunks is refused."""
    chunk = _CHUNK
    if codebook_entries:
        chunk = min(_CHUNK, max(1, _ERROR_CHUNK_ENTRIES // codebook_entries))
    if -(-trials // chunk) > _MAX_CHUNKS:
        raise ValueError(f"{trials} trials need over {_MAX_CHUNKS} chunks")
    return chunk


def _chunked(kernel, tag: int, seed: int, trials: int, params: tuple,
             parallelism: int, codebook_entries: int = 0) -> tuple:
    """(mean, standard error, events) of w over ``trials`` from the chunk
    sums (sum w, sum w^2, events) of ``kernel(rng, size, *params)``, ``rng``
    being each chunk's substream (seed, tag, index).  The chunk size comes
    from ``_chunk_size``; ``parallelism`` never changes it."""
    _check_count("trials", trials)
    _check_count("parallelism", parallelism)
    _check_count("seed", seed, least=0)
    chunk = _chunk_size(trials, codebook_entries)
    jobs = [(kernel, params, seed, tag, index, min(chunk, trials - start))
            for index, start in enumerate(range(0, trials, chunk))]
    totals, squares, events = zip(*_map(_run_chunk, jobs, parallelism))
    mean = math.fsum(totals) / trials
    var = max(math.fsum(squares) / trials - mean * mean, 0.0)
    if trials > 1:
        var *= trials / (trials - 1.0)
    return mean, math.sqrt(var / trials), sum(events)


def _check_count(name: str, value, least: int = 1) -> None:
    """Refuse a ``value`` that is not an integer (4.5 or 10.0 is not) of at
    least ``least``: 1 for a positive count, 0 for a seed."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        kind = "a positive count" if least else "nonnegative"
        raise ValueError(f"{name} must be {kind}, got {value}")


def _check_tail_chunk(n: int) -> None:
    """Refuse a tail estimate whose _CHUNK-trial chunk would draw over
    _MAX_CODEBOOK_ENTRIES entries; called before anything is allocated."""
    if _CHUNK * n > _MAX_CODEBOOK_ENTRIES:
        raise ValueError(f"{_CHUNK} trials of {n} types exceed the chunk "
                         f"budget of {_MAX_CODEBOOK_ENTRIES} entries")


def _reads(n: int, r: float) -> int:
    """The n * r reads of one transmission: integral, from 1 to 2**63 - 1.
    An n or r past the float range gives none, rather than an OverflowError."""
    reads = float(n) * float(r) if _finite(n) and _finite(r) else math.inf
    if not (math.isfinite(reads) and abs(reads - round(reads)) <= 1e-9
            and 1 <= round(reads) <= np.iinfo(np.int64).max):
        raise ValueError(f"n * r must be an integral read count from 1 to "
                         f"2**63 - 1, got {reads:.6g}")
    return int(round(reads))


def _check_alpha(alpha: float, total: float) -> None:
    """Refuse a Dirichlet shape whose draws leave the float range: alpha > 0
    with log(U) / alpha finite for every uniform U >= 2**-53 (no subnormal
    alpha), and ``total``, the row's shape sum, finite."""
    if not (alpha > 0.0 and math.isfinite(total)
            and math.isfinite(math.log(2.0 ** -53) / alpha)):
        raise ValueError(f"alpha must be positive, with log(U) / alpha and the "
                         f"row total finite; got {alpha}, total {total:.6g}")


@frozen
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
        _check_count("n", self.n)
        if not (_finite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive, got {self.r}")
        _reads(self.n, self.r)
        _check_alpha(self.alpha, self.n * float(self.alpha)
                     if _finite(self.alpha) else math.inf)
        _check_count("trials", self.trials)
        _check_count("seed", self.seed, least=0)
        if (self.M is None) == (self.R is None):
            raise ValueError("exactly one of M and R must be given")
        if self.M is not None:
            _check_count("M", self.M)
        if self.R is not None and not (_finite(self.R) and self.R >= 0.0):
            raise ValueError(f"R must be finite and >= 0, got {self.R}")
        _check_count("parallelism", self.parallelism)
        # In log space, so that exp(n R) is never formed when it is huge.
        log_m = math.log(self.M) if self.M is not None else self.n * self.R
        if log_m > math.log(_MAX_CODEBOOK_ENTRIES / self.n):
            raise ValueError(f"exp({log_m:.6g}) codewords of length {self.n} "
                             f"exceed the codebook budget of "
                             f"{_MAX_CODEBOOK_ENTRIES} entries")

    @property
    def reads(self) -> int:
        return _reads(self.n, self.r)

    @property
    def resolved_m(self) -> int:
        if self.M is not None:
            return self.M
        return max(1, int(round(math.exp(self.n * self.R))))

    @property
    def resolved_rate(self) -> float:
        # The realized codebook rate; used for the analytic ceiling.
        return math.log(self.resolved_m) / self.n


@frozen
class SimReport:
    """Simulated error frequency with its confidence interval and ceiling."""

    errors: int
    trials: int
    eps_hat: float
    wilson_ci: tuple[float, float]
    thm1_bound: float


@frozen
class TailReport:
    """Empirical divergence tail next to its analytic ceiling."""

    mu: float
    rho_n: float
    empirical: float
    bound: float
    events: int
    std_err: float


@frozen
class BcTailReport:
    """Empirical overlap tail next to its analytic ceiling."""

    lam: float
    empirical: float
    bound: float
    events: int
    std_err: float


@frozen
class MomentReport:
    """Closed-form product moment next to its Monte Carlo estimate."""

    closed_form: float
    mc_estimate: float
    mc_std_err: float


def _log_gamma_draws(rng: np.random.Generator, shape, size) -> np.ndarray:
    """log G for Gamma(shape) draws G of ``size``.  Below shape 1, G is the
    boosted Gamma(shape + 1) U^(1/shape) (Marsaglia & Tsang, ACM TOMS 26(3),
    2000), gammas drawn first, kept in logs: for tiny shapes G underflows."""
    if shape >= 1.0:
        return np.log(rng.standard_gamma(shape, size))
    logs = np.log(rng.standard_gamma(shape + 1.0, size))
    logs += np.log(rng.random(size)) / shape
    return logs


def _dirichlet(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Symmetric Dirichlet(alpha) points along the last axis of ``size``.
    At alpha = 1/2 an entry is Z^2, Z standard normal (Gamma(1/2) = Z^2 / 2);
    other shapes below 1 take exp(log G - max log G), so no row sum underflows.
    Callers check ``alpha`` with ``_check_alpha``."""
    if alpha == 0.5:
        draws = rng.standard_normal(size)
        np.square(draws, out=draws)
    elif alpha >= 1.0:
        draws = rng.standard_gamma(alpha, size)
    else:
        draws = _log_gamma_draws(rng, alpha, size)
        draws -= draws.max(axis=-1, keepdims=True)
        np.exp(draws, out=draws)
    return np.divide(draws, draws.sum(axis=-1, keepdims=True), out=draws)


def _as_pmf(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-D probability vector")
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    return arr


def _rel_entr_sum(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row sums of q log(q / p) for (rows, n) arrays q and p, with
    0 log(0 / p) = 0 and +inf where q > 0 = p.

    The ratio is 1 where q = 0, so those terms are 0 log 1; adding the
    0/1 mask leaves every other ratio exact.  One buffer, updated in place
    by unmasked ufuncs, which keep numpy's vector loops.
    """
    empty = q == 0.0
    terms = np.add(p, empty)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(q, terms, out=terms)
    np.add(terms, empty, out=terms)
    with np.errstate(divide="ignore"):
        np.log(terms, out=terms)
    np.multiply(terms, q, out=terms)
    total = terms.sum(axis=1)
    # q / p leaves the float range only for a subnormal q or p; such rows
    # are redone as q (log q - log p), infinite only where q > 0 = p.
    redo = ~np.isfinite(total)
    if redo.any():
        qr, pr = q[redo], p[redo]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(qr) - np.log(pr)
        total[redo] = np.multiply(qr, logs, out=np.zeros_like(logs),
                                  where=qr > 0.0).sum(axis=1)
    return total


def kl_divergence(q, p) -> float:
    """D(q || p) in nats with 0 log 0 = 0; +inf when q charges a p-null type.

    Both arguments are probability vectors of one length, each summing to 1
    within 1e-9; read counts enter as their frequencies, counts / counts.sum().
    """
    qv = _as_pmf(q)
    pv = _as_pmf(p)
    if qv.size != pv.size:
        raise ValueError("distributions must have the same length")
    return float(_rel_entr_sum(qv[None], pv[None])[0])


def _log(codewords: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logs of ``codewords``, into ``out`` if given, with log 0 = _LOG_ZERO."""
    with np.errstate(divide="ignore"):
        logs = np.log(codewords, out=out)
    return np.maximum(logs, _LOG_ZERO, out=logs)


def _decode(counts: np.ndarray, log_codewords: np.ndarray) -> np.ndarray:
    """Index of the codeword maximizing sum_t N_t log p_m(t), per row.

    ``counts`` is (trials, n); ``log_codewords`` is (trials, M, n), one
    codebook per trial, from ``_log``.  A type of probability zero adds 0
    where its count is 0 (0 log 0 = 0), and otherwise puts the sum at or
    below _LOG_ZERO, a likelihood of zero; every other sum is the one that
    log 0 = -inf gives.  np.argmax resolves exact ties to the lowest index.
    """
    ll = np.einsum("tmn,tn->tm", log_codewords, counts)
    if (ll <= _LOG_ZERO).all(axis=1).any():
        raise DecodeError("every codeword has likelihood zero")
    return ll.argmax(axis=1)


def ml_decode(counts, codewords) -> int:
    """Maximum-likelihood row of ``codewords``, an (M, n) matrix on the
    n-simplex within 1e-12, for ``counts``, a nonempty 1-D vector of
    nonnegative integer reads per type; neither array is modified.

    Equivalent to minimizing D(counts / counts.sum() || p_m) over the rows;
    ties resolve to the lowest index, so a tie involving the true message can
    resolve away from it and is then counted as an error by the simulator.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.size < 1:
        raise ValueError("counts must be a nonempty 1-D vector")
    if not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("counts must be integers")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    cw = np.asarray(codewords, dtype=np.float64)
    if cw.ndim != 2 or cw.shape[0] < 1 or cw.shape[1] < 1:
        raise ValueError("codewords must be a nonempty (M, n) matrix")
    if np.any(cw < 0.0) or not np.all(np.isfinite(cw)):
        raise ValueError("codewords must be finite and nonnegative")
    if np.max(np.abs(cw.sum(axis=1) - 1.0)) > _SIMPLEX_ATOL:
        raise ValueError("each codeword must sum to 1 within 1e-12")
    if counts.size != cw.shape[1]:
        raise ValueError("counts and codebook disagree on the type count")
    return int(_decode(counts[None, :], _log(cw)[None])[0])


def _wilson_ci(errors: int, trials: int) -> tuple[float, float]:
    z = _WILSON_Z
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
    """Half-width of the 95% Wilson interval rescaled to one z unit, for
    0 <= errors <= trials and trials from 1 to the float range."""
    if not (1 <= trials <= sys.float_info.max and 0 <= errors <= trials):
        raise ValueError(f"need 0 <= errors <= trials and 1 <= trials <= "
                         f"{sys.float_info.max:g}, got errors = {errors}, "
                         f"trials = {trials}")
    lo, hi = _wilson_ci(errors, trials)
    return (hi - lo) / (2.0 * _WILSON_Z)


def _error_chunk(rng: np.random.Generator, size: int, n: int, reads: int,
                 alpha: float, m: int, fixed) -> tuple[int, int, int]:
    # A fresh chunk's buffer holds its codebooks, then, after the reads, their
    # logs.  Row blocks take the same stream as one multinomial call; the
    # counts are float64, as the decoder's einsum would cast them.
    if fixed is None:
        codewords = _dirichlet(rng, alpha, (size, m, n))
    else:
        codewords = np.broadcast_to(fixed[0], (size, m, n))
    messages = rng.integers(m, size=size)
    counts = np.empty((size, n))
    block = max(1, _READ_BLOCK_ENTRIES // n)
    for lo in range(0, size, block):
        hi = min(size, lo + block)
        counts[lo:hi] = rng.multinomial(
            reads, codewords[np.arange(lo, hi), messages[lo:hi]])
    if fixed is None:
        log_codewords = _log(codewords, out=codewords)
    else:
        log_codewords = np.broadcast_to(fixed[1], (size, m, n))
    errors = int(np.count_nonzero(_decode(counts, log_codewords) != messages))
    return errors, errors, errors


def estimate_error_probability(config: SimConfig) -> SimReport:
    """Simulate the channel and report the error frequency.

    Each trial draws a fresh codebook (unless ``fresh_codebook`` is
    off), sends a uniform message, reads n*r samples and decodes by
    maximum likelihood.  Trials run in chunks of a size set by M and n
    alone, one substream each, so results are a pure function of
    (config, seed) regardless of ``parallelism``.
    """
    m = config.resolved_m
    fixed = None
    if not config.fresh_codebook:
        _chunk_size(config.trials, m * config.n)  # refuse before drawing
        rng = _substream(config.seed, _STREAM_FIXED_CODEBOOK, 0)
        codewords = _dirichlet(rng, config.alpha, (m, config.n))
        fixed = (codewords, _log(codewords))
    eps_hat, _, errors = _chunked(
        _error_chunk, _STREAM_ERROR_CHUNK, config.seed, config.trials,
        (config.n, config.reads, config.alpha, m, fixed), config.parallelism,
        codebook_entries=m * config.n)
    query = BoundQuery(R=config.resolved_rate, r=config.r)
    return SimReport(
        errors=errors,
        trials=config.trials,
        eps_hat=eps_hat,
        wilson_ci=_wilson_ci(errors, config.trials),
        thm1_bound=thm1_probability_bound(query, config.n),
    )


def _kl_tail_chunk(rng: np.random.Generator, size: int, n: int, reads: int,
                   alpha: float, rho_n: float) -> tuple[int, int, int]:
    # Each block draws its points, sorts every row ascending, then reads them.
    # One permutation of both q and p leaves D(q || p) as it was, and the
    # multinomial over permuted p is the permuted multinomial, so the sort
    # keeps every event's law; it puts the heavy types last, where numpy's
    # conditional binomials draw their small complements.
    block = max(1, _BLOCK_ENTRIES // n)
    exceed = 0
    for lo in range(0, size, block):
        rows = _dirichlet(rng, alpha, (min(block, size - lo), n))
        rows.sort(axis=1)
        div = _rel_entr_sum(rng.multinomial(reads, rows) / reads, rows)
        exceed += int(np.count_nonzero(div >= rho_n))
    return exceed, exceed, exceed


def estimate_kl_tail(n: int, r: float, alpha: float, mu: float, trials: int,
                     seed: int, parallelism: int = 1) -> TailReport:
    """Empirical frequency of D(empirical || p) >= rho_n over fresh
    Dirichlet(alpha) points p, next to its analytic ceiling."""
    _check_count("n", n)
    reads = _reads(n, r)
    _check_alpha(alpha, n * float(alpha) if _finite(alpha) else math.inf)
    _check_tail_chunk(n)
    bound, rho_n = lemma1_tail_bound(n, r, mu)
    mean, std_err, events = _chunked(
        _kl_tail_chunk, _STREAM_KL_CHUNK, seed, trials,
        (n, reads, alpha, rho_n), parallelism)
    return TailReport(mu=mu, rho_n=rho_n, empirical=mean,
                      bound=bound, events=events, std_err=std_err)


def _bc_tail_chunk(rng: np.random.Generator, size: int, n: int,
                   lam: float) -> tuple[int, int, int]:
    # Dirichlet(1/2) overlap via normal vectors: sum |x_k y_k| / (|x| |y|).
    # The norms first, in row blocks (a row's norm is its own sum), so that
    # |x y| can overwrite x.
    x = rng.standard_normal((size, n))
    y = rng.standard_normal((size, n))
    norms = np.empty(size)
    block = max(1, _BLOCK_ENTRIES // n)
    for lo in range(0, size, block):
        rows = slice(lo, lo + block)
        norms[rows] = (np.linalg.norm(x[rows], axis=1)
                       * np.linalg.norm(y[rows], axis=1))
    overlap = np.abs(np.multiply(x, y, out=x), out=x).sum(axis=1)
    overlap /= norms
    exceed = int(np.count_nonzero(overlap >= lam))
    return exceed, exceed, exceed


def estimate_bc_tail(n: int, lam: float, trials: int, seed: int,
                     parallelism: int = 1) -> BcTailReport:
    """Empirical frequency of the overlap of two independent
    Dirichlet(1/2) points reaching lam, next to 4 exp(-n L(lam))."""
    _check_count("n", n)
    _check_tail_chunk(n)
    bound = 4.0 * math.exp(-n * l_fn(lam))
    mean, std_err, events = _chunked(_bc_tail_chunk, _STREAM_BC_CHUNK, seed,
                                     trials, (n, lam), parallelism)
    return BcTailReport(lam=lam, empirical=mean, bound=bound, events=events,
                        std_err=std_err)


def _moment_arrays(alphas, betas) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(alphas), np.asarray(betas)
    if a.ndim != 1 or a.size < 1 or a.shape != b.shape:
        raise ValueError("alphas and betas must be matching 1-D vectors")
    # Not float64 yet: an integer past the float range raises OverflowError.
    if not all(map(_finite, a.tolist() + b.tolist())):
        raise ValueError("alphas and betas must be finite")
    a, b = a.astype(np.float64), b.astype(np.float64)
    total = sum(a.tolist())  # overflows to inf without a numpy warning
    _check_alpha(float(a.min()), total)
    if np.any(b < 0.0) or not math.isfinite(total + sum(b.tolist())):
        raise ValueError("betas must be nonnegative, with a finite sum")
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


def _moment_chunk(rng: np.random.Generator, size: int, a: np.ndarray,
                  b: np.ndarray) -> tuple[float, float, int]:
    # Row j holds log G_j, drawn at a scalar shape (the sampler's fast path;
    # row order is part of the stream contract), 1/2 boosted like any shape
    # below 1.  Reductions over j are then a few vector ops, and
    # sum b_j log X_j = sum b_j log G_j - (sum b) log sum G_j cannot underflow.
    logs = np.stack([_log_gamma_draws(rng, aj, size) for aj in a])
    logs -= logs.max(axis=0)
    # After the shift logs <= 0 and b >= 0, so b @ logs can overflow only
    # to -inf, where exp gives the right 0; each draw's sum over j is at
    # least 1, so the other term stays finite.
    with np.errstate(over="ignore"):
        weighted = b @ logs
    prods = np.exp(weighted - b.sum() * np.log(np.exp(logs).sum(axis=0)))
    return (float(prods.sum()), float((prods * prods).sum()),
            int(np.count_nonzero(prods)))


def estimate_product_moment(alphas, betas, trials: int, seed: int,
                            parallelism: int = 1) -> MomentReport:
    """Monte Carlo check of the closed-form product moment.

    Draws Dirichlet(alphas) points chunk by chunk and adds the chunk sums
    exactly, so the report depends only on (alphas, betas, trials, seed)
    and never on ``parallelism``.
    """
    a, b = _moment_arrays(alphas, betas)
    _check_tail_chunk(a.size)
    closed_form = dirichlet_product_moment(a, b)  # bad input fails first
    mean, std_err, _ = _chunked(_moment_chunk, _STREAM_MOMENT_CHUNK, seed,
                                trials, (a, b), parallelism)
    return MomentReport(closed_form=closed_form, mc_estimate=mean,
                        mc_std_err=std_err)
