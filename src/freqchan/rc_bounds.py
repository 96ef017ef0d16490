"""Random-coding bounds for the frequency channel.

Provides the two scalar functionals the achievability analysis is built
from (``lambda_fn`` and ``delta_fn``), the error exponent and the
achievable-rate bound obtained by optimizing them, and the finite-n
probability ceilings implied at the optimized parameters.

Both optimized quantities grow with A = Lambda(r, alpha, xi) - xi Delta(r)
(the exponent maximizes [A - R]_+ / (1 + xi), the rate bound A itself),
and Lambda strictly decreases in alpha on alpha >= 1/2:
dLambda/dalpha = digamma(alpha) - log(alpha) - (alpha - 1/2)/(alpha + xi r),
and digamma(alpha) < log(alpha) - 1/(2 alpha) for every alpha > 0 (Alzer,
Math. Comp. 66, 1997).  So the alpha argmax is the open end of
(1/2, alpha_cap], moved inward by the optimizer's ``open_margin``, and
each bound is one scalar search in xi.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

from .optimize import (OptimizerSettings, SearchInterval, maximize_scalar,
                       minimize_scalar)
from .special_fn import log_gamma, psi_fn, zeta

__all__ = [
    "BoundQuery",
    "CapWarning",
    "ExponentPoint",
    "KlTailBound",
    "RcParams",
    "RcSettings",
    "chernoff_pairwise_bound",
    "delta_fn",
    "lambda_fn",
    "lemma1_tail_bound",
    "rate_lower_bound",
    "rc_exponent",
    "thm1_probability_bound",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# Relative closeness to a cap at which the argmax is reported as capped.
_CAP_RTOL = 1e-6


class CapWarning(UserWarning):
    """An optimized parameter landed on its configured cap."""


@dataclass(frozen=True)
class RcParams:
    """Witness for the random-coding optimization."""

    alpha: float
    xi: float

    def __post_init__(self) -> None:
        if not self.alpha > 0.5:
            raise ValueError(f"alpha must exceed 1/2, got {self.alpha}")
        if not self.xi > 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")


@dataclass(frozen=True)
class RcSettings:
    """Search caps and optimizer configuration for the rc bounds.

    ``q_interval`` of None means the default (2, max(400, 4 r)] domain,
    resolved per query inside ``delta_fn``.
    """

    q_interval: SearchInterval | None = None
    alpha_cap: float = 50.0
    xi_cap: float = 10.0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self) -> None:
        if not self.alpha_cap > 0.5:
            raise ValueError("alpha_cap must exceed 1/2")
        if self.xi_cap <= 0.0:
            raise ValueError("xi_cap must be positive")


@dataclass(frozen=True)
class BoundQuery:
    """A (rate, sampling ratio) pair, optionally with a block length."""

    R: float
    r: float
    n: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R >= 0.0):
            raise ValueError(f"R must be finite and >= 0, got {self.R}")
        if not (math.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be finite and positive, got {self.r}")
        if self.n is not None and self.n < 1:
            raise ValueError(f"n must be a positive count, got {self.n}")


@dataclass(frozen=True)
class ExponentPoint:
    """An exponent value together with the parameters achieving it."""

    R: float
    E: float
    argmax: RcParams

    def __post_init__(self) -> None:
        if not self.E >= 0.0:
            raise ValueError(f"exponent must be nonnegative, got {self.E}")


@dataclass(frozen=True)
class KlTailBound:
    """Right-hand side of the divergence tail ceiling plus its threshold."""

    bound: float
    rho_n: float


def lambda_fn(r: float, alpha: float, xi: float) -> float:
    """alpha Psi(xi r / alpha) - (2 alpha - 1)/2 log(alpha + xi r)
    - log(2 pi)/2 + log Gamma(alpha).

    Defined for alpha >= 1/2 and xi >= 0 (the optimization itself stays
    strictly above 1/2, but the alpha = 1/2 edge has a closed form the
    tests rely on).
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (math.isfinite(alpha) and alpha >= 0.5):
        raise ValueError(f"alpha must be >= 1/2, got {alpha}")
    if not (math.isfinite(xi) and xi >= 0.0):
        raise ValueError(f"xi must be >= 0, got {xi}")
    return (
        alpha * psi_fn(xi * r / alpha)
        - 0.5 * (2.0 * alpha - 1.0) * math.log(alpha + xi * r)
        - _HALF_LOG_2PI
        + log_gamma(alpha)
    )


def _delta_objective(q: float, r: float) -> float:
    # log1p keeps accuracy once the zeta term decays; exp() underflows
    # gracefully to 0 for large q.
    correction = math.exp(-0.5 * q * _LOG_2PI) * zeta(0.5 * q)
    return (1.0 - 1.0 / q) * psi_fn(r) + math.log1p(correction) / q


def delta_fn(r: float, settings: RcSettings | None = None) -> float:
    """inf over q > 2 of (1 - 1/q) Psi(r) + (1/q) log(1 + (2 pi)^(-q/2) zeta(q/2)).

    The infimum is approached numerically on (2, max(400, 4 r)] unless
    the settings provide an explicit interval.  Results are memoized per
    (r, settings); the value never exceeds Psi(r), the q -> inf limit.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    return _delta_cached(float(r), settings or RcSettings())


@functools.lru_cache(maxsize=4096)
def _delta_cached(r: float, settings: RcSettings) -> float:
    interval = settings.q_interval or SearchInterval(
        2.0, max(400.0, 4.0 * r), open_lo=True)
    _, value = minimize_scalar(
        lambda q: _delta_objective(q, r), interval, settings.optimizer)
    return value


def _maximize(r: float, rate: float | None,
              settings: RcSettings) -> tuple[float, float, float]:
    """(alpha, xi, value) maximizing [A - R]_+ / (1 + xi), or A itself
    when ``rate`` is None."""
    r = float(r)
    delta = delta_fn(r, settings)
    alpha_star, _ = SearchInterval(0.5, settings.alpha_cap, open_lo=True) \
        .effective_bounds(settings.optimizer.open_margin)

    def objective(xi: float) -> float:
        a = lambda_fn(r, alpha_star, xi) - xi * delta
        return a if rate is None else max(a - rate, 0.0) / (1.0 + xi)

    xi_star, value = maximize_scalar(
        objective, SearchInterval(0.0, settings.xi_cap, open_lo=True),
        settings.optimizer)
    if xi_star >= settings.xi_cap * (1.0 - _CAP_RTOL):
        warnings.warn(
            f"argmax xi = {xi_star:.6g} touched its cap {settings.xi_cap:.6g}; "
            "consider raising the cap in RcSettings", CapWarning, stacklevel=3)
    return alpha_star, xi_star, value


def rc_exponent(query: BoundQuery,
                settings: RcSettings | None = None) -> ExponentPoint:
    """Random-coding exponent at (R, r).

    The inner supremum over mu > 0 of min([A - xi mu]_+, mu) with
    A = Lambda - xi Delta - R equals [A]_+ / (1 + xi) exactly (the two
    branches cross at mu = A / (1 + xi), which is E itself), so only
    alpha and xi make up the witness.
    """
    alpha_star, xi_star, value = _maximize(query.r, query.R,
                                           settings or RcSettings())
    return ExponentPoint(R=query.R, E=max(value, 0.0),
                         argmax=RcParams(alpha_star, xi_star))


def rate_lower_bound(r: float, settings: RcSettings | None = None) -> float:
    """sup over alpha > 1/2, xi > 0 of Lambda(r, alpha, xi) - xi Delta(r).

    The value is in nats and never exceeds the converse rate log(r)/2;
    for very small r it can be negative (a vacuous but valid bound).
    """
    _, _, value = _maximize(r, None, settings or RcSettings())
    return value


def thm1_probability_bound(query: BoundQuery,
                           settings: RcSettings | None = None) -> float:
    """2 sqrt(2 pi e n r) exp(-n E(R, r)), the ensemble error ceiling.

    Values above 1 are returned as-is (the bound is then vacuous).
    """
    if query.n is None:
        raise ValueError("thm1_probability_bound needs a block length n")
    point = rc_exponent(query, settings)
    log_bound = (
        math.log(2.0)
        + 0.5 * (1.0 + _LOG_2PI + math.log(query.n * query.r))
        - query.n * point.E
    )
    return math.exp(log_bound)


def lemma1_tail_bound(n: int, r: float, mu: float,
                      settings: RcSettings | None = None) -> KlTailBound:
    """Ceiling sqrt(2 pi e n r) exp(-n mu) on the divergence tail.

    The tail event is D(empirical || p) >= rho_n with threshold
    rho_n = (Delta(r) + mu) / r, returned alongside the bound.
    """
    if n < 1:
        raise ValueError(f"n must be a positive count, got {n}")
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    delta = delta_fn(r, settings or RcSettings())
    log_bound = 0.5 * (1.0 + _LOG_2PI + math.log(n * r)) - n * mu
    return KlTailBound(bound=math.exp(log_bound), rho_n=(delta + mu) / r)


def chernoff_pairwise_bound(p_hat_divergence: float, n: int, r: float,
                            alpha: float, xi: float) -> float:
    """2 sqrt(1 + 2 xi r) exp(xi n r D - n Lambda(r, alpha, xi)).

    Ceiling on the probability that an independent codeword looks at
    least as likely as the divergence-D one actually sent.
    """
    if n < 1:
        raise ValueError(f"n must be a positive count, got {n}")
    if not (math.isfinite(p_hat_divergence) and p_hat_divergence >= 0.0):
        raise ValueError(
            f"divergence must be >= 0, got {p_hat_divergence}")
    log_bound = (
        math.log(2.0)
        + 0.5 * math.log1p(2.0 * xi * r)
        + xi * n * r * p_hat_divergence
        - n * lambda_fn(r, alpha, xi)
    )
    if log_bound > 700.0:
        return math.inf
    return math.exp(log_bound)
