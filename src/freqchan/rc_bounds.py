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
Math. Comp. 66, 1997).  So the supremum over alpha > 1/2 is the alpha = 1/2
limit, where Lambda = Psi(2 xi r)/2 - log(2)/2 and A is concave in xi with
A'(xi) = r log(1 + 1/(2 xi r)) - Delta.  A' vanishes at
xi_LB = 1/(2 r (exp(Delta/r) - 1)), which gives the rate bound in closed
form, R_LB = -log(2 (1 - exp(-Delta/r)))/2.  The exponent has Gallager's
parametric form (Information Theory and Reliable Communication, 1968,
ch. 5): E = A'(xi) at the one xi in (0, xi_LB) where
A - (1 + xi) A' = R, an increasing function of xi, so each R < R_LB
takes one Newton root solve and E = 0 from R_LB on.

Delta's q-infimum is one Newton root too.  With s = q/2,
c = (2 pi)^(-s) zeta(s) = sum_k (2 pi k)^(-s) and Phi = log(1 + c), the
objective h(q) = (1 - 1/q) Psi(r) + Phi(q)/q has h' = (Psi - K)/q^2 with
K = Phi - q Phi'.  c is a Dirichlet series with positive terms, so it is
log-convex, 1 + c is log-convex and Phi is convex: K' = -q Phi'' < 0.  K
falls from +inf at q = 2 to 0 as q grows, so h has one stationary point,
the root of log K = log Psi, which ``newton_root`` finds with zeta, zeta'
and zeta'' from ``zeta_jet``.
"""

from __future__ import annotations

import functools
import math

from ._record import frozen
# perfbench/tracer.py wraps rc_bounds.maximize_scalar and zeta;
# tests/test_bench_bindings.py keeps the unused search bound here.
from .optimize import maximize_scalar, newton_root  # noqa: F401
from .special_fn import log_gamma, psi_fn, zeta, zeta_jet

__all__ = [
    "BoundQuery",
    "ExponentPoint",
    "KlTailBound",
    "RcParams",
    "delta_fn",
    "lambda_fn",
    "lemma1_tail_bound",
    "rate_lower_bound",
    "rc_exponent",
    "thm1_probability_bound",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# Delta's root bracket (2, hi]: hi doubles from q = 4 at most
# _DELTA_DOUBLINGS times.
_DELTA_DOUBLINGS = 16


@frozen
class RcParams:
    """Witness for the random-coding optimization."""

    alpha: float
    xi: float

    def __post_init__(self) -> None:
        if not self.alpha >= 0.5:
            raise ValueError(f"alpha must be at least 1/2, got {self.alpha}")
        if not self.xi > 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")


@frozen
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


@frozen
class ExponentPoint:
    """An exponent value together with the parameters achieving it."""

    R: float
    E: float
    argmax: RcParams

    def __post_init__(self) -> None:
        if not self.E >= 0.0:
            raise ValueError(f"exponent must be nonnegative, got {self.E}")


@frozen
class KlTailBound:
    """Right-hand side of the divergence tail ceiling plus its threshold."""

    bound: float
    rho_n: float


def lambda_fn(r: float, alpha: float, xi: float) -> float:
    """alpha Psi(xi r / alpha) - (2 alpha - 1)/2 log(alpha + xi r)
    - log(2 pi)/2 + log Gamma(alpha).

    Defined for alpha >= 1/2 and xi >= 0.  At alpha = 1/2 it is
    Psi(2 xi r)/2 - log(2)/2, the value both optimized bounds use.
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


def _delta_slope(q: float, log_psi: float) -> tuple[float, float]:
    """(log Psi - log K, its q-derivative q Phi''/K) at q, which has the
    sign of h'(q) and increases in q."""
    s = 0.5 * q
    z, dz, d2z = zeta_jet(s)
    c = math.exp(-s * _LOG_2PI) * z
    if c == 0.0:
        # c has underflowed, so K = 0 < Psi; the NaN slope makes
        # newton_root bisect.
        return math.inf, math.nan
    # Phi_s = w u and Phi_ss = w (v + (1 - w) u^2), with w = c/(1 + c),
    # u = (log c)_s and v = (log zeta)_ss.
    dlog = dz / z
    w, u = c / (1.0 + c), dlog - _LOG_2PI
    k = math.log1p(c) - s * w * u
    bend = 0.5 * s * w * (d2z / z - dlog * dlog + (1.0 - w) * u * u)
    return log_psi - math.log(k), bend / k


def delta_fn(r: float) -> float:
    """inf over q > 2 of (1 - 1/q) Psi(r) + (1/q) log(1 + (2 pi)^(-q/2) zeta(q/2)).

    The objective h has one stationary point (see the module notes).  hi
    doubles from 4 until h'(hi) >= 0, which puts it in (hi/2, hi], or in
    (2, 4]; one ``newton_root`` from hi finds it and h there is the value.
    The bracket is closed by q = 1024 at the latest: once the zeta term
    underflows (q ~ 810), h = (1 - 1/q) Psi(r) only grows.  Results are
    memoized per r; the value never exceeds Psi(r), the q -> inf limit.
    """
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    return _delta_cached(float(r))


@functools.lru_cache(maxsize=4096)
def _delta_cached(r: float) -> float:
    log_psi = math.log(psi_fn(r))
    # The bracket's end is Newton's start, so its jet is computed once.
    slope = functools.lru_cache(maxsize=1)(
        lambda q: _delta_slope(q, log_psi))
    lo, hi = 2.0, 4.0
    for _ in range(_DELTA_DOUBLINGS + 1):
        if slope(hi)[0] >= 0.0:
            return _delta_objective(newton_root(slope, lo, hi, hi), r)
        lo, hi = hi, 2.0 * hi
    raise ArithmeticError(f"no bracket for Delta's q-infimum at r = {r}")


def _r_lb(r: float, delta: float) -> float:
    """R_LB = A(xi_LB) = -log(2 (1 - exp(-Delta/r)))/2."""
    return -0.5 * math.log(-2.0 * math.expm1(-delta / r))


def rc_exponent(query: BoundQuery) -> ExponentPoint:
    """Random-coding exponent at (R, r).

    The inner supremum over mu > 0 of min([A - xi mu]_+, mu) with
    A = Lambda - xi Delta - R equals [A]_+ / (1 + xi) exactly (the two
    branches cross at mu = A / (1 + xi), which is E itself), so only
    alpha = 1/2 and xi make up the witness.  Below R_LB, xi is the root
    of A - (1 + xi) A' = R; from R_LB on, E = 0 and xi = xi_LB.
    """
    r, rate = float(query.r), query.R
    delta = delta_fn(r)
    xi_lb = 0.5 / (r * math.expm1(delta / r))  # A'(xi_LB) = 0
    if rate >= _r_lb(r, delta):
        return ExponentPoint(R=rate, E=0.0, argmax=RcParams(0.5, xi_lb))

    def a_fn(xi: float) -> float:
        return lambda_fn(r, 0.5, xi) - xi * delta

    def phi(xi: float) -> tuple[float, float]:
        slope = r * math.log1p(0.5 / (xi * r)) - delta
        return (a_fn(xi) - (1.0 + xi) * slope - rate,
                (1.0 + xi) * r / (xi * (1.0 + 2.0 * xi * r)))

    xi = newton_root(phi, 0.0, xi_lb, xi_lb)
    return ExponentPoint(R=rate, E=max(a_fn(xi) - rate, 0.0) / (1.0 + xi),
                         argmax=RcParams(0.5, xi))


def rate_lower_bound(r: float) -> float:
    """sup over alpha > 1/2, xi > 0 of Lambda(r, alpha, xi) - xi Delta(r),
    which is -log(2 (1 - exp(-Delta/r)))/2.

    The value is in nats and never exceeds the converse rate log(r)/2;
    for very small r it can be negative (a vacuous but valid bound).
    """
    return _r_lb(r, delta_fn(r))


def thm1_probability_bound(query: BoundQuery) -> float:
    """2 sqrt(2 pi e n r) exp(-n E(R, r)), the ensemble error ceiling.

    Values above 1 are returned as-is (the bound is then vacuous).
    """
    if query.n is None:
        raise ValueError("thm1_probability_bound needs a block length n")
    point = rc_exponent(query)
    log_bound = (
        math.log(2.0)
        + 0.5 * (1.0 + _LOG_2PI + math.log(query.n * query.r))
        - query.n * point.E
    )
    return math.exp(log_bound)


def lemma1_tail_bound(n: int, r: float, mu: float) -> KlTailBound:
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
    delta = delta_fn(r)
    log_bound = 0.5 * (1.0 + _LOG_2PI + math.log(n * r)) - n * mu
    return KlTailBound(bound=math.exp(log_bound), rho_n=(delta + mu) / r)
