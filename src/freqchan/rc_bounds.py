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
ch. 5): E = A'(xi) at the one xi in (0, xi_LB) where A - (1 + xi) A' = R.
With t = 2 xi r, Psi(t)/2 = log(1 + t)/2 + xi r log(1 + 1/t), so the xi-terms
cancel: R = log((1 + t)/2)/2 + Delta - r log(1 + 1/t).  In
u = (E + Delta)/r = log(1 + 1/t), each R < R_LB solves
R + E = (u - log(2 expm1 u))/2 (R_LB at E = 0): one Newton root on
(0, R_LB - R) of an increasing, concave difference with slope
1 + 1/(2 r expm1 u) = 1 + xi, from its tangent's root at 0,
(R_LB - R)/(1 + xi_LB).  E = 0 from R_LB on.

Delta's q-infimum is one Newton root too.  With s = q/2,
c = (2 pi)^(-s) zeta(s) = sum_k (2 pi k)^(-s) and Phi = log(1 + c), the
objective h(q) = (1 - 1/q) Psi(r) + Phi(q)/q has h' = (Psi - K)/q^2 with
K = Phi - q Phi'.  c is a Dirichlet series with positive terms, so it is
log-convex, 1 + c is log-convex and Phi is convex: K' = -q Phi'' < 0.  K
falls from +inf at q = 2 to 0 as q grows, so h has one stationary point,
the root of log K = log Psi, which ``newton_root`` finds with zeta, zeta'
and zeta'' from ``zeta_jet``.  Near q = 2, K ~ 2/(q - 2): the root is near
q0 = 2 + 2/Psi.
"""

from __future__ import annotations

import functools
import math
import sys

from ._record import frozen
# perfbench/tracer.py wraps rc_bounds.maximize_scalar and zeta, unused here.
from .optimize import maximize_scalar, newton_root  # noqa: F401
from .special_fn import _finite, log_gamma, psi_fn, zeta, zeta_jet  # noqa: F401

__all__ = ["BoundQuery", "ExponentPoint", "RcParams", "delta_fn",
           "lambda_fn", "lemma1_tail_bound", "rate_lower_bound",
           "rc_exponent", "thm1_probability_bound"]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_2PI = math.log(2.0 * math.pi)
# Largest x with exp(x) finite: xi_LB needs exp(Delta/r).
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
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
    """The (rate, sampling ratio) point every exponent is a function of."""

    R: float
    r: float

    def __post_init__(self) -> None:
        if not (_finite(self.R) and self.R >= 0.0):
            raise ValueError(f"R must be finite and >= 0, got {self.R}")
        if not (_finite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be finite and positive, got {self.r}")


@frozen
class ExponentPoint:
    """An exponent value together with the parameters achieving it."""

    R: float
    E: float
    argmax: RcParams

    def __post_init__(self) -> None:
        if not self.E >= 0.0:
            raise ValueError(f"exponent must be nonnegative, got {self.E}")


def lambda_fn(r: float, alpha: float, xi: float) -> float:
    """alpha Psi(xi r / alpha) - (2 alpha - 1)/2 log(alpha + xi r)
    - log(2 pi)/2 + log Gamma(alpha).

    Defined for alpha >= 1/2 and xi >= 0.  At alpha = 1/2 it is
    Psi(2 xi r)/2 - log(2)/2, the value both optimized bounds use.
    """
    if not (_finite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (_finite(alpha) and alpha >= 0.5):
        raise ValueError(f"alpha must be >= 1/2, got {alpha}")
    if not (_finite(xi) and xi >= 0.0):
        raise ValueError(f"xi must be >= 0, got {xi}")
    return (
        alpha * psi_fn(xi * r / alpha)
        - 0.5 * (2.0 * alpha - 1.0) * math.log(alpha + xi * r)
        - _HALF_LOG_2PI
        + log_gamma(alpha)
    )


def _delta_slope(q: float, log_psi: float) -> tuple[float, float, float]:
    """(log Psi - log K, its q-derivative q Phi''/K, c) at q; the first
    has the sign of h'(q) and increases in q."""
    s = 0.5 * q
    z, dz, d2z = zeta_jet(s)
    c = math.exp(-s * _LOG_2PI) * z
    if c == 0.0:
        # c has underflowed, so K = 0 < Psi; the NaN slope makes
        # newton_root bisect.
        return math.inf, math.nan, 0.0
    # Phi_s = w u and Phi_ss = w (v + (1 - w) u^2), with w = c/(1 + c),
    # u = (log c)_s and v = (log zeta)_ss.
    dlog = dz / z
    w, u = c / (1.0 + c), dlog - _LOG_2PI
    k = math.log1p(c) - s * w * u
    bend = 0.5 * s * w * (d2z / z - dlog * dlog + (1.0 - w) * u * u)
    return log_psi - math.log(k), bend / k, c


def delta_fn(r: float) -> float:
    """inf over q > 2 of (1 - 1/q) Psi(r) + (1/q) log(1 + (2 pi)^(-q/2) zeta(q/2)).

    The objective h has one stationary point (see the module notes), in
    (2, q0] if q0 < 4 and h'(q0) >= 0 (r in ~[0.54, 2e141]), else in
    (hi/2, hi] or (2, 4] at the first hi = 4, 8, ... with h'(hi) >= 0.
    One ``newton_root`` from hi finds it; h is read at its last q.  hi is
    at most 1024: h = (1 - 1/q) Psi(r) grows once the zeta term underflows
    (q ~ 810).  Memoized per r; the value never exceeds Psi(r) (q -> inf).
    """
    if not (_finite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    return _delta_cached(float(r))


@functools.lru_cache(maxsize=4096)
def _delta_cached(r: float) -> float:
    psi = psi_fn(r)
    log_psi = math.log(psi)
    jets = {}  # q -> _delta_slope(q); the q asked for last is the last key

    def slope(q: float) -> tuple[float, float]:
        jets[q] = jets.pop(q, None) or _delta_slope(q, log_psi)
        return jets[q][:2]

    q0 = 2.0 + 2.0 / psi  # the pole asymptote's root (module notes)
    lo, hi = 2.0, (q0 if q0 < 4.0 and slope(q0)[0] >= 0.0 else 4.0)
    for _ in range(_DELTA_DOUBLINGS + 1):
        if slope(hi)[0] >= 0.0:
            newton_root(slope, lo, hi, hi)  # from hi, whose jet is kept
            q, (_, _, c) = jets.popitem()  # the last q Newton evaluated
            return (1.0 - 1.0 / q) * psi + math.log1p(c) / q
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
    alpha = 1/2 and xi make up the witness.  Below R_LB, E solves the module
    notes' equation in E; from R_LB on, E = 0 and xi = xi_LB.  An r below
    ~6.03e-309, where exp(Delta/r) overflows, is refused.
    """
    r, rate = float(query.r), query.R
    delta = delta_fn(r)
    if delta / r > _LOG_FLOAT_MAX:
        raise ValueError(f"r = {r} is too small: exp(Delta(r) / r) overflows")
    xi_lb = 0.5 / (r * math.expm1(delta / r))  # A'(xi_LB) = 0
    r_lb = _r_lb(r, delta)
    if rate >= r_lb:
        return ExponentPoint(R=rate, E=0.0, argmax=RcParams(0.5, xi_lb))

    def phi(e: float) -> tuple[float, float]:
        u = (e + delta) / r
        m = math.expm1(u)
        return e + rate - 0.5 * (u - math.log(2.0 * m)), 1.0 + 0.5 / (r * m)

    e = newton_root(phi, 0.0, r_lb - rate, (r_lb - rate) / (1.0 + xi_lb))
    xi = 0.5 / (r * math.expm1((e + delta) / r))
    return ExponentPoint(R=rate, E=e, argmax=RcParams(0.5, xi))


def rate_lower_bound(r: float) -> float:
    """sup over alpha > 1/2, xi > 0 of Lambda(r, alpha, xi) - xi Delta(r),
    which is -log(2 (1 - exp(-Delta/r)))/2.

    The value is in nats and never exceeds the converse rate log(r)/2;
    for very small r it can be negative (a vacuous but valid bound).
    """
    return _r_lb(r, delta_fn(r))


def _log_prefactor(n: int, r: float) -> float:
    """log sqrt(2 pi e n r), shared by both finite-n ceilings.  An n above
    the float range is refused before n*r could raise OverflowError."""
    if not (1 <= n <= sys.float_info.max and math.isfinite(n * r)):
        raise ValueError(f"n must be a positive count with n*r finite, "
                         f"got n = {n}")
    return 0.5 * (1.0 + _LOG_2PI + math.log(n * r))


def thm1_probability_bound(query: BoundQuery, n: int) -> float:
    """2 sqrt(2 pi e n r) exp(-n E(R, r)), the ensemble error ceiling at
    block length n.

    Values above 1 are returned as-is (the bound is then vacuous).
    """
    prefactor = _log_prefactor(n, query.r)
    return math.exp(math.log(2.0) + prefactor - n * rc_exponent(query).E)


def lemma1_tail_bound(n: int, r: float, mu: float) -> tuple[float, float]:
    """(bound, rho_n): the ceiling sqrt(2 pi e n r) exp(-n mu) on the
    divergence tail D(empirical || p) >= rho_n, and its threshold
    rho_n = (Delta(r) + mu) / r.
    """
    if not (_finite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (_finite(mu) and mu > 0.0):
        raise ValueError(f"mu must be positive, got {mu}")
    return math.exp(_log_prefactor(n, r) - n * mu), (delta_fn(r) + mu) / r
