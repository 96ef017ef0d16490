"""Expurgated-side bounds built on the |XY| moment-generating function.

Every level of the chain is a closed-form function of one kappa in [0, 1):
F(kappa) = E exp(kappa |XY|) = (1 + (2/pi) asin kappa) / sqrt(1 - kappa^2)
(Owen, "A table of normal integrals", 1980); x(kappa) = (log F)'(kappa),
where the Legendre transform is G(x) = kappa x - log F(kappa); the L
crossing G(lam sigma) = J(sigma) at sigma = -W0(-exp(-1 - 2 G)) and
lam = x / sigma, where L(lam) = G; and the S crossing at
rho = r log(1 / lam) / G, where S(r, rho) = G.  x, G and lam increase in
kappa and rho decreases, so ``g_fn``, ``l_fn`` and ``s_fn`` each invert
one of them by safeguarded Newton steps, and ``ex_exponent`` is one
scalar search over kappa of rho (G - R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import lambertw

from .optimize import OptimizerSettings, SearchInterval, maximize_scalar
from .rc_bounds import BoundQuery

__all__ = [
    "ExExponentPoint",
    "ExParams",
    "ExSettings",
    "MEAN_ABS_XY",
    "ex_exponent",
    "f_kappa",
    "g_fn",
    "j_fn",
    "l_fn",
    "s_fn",
]

# E|XY| for independent standard normals; G and L vanish at or below it.
MEAN_ABS_XY = 2.0 / math.pi

# sigma comes from W0 near its branch point, so lam(kappa) carries noise of
# about 1e-16 / (1 - sigma): a Newton step below _SOLVE_RTOL is at the noise.
_SOLVE_RTOL = 1e-12
_SOLVE_ATOL = 1e-20
_SOLVE_ITERS = 100


@dataclass(frozen=True)
class ExSettings:
    rho_max: float = 1000.0
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rho_max) and self.rho_max > 1.0):
            raise ValueError("rho_max must be finite and exceed 1")


@dataclass(frozen=True)
class ExParams:
    """Witness for the expurgated optimization chain."""

    kappa: float
    sigma: float
    lam: float
    rho: float

    def __post_init__(self) -> None:
        for name in ("kappa", "sigma", "lam"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if not self.rho > 1.0:
            raise ValueError(f"rho must exceed 1, got {self.rho}")


@dataclass(frozen=True)
class ExExponentPoint:
    """Expurgated exponent value, witness, and the rho-cap flag."""

    R: float
    E: float
    argmax: ExParams
    rho_capped: bool

    def __post_init__(self) -> None:
        if not self.E >= 0.0:
            raise ValueError(f"exponent must be nonnegative, got {self.E}")


def f_kappa(kappa: float) -> float:
    """E[exp(kappa |X Y|)] for independent standard normals X, Y.

    Equals (1 + (2/pi) asin kappa) / sqrt(1 - kappa^2).  Finite only for
    kappa < 1; F(0) = 1 and F is increasing and convex on [0, 1).
    """
    kappa = float(kappa)
    if not (math.isfinite(kappa) and 0.0 <= kappa < 1.0):
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    return (1.0 + MEAN_ABS_XY * math.asin(kappa)) / math.sqrt(
        (1.0 - kappa) * (1.0 + kappa))


def _chain(kappa: float) -> tuple[float, float, float, float, float, float]:
    """(x, dx/dkappa, lam, dlam/dkappa, G, sigma) at kappa in (0, 1)."""
    gap = (1.0 - kappa) * (1.0 + kappa)
    root = math.sqrt(gap)
    bend = MEAN_ABS_XY * math.asin(kappa)
    a = 1.0 + bend
    x = MEAN_ABS_XY / (root * a) + kappa / gap
    dx = (MEAN_ABS_XY * (kappa * a / root - MEAN_ABS_XY) / (gap * a * a)
          + (1.0 + kappa * kappa) / (gap * gap))
    g = kappa * x - math.log1p(bend) + 0.5 * math.log1p(-kappa * kappa)
    sigma = -float(lambertw(-math.exp(-1.0 - 2.0 * g)).real)
    lam = x / sigma
    # J(sigma) = G: (1 - 1/sigma) dsigma = 2 dG, with dG = kappa dx.  NaN
    # (a bisection in _solve) where G is below sigma's resolution.
    dsigma = (2.0 * kappa * dx * sigma / (sigma - 1.0) if sigma < 1.0
              else math.nan)
    return x, dx, lam, (dx - lam * dsigma) / sigma, g, sigma


def _solve(phi) -> float:
    """The root in (0, 1) of phi, increasing from phi(0) < 0.

    ``phi(kappa)`` returns (value, slope).  A Newton step that leaves the
    bracket, or is not half the previous step, becomes a bisection.
    """
    lo, hi = 0.0, 1.0
    kappa = step = 0.2  # just above every L and S root: lam(0.19285) = 1
    for _ in range(_SOLVE_ITERS):
        value, slope = phi(kappa)
        newton = value / slope
        if abs(newton) <= _SOLVE_RTOL * kappa:
            return kappa - newton
        if value < 0.0:
            lo = kappa
        else:
            hi = kappa
        nxt = kappa - newton
        if not (lo < nxt < hi and abs(newton) <= 0.5 * step):
            nxt = 0.5 * (lo + hi)
        if hi - lo <= _SOLVE_RTOL * hi + _SOLVE_ATOL:
            return nxt
        step = abs(nxt - kappa)
        kappa = nxt
    raise ArithmeticError(f"kappa solve did not converge, last {kappa}")


def _kappa_at(level: int, target: float) -> float:
    """kappa where x (level 0) or lam (level 2) equals target."""

    def phi(kappa: float) -> tuple[float, float]:
        c = _chain(kappa)
        return c[level] - target, c[level + 1]

    return _solve(phi)


def _kappa_at_rho(r: float, rho: float) -> float:
    """kappa with rho(kappa) = rho: the root of rho G + r log lam."""

    def phi(kappa: float) -> tuple[float, float]:
        _, dx, lam, dlam, g, _ = _chain(kappa)
        return rho * g + r * math.log(lam), rho * kappa * dx + r * dlam / lam

    return _solve(phi)


def g_fn(x: float) -> float:
    """sup over kappa in (0, 1) of kappa x - log F(kappa).

    Zero for x <= E|XY| = 2/pi and strictly positive above it.
    """
    x = float(x)
    if not (math.isfinite(x) and 0.0 <= x < 1.0):
        raise ValueError(f"x must lie in [0, 1), got {x}")
    if x <= MEAN_ABS_XY:
        return 0.0
    return _chain(_kappa_at(0, x))[4]


def j_fn(sigma: float) -> float:
    """Chi-square rate function (sigma - log sigma - 1) / 2 on (0, 1]."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and 0.0 < sigma <= 1.0):
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    return 0.5 * (sigma - math.log(sigma) - 1.0)


def l_fn(lam: float) -> float:
    """sup over sigma in (0, 1) of min(G(lam sigma), J(sigma)).

    G(lam sigma) increases in sigma and J decreases, so the value is the
    height of their crossing, G(kappa) at lam(kappa) = lam.  Zero at or
    below lam = 2/pi, strictly positive and increasing above it.
    """
    lam = float(lam)
    if not (math.isfinite(lam) and 0.0 < lam < 1.0):
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    if lam <= MEAN_ABS_XY:
        return 0.0
    return _chain(_kappa_at(2, lam))[4]


def s_fn(r: float, rho: float) -> float:
    """sup over lam in (0, 1) of min((r / rho) log(1 / lam), L(lam)).

    The first branch decreases in lam, L is nondecreasing, so the value
    is the height of their crossing, G(kappa) at rho(kappa) = rho; it is
    positive and decreasing in rho.
    """
    r = float(r)
    rho = float(rho)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (math.isfinite(rho) and rho > 1.0):
        raise ValueError(f"rho must exceed 1, got {rho}")
    return _chain(_kappa_at_rho(r, rho))[4]


def ex_exponent(query: BoundQuery,
                settings: ExSettings | None = None) -> ExExponentPoint:
    """max(0, sup over rho in (1, rho_max] of rho (S(r, rho) - R)).

    Searched over kappa in [kappa(rho_max), kappa(1)).  ``rho_capped``
    records that the argmax is the rho_max end; at very low rates the
    objective keeps growing in rho, so the reported value is then a
    function of the configured cap rather than a converged supremum.
    """
    R, r = query.R, query.r
    settings = settings or ExSettings()

    def obj(kappa: float) -> float:
        _, _, lam, _, g, _ = _chain(kappa)
        return r * math.log(1.0 / lam) * (1.0 - R / g)

    k_cap = _kappa_at_rho(r, settings.rho_max)
    k_one = _kappa_at_rho(r, 1.0)
    if k_cap < k_one:
        interval = SearchInterval(k_cap, k_one, open_hi=True)
        kappa, value = maximize_scalar(obj, interval, settings.optimizer)
    else:  # rho_max is within rounding of 1
        kappa, value = k_cap, obj(k_cap)
    # maximize_scalar returns the exact grid end when no probe beats it.
    capped = kappa == k_cap
    _, _, lam, _, g, sigma = _chain(kappa)
    # Near rho = 1, lam is near 1 and log(1 / lam) keeps only ~1e-11 of
    # relative accuracy, so rounding can push rho just outside (1, rho_max].
    rho = min(max(r * math.log(1.0 / lam) / g, math.nextafter(1.0, 2.0)),
              settings.rho_max)
    witness = ExParams(kappa=kappa, sigma=sigma, lam=lam,
                       rho=settings.rho_max if capped else rho)
    return ExExponentPoint(R=R, E=max(value, 0.0), argmax=witness,
                           rho_capped=capped)
