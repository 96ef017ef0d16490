"""Expurgated-side bounds built on the |XY| moment-generating function.

Every level of the chain is a closed-form function of one kappa in [0, 1):
F(kappa) = E exp(kappa |XY|) = (1 + (2/pi) asin kappa) / sqrt(1 - kappa^2)
(Owen, "A table of normal integrals", 1980); x(kappa) = (log F)'(kappa),
where the Legendre transform is G(x) = kappa x - log F(kappa); the L
crossing G(lam sigma) = J(sigma) at the root sigma < 1 of J(sigma) = G
(it is -W0(-exp(-1 - 2 G)), found here by Newton steps in ``math``) and
lam = x / sigma, where L(lam) = G; and the S crossing at
rho = r log(1 / lam) / G, where S(r, rho) = G.  x, G and lam increase in
kappa and rho decreases, so ``g_fn``, ``l_fn`` and ``s_fn`` each invert
one of them by safeguarded Newton steps; ``ex_exponent`` reads cached rho ends
and between them inverts the rate R(kappa) at which rho (G - R) peaks.
"""

from __future__ import annotations

import functools
import math

from ._record import frozen
# perfbench/tracer.py wraps ex_bounds.maximize_scalar;
# tests/test_bench_bindings.py keeps the unused search bound here.
from .optimize import maximize_scalar, newton_root  # noqa: F401
from .rc_bounds import BoundQuery
from .special_fn import _finite

__all__ = ["ExExponentPoint", "ExParams", "ExSettings", "MEAN_ABS_XY",
           "ex_exponent", "f_kappa", "g_fn", "j_fn", "l_fn", "s_fn"]

# E|XY| for independent standard normals; G and L vanish at or below it.
MEAN_ABS_XY = 2.0 / math.pi

# Newton solves in kappa start at 0.2, just above every L and S root
# (lam(0.19285) = 1); l_fn near 2/pi starts from the linearization of lam
# at kappa = 0, whose slope is (1 - 4/pi^2) + (2/pi) sqrt(2 (1 - 4/pi^2)).
_KAPPA_START = 0.2
_LAM_SLOPE = (1.0 - MEAN_ABS_XY ** 2) + MEAN_ABS_XY * math.sqrt(
    2.0 * (1.0 - MEAN_ABS_XY ** 2))

# sigma - log sigma - 1 = 2G: below G = 1/2, u = 1 - sigma starts from the
# series of W0 at its branch point, u = p - p^2/3 + 11/72 p^3 - ..., in
# p = sqrt(2 (1 - exp(-2G))) (Corless et al., "On the Lambert W
# function", 1996), highest power first.  Newton steps stop after one
# below _SIGMA_RTOL, which leaves the error at rounding: it squares with
# each step.  Below u = _SERIES_U the residual -log1p(-u) - u = sum of
# u^k / k over k >= 2 is summed directly, since log1p cancels there.
_BRANCH = (680863 / 43545600, -221 / 8505, 769 / 17280, -43 / 540,
           11 / 72, -1 / 3, 1.0)
_SERIES_U = 0.05
_SERIES = tuple(1.0 / k for k in range(15, 1, -1))
_SIGMA_RTOL = 1e-8
_SIGMA_ITERS = 20

# s_fn refuses larger rho / r: S is then a G far below the terms of
# kappa x - log F that give it.  Up to 1e20, S is within 6e-6 relative of
# its limit r log(pi/2) / rho; it is 20% off by 1e29 and below 0 from ~1e32.
_S_RHO_PER_R_MAX = 1e20


@frozen
class ExSettings:
    """The cap on rho in the expurgated supremum over rho >= 1; an
    exponent whose optimal rho reaches it is flagged ``rho_capped``."""

    rho_max: float = 1000.0

    def __post_init__(self) -> None:
        if not (_finite(self.rho_max) and self.rho_max > 1.0):
            raise ValueError("rho_max must be finite and exceed 1")


@frozen
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


@frozen
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
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"kappa must lie in [0, 1), got {kappa}")
    kappa = float(kappa)
    return (1.0 + MEAN_ABS_XY * math.asin(kappa)) / math.sqrt(
        (1.0 - kappa) * (1.0 + kappa))


def _sigma(g: float) -> tuple[float, float]:
    """(sigma, 1 - sigma) for the root sigma in (0, 1] of J(sigma) = g."""
    if not g > 0.0:
        return 1.0, 0.0
    two_g = 2.0 * g
    if g < 0.5:
        p = math.sqrt(-2.0 * math.expm1(-two_g))
        u = 0.0
        for c in _BRANCH:
            u = u * p + c
        u *= p
        for _ in range(_SIGMA_ITERS):
            if u < _SERIES_U:
                residual = 0.0
                for c in _SERIES:
                    residual = residual * u + c
                residual *= u * u
            else:
                residual = -math.log1p(-u) - u
            step = (residual - two_g) * (1.0 - u) / u
            u -= step
            if abs(step) <= _SIGMA_RTOL * u:
                return 1.0 - u, u
    else:
        # From the left of the root, where the convex residual keeps each
        # Newton step short of it.
        sigma = math.exp(-1.0 - two_g)
        for _ in range(_SIGMA_ITERS):
            step = ((sigma - math.log(sigma) - 1.0 - two_g) * sigma
                    / (sigma - 1.0))
            sigma -= step
            if abs(step) <= _SIGMA_RTOL * sigma:
                return sigma, 1.0 - sigma
    raise ArithmeticError(f"sigma solve did not converge at G = {g}")


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
    sigma, u = _sigma(g)
    lam = x / sigma
    # J(sigma) = G: (1 - 1/sigma) dsigma = 2 dG, with dG = kappa dx.  NaN
    # (a bisection in newton_root) where G has rounded to 0 or below.
    dsigma = -2.0 * kappa * dx * sigma / u if u > 0.0 else math.nan
    return x, dx, lam, (dx - lam * dsigma) / sigma, g, sigma


def _rate(kappa: float, R: float = 0.0, chain: tuple = ()) -> tuple:
    """(R(kappa) - R, R'(kappa)) from ``chain`` (else _chain(kappa)), where
    R(kappa) = G^2 p / (G p + G' ell), p = lam' / lam, ell = -log lam, is
    the rate at which rho (G - R) peaks: convex, increasing, free of r, and
    0 (R ~ kappa^3) with a NaN slope where sigma rounds to 1."""
    x, dx, lam, dlam, g, sigma = chain or _chain(kappa)
    if sigma == 1.0:
        return -R, math.nan
    # (1 - kappa^2) F' = 2/pi + kappa F, differentiated twice, gives x''.
    d2x = ((3.0 * x + 5.0 * kappa * dx + 2.0 * kappa * x * x)
           / ((1.0 - kappa) * (1.0 + kappa)) - 2.0 * x * dx)
    dg, d2g, u, p = kappa * dx, dx + kappa * d2x, 1.0 - sigma, dlam / lam
    # p = (log x)' - (log sigma)', and (log sigma)' = -2 G' / u.
    dp = (d2x / x - (dx / x) ** 2
          + 2.0 * (d2g - 2.0 * dg * dg * sigma / (u * u)) / u)
    ell = -math.log(lam)
    den = g * p + ell * dg
    rate = g * g * p / den
    return rate - R, rate * (2.0 * dg / g + dp / p - (g * dp + ell * d2g) / den)


def _kappa_at(level: int, target: float, start: float) -> float:
    """kappa where x (level 0) or lam (level 2) equals target."""

    def phi(kappa: float) -> tuple[float, float]:
        c = _chain(kappa)
        return c[level] - target, c[level + 1]

    return newton_root(phi, 0.0, 1.0, start)


@functools.lru_cache(maxsize=4096)
def _end(r: float, rho: float) -> tuple[float, float, tuple]:
    """(kappa, R(kappa), _chain(kappa)) at the root of rho G + r log lam;
    cached, since s_fn and every rate of an ex_exponent sweep read it."""
    def phi(kappa: float) -> tuple[float, float]:
        _, dx, lam, dlam, g, _ = _chain(kappa)
        return rho * g + r * math.log(lam), rho * kappa * dx + r * dlam / lam

    kappa = newton_root(phi, 0.0, 1.0, _KAPPA_START)
    chain = _chain(kappa)
    return kappa, _rate(kappa, 0.0, chain)[0], chain


def g_fn(x: float) -> float:
    """sup over kappa in (0, 1) of kappa x - log F(kappa).

    Zero for x <= E|XY| = 2/pi and strictly positive above it.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    x = float(x)
    if x <= MEAN_ABS_XY:
        return 0.0
    return _chain(_kappa_at(0, x, _KAPPA_START))[4]


def j_fn(sigma: float) -> float:
    """Chi-square rate function (sigma - log sigma - 1) / 2 on (0, 1]."""
    if not 0.0 < sigma <= 1.0:
        raise ValueError(f"sigma must lie in (0, 1], got {sigma}")
    sigma = float(sigma)
    return 0.5 * (sigma - math.log(sigma) - 1.0)


def l_fn(lam: float) -> float:
    """sup over sigma in (0, 1) of min(G(lam sigma), J(sigma)).

    G(lam sigma) increases in sigma and J decreases, so the value is the
    height of their crossing, G(kappa) at lam(kappa) = lam.  Zero at or
    below lam = 2/pi, strictly positive and increasing above it.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must lie in (0, 1), got {lam}")
    lam = float(lam)
    if lam <= MEAN_ABS_XY:
        return 0.0
    start = min(_KAPPA_START, (lam - MEAN_ABS_XY) / _LAM_SLOPE)
    return _chain(_kappa_at(2, lam, start))[4]


def s_fn(r: float, rho: float) -> float:
    """sup over lam in (0, 1) of min((r / rho) log(1 / lam), L(lam)).

    The first branch decreases in lam, L is nondecreasing, so the value
    is the height of their crossing, G(kappa) at rho(kappa) = rho; it is
    positive and decreasing in rho.  rho / r must not exceed 1e20.
    """
    if not (_finite(r) and r > 0.0):
        raise ValueError(f"r must be positive, got {r}")
    if not (_finite(rho) and rho > 1.0):
        raise ValueError(f"rho must exceed 1, got {rho}")
    r, rho = float(r), float(rho)
    if rho > _S_RHO_PER_R_MAX * r:
        raise ValueError(f"rho / r must be at most {_S_RHO_PER_R_MAX:g}, "
                         f"got rho = {rho}, r = {r}")
    return _end(r, rho)[2][4]


def ex_exponent(query: BoundQuery,
                settings: ExSettings | None = None) -> ExExponentPoint:
    """max(0, sup over rho in (1, rho_max] of rho (S(r, rho) - R)).

    Between R(kappa(rho_max)) and R(kappa(1)) the supremum is at the root
    of R(kappa) = R, beyond them at the cached rho = 1 or rho_max end.  The
    latter is flagged ``rho_capped`` (the value depends on the cap, not a
    converged supremum), and is a ValueError where G there rounds to 0.

    r must lie in [1e-10, 1e10].  Above, ell = log(1 / lam) at the rho = 1
    end keeps under four digits (none from r ~ 1e17, where lam rounds to
    1); below, G at the rho_max end is a difference of terms 5e6 its size.
    """
    R, r = query.R, query.r
    if not 1e-10 <= r <= 1e10:
        raise ValueError(f"r must lie in [1e-10, 1e10], got {r}")
    rho_max = (settings or ExSettings).rho_max
    k_cap, rate, chain = _end(r, rho_max)
    kappa, capped = k_cap, R <= rate
    if not capped:
        kappa, rate, chain = _end(r, 1.0)
        if R < rate:
            # Newton steps from the right of a convex root do not overshoot.
            kappa = newton_root(lambda k: _rate(k, R), k_cap, kappa, kappa)
            chain = _chain(kappa)
    _, _, lam, _, g, sigma = chain
    if sigma == 1.0:
        raise ValueError(f"rho_max {rho_max:g} is too large at r = {r:g}")
    ell = math.log(1.0 / lam)
    # Rounding in ell near rho = 1 can push rho just outside (1, rho_max].
    rho = rho_max if capped else min(
        max(r * ell / g, math.nextafter(1.0, 2.0)), rho_max)
    witness = ExParams(kappa=kappa, sigma=sigma, lam=lam, rho=rho)
    return ExExponentPoint(R=R, E=max(r * ell * (1.0 - R / g), 0.0),
                           argmax=witness, rho_capped=capped)
