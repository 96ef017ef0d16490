"""Scalar special functions shared by every bound computation.

All logarithms are natural, so every rate and exponent produced
downstream is expressed in nats.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma", "psi_fn", "zeta", "zeta_jet"]

# zeta sums 1 + 2^-s + ... directly from s = _ZETA_DIRECT on, stopping at
# the first term below _ZETA_TERM_MIN (under a tenth of an ulp of 1).  Below
# it, Euler-Maclaurin: the head 1 + 2^-s + ... + 8^-s, the cut N = 9, and the
# corrections B_2j / (2j)! * s (s + 1) ... (s + 2j - 2) * N^(1 - s - 2j)
# for j = 1 .. 7, stored as (2j, B_2j / ((2j)! N^(2j - 1))), highest j first.
_ZETA_DIRECT = 20.0
_ZETA_TERM_MIN = 1e-17
_ZETA_N = 9.0
_ZETA_LOG_N = math.log(_ZETA_N)
# (k, log k) for the head terms, smallest first.
_ZETA_HEAD = tuple((k, math.log(k)) for k in range(8, 1, -1))
_ZETA_EM = tuple(
    (2.0 * j, b / (math.factorial(2 * j) * _ZETA_N ** (2 * j - 1)))
    for j, b in reversed(list(enumerate(
        (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6),
        start=1))))


def _checked(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def log_gamma(t: float) -> float:
    """Natural log of the gamma function for t > 0.

    Backed by the platform ``lgamma`` (a Lanczos-grade implementation);
    the test suite pins it against the recurrence, closed forms and
    ``scipy.special.gammaln``.
    """
    t = _checked("t", t)
    if t <= 0.0:
        raise ValueError(f"log_gamma requires t > 0, got {t}")
    return math.lgamma(t)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1, within ~5e-16 relative of a 40-digit
    reference on (1 + 1e-8, 300]; the first entry of ``zeta_jet``."""
    return zeta_jet(s)[0]


def zeta_jet(s: float) -> tuple[float, float, float]:
    """(zeta(s), zeta'(s), zeta''(s)) for s > 1.

    A direct sum for s >= 20; below it Euler-Maclaurin past the head
    1 + 2^-s + ... + 8^-s, whose terms are added smallest first, and the
    same formula differentiated term by term in s (Edwards, Riemann's Zeta
    Function, 1974, sec. 6.4).  The derivatives are within ~5e-15 relative
    of a 30-digit reference below s = 20 and read 0 once 2^-s underflows
    (s > 1074).
    """
    s = _checked("s", s)
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    if s >= _ZETA_DIRECT:
        # The derivative sums run until (log k)^2 k^-s falls below
        # _ZETA_TERM_MIN of its first term, past zeta's own stop.
        tail = d1 = d2 = 0.0
        log_k = math.log(2.0)
        stop = _ZETA_TERM_MIN * log_k * log_k * 2.0 ** -s
        k = 2
        term = 2.0 ** -s
        while log_k * log_k * term > stop:
            if term >= _ZETA_TERM_MIN:
                tail += term
            d1 -= log_k * term
            d2 += log_k * log_k * term
            k += 1
            log_k = math.log(k)
            term = k ** -s
        return 1.0 + tail, d1, d2
    # Horner: the (j + 1)-th product s ... (s + 2j) is the j-th times
    # p = (s + 2j - 1)(s + 2j); its s-derivatives follow from p' = 2s + 4j - 1
    # and p'' = 2.
    corr = dcorr = d2corr = 0.0
    for two_j, c in _ZETA_EM:
        dp = 2.0 * (s + two_j) - 1.0
        p = (s + two_j - 1.0) * (s + two_j)
        d2corr = d2corr * p + 2.0 * (dcorr * dp + corr)
        dcorr = dcorr * p + corr * dp
        # Not corr * p: this order keeps zeta's bits.
        corr = c + corr * (s + two_j - 1.0) * (s + two_j)
    # N^-s a(s) and its derivatives N^-s (a' - a log N) and
    # N^-s (a'' - (2 a' - a log N) log N).
    inv, pole = 1.0 / (s - 1.0), _ZETA_N / (s - 1.0)
    a = pole + 0.5 + corr * s
    da = corr + s * dcorr - pole * inv
    d2a = 2.0 * (dcorr + pole * inv * inv) + s * d2corr
    scale = _ZETA_N ** -s
    total = scale * a
    d1 = scale * (da - a * _ZETA_LOG_N)
    d2 = scale * (d2a - (2.0 * da - a * _ZETA_LOG_N) * _ZETA_LOG_N)
    for k, log_k in _ZETA_HEAD:
        term = k ** -s
        total += term
        d1 -= log_k * term
        d2 += log_k * log_k * term
    return 1.0 + total, d1, d2


def psi_fn(t: float) -> float:
    """(1 + t) log(1 + t) - t log t for t >= 0, continuous at 0.

    From t = 1 on it is evaluated as log(1 + t) + t log(1 + 1/t), a sum
    of two positive terms; the form above cancels there, to 100% error
    at t = 1e16.  Below 1 the form above is kept, since 1/t overflows
    for subnormal t.
    """
    t = _checked("t", t)
    if t < 0.0:
        raise ValueError(f"psi_fn requires t >= 0, got {t}")
    if t >= 1.0:
        return math.log1p(t) + t * math.log1p(1.0 / t)
    if t == 0.0:
        return 0.0
    return (1.0 + t) * math.log1p(t) - t * math.log(t)

