"""Scalar special functions shared by every bound computation.

All logarithms are natural, so every rate and exponent produced
downstream is expressed in nats.
"""

from __future__ import annotations

import math

__all__ = ["log_gamma", "psi_fn", "zeta"]

# zeta sums 1 + 2^-s + ... directly from s = _ZETA_DIRECT on, stopping at
# the first term below _ZETA_TERM_MIN (under a tenth of an ulp of 1).  Below
# it, Euler-Maclaurin: the head 1 + 2^-s + ... + 8^-s, the cut N = 9, and the
# corrections B_2j / (2j)! * s (s + 1) ... (s + 2j - 2) * N^(1 - s - 2j)
# for j = 1 .. 7, stored as (2j, B_2j / ((2j)! N^(2j - 1))), highest j first.
_ZETA_DIRECT = 20.0
_ZETA_TERM_MIN = 1e-17
_ZETA_N = 9.0
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
    reference on (1 + 1e-8, 300].

    A direct sum for s >= 20; below it Euler-Maclaurin past the head
    1 + 2^-s + ... + 8^-s, whose terms are added smallest first.
    """
    s = _checked("s", s)
    if s <= 1.0:
        raise ValueError(f"zeta requires s > 1, got {s}")
    if s >= _ZETA_DIRECT:
        tail = 0.0
        k = 2
        term = 2.0 ** -s
        while term >= _ZETA_TERM_MIN:
            tail += term
            k += 1
            term = k ** -s
        return 1.0 + tail
    # Horner: the (j + 1)-th product s ... (s + 2j) is the j-th times
    # (s + 2j - 1)(s + 2j).
    corr = 0.0
    for two_j, c in _ZETA_EM:
        corr = c + corr * (s + two_j - 1.0) * (s + two_j)
    total = _ZETA_N ** -s * (_ZETA_N / (s - 1.0) + 0.5 + corr * s)
    for k in range(8, 1, -1):
        total += k ** -s
    return 1.0 + total


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

