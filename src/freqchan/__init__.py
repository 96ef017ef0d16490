"""Bounds and a Monte Carlo harness for a frequency-based sampling channel.

The package computes an achievable-rate lower bound, random-coding and
expurgated error exponents, and finite-budget baseline curves, all in
nats, and validates them against a seeded simulator of the channel
(Dirichlet codebooks read through multinomial sampling with maximum
likelihood decoding).
"""

from .baselines import FirQuery, converse_rate, fir_rate
from .ex_bounds import (
    ExExponentPoint,
    ExParams,
    ExSettings,
    ex_exponent,
    f_kappa,
    g_fn,
    j_fn,
    l_fn,
    s_fn,
)
from .rc_bounds import (
    BoundQuery,
    ExponentPoint,
    KlTailBound,
    RcParams,
    delta_fn,
    lambda_fn,
    lemma1_tail_bound,
    rate_lower_bound,
    rc_exponent,
    thm1_probability_bound,
)
from .special_fn import log_gamma, psi_fn, zeta

__version__ = "0.1.14"

# The Monte Carlo layer needs numpy; the bounds above do not.  Its names
# resolve on first access (PEP 562), so importing the package for the
# bounds alone never loads numpy.
_CHANNEL_NAMES = (
    "BcTailReport", "Codebook", "DecodeError", "MomentReport", "SampleCounts",
    "SimConfig", "SimReport", "TailReport", "dirichlet_product_moment",
    "estimate_bc_tail", "estimate_error_probability", "estimate_kl_tail",
    "estimate_product_moment", "kl_divergence", "ml_decode", "wilson_std_err",
)


def __getattr__(name: str):
    if name in _CHANNEL_NAMES:
        from . import channel
        return getattr(channel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_CHANNEL_NAMES))
