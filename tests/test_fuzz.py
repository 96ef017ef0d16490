"""The public bound functions over extreme floats: each call either returns
numbers, none of them NaN, or raises ValueError, never another exception.

Every argument runs over the same grid, in every combination, so a value
that one check lets through to an overflowing step of another is found
here rather than by a user.  Standard library only.
"""

import itertools
import math

import pytest

import freqchan
from freqchan.special_fn import zeta_jet

EXTREMES = [
    0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10,
    1e-5, 0.5, 1.0, 2.0, 10.0, 1e5, 1e10, 1e20, 1e50, 1e100, 1e200, 1e300,
    1.7e308, -1.0, math.inf, -math.inf, math.nan,
]


FUNCTIONS = {
    "lambda_fn": (freqchan.lambda_fn, 3),
    "delta_fn": (freqchan.delta_fn, 1),
    "rc_exponent": (lambda R, r: freqchan.rc_exponent(
        freqchan.BoundQuery(R, r)), 2),
    "rate_lower_bound": (freqchan.rate_lower_bound, 1),
    "thm1_probability_bound": (lambda R, r, n: freqchan.thm1_probability_bound(
        freqchan.BoundQuery(R, r), n), 3),
    "lemma1_tail_bound": (freqchan.lemma1_tail_bound, 3),
    "f_kappa": (freqchan.f_kappa, 1),
    "g_fn": (freqchan.g_fn, 1),
    "j_fn": (freqchan.j_fn, 1),
    "l_fn": (freqchan.l_fn, 1),
    "s_fn": (freqchan.s_fn, 2),
    "ex_exponent": (lambda R, r: freqchan.ex_exponent(
        freqchan.BoundQuery(R, r)), 2),
    "ex_exponent_rho_max": (lambda rho_max: freqchan.ex_exponent(
        freqchan.BoundQuery(0.0, 400.0), freqchan.ExSettings(rho_max)), 1),
    "converse_rate": (freqchan.converse_rate, 1),
    "fir_rate": (lambda g, r: freqchan.fir_rate(freqchan.FirQuery(g, r)), 2),
    "log_gamma": (freqchan.log_gamma, 1),
    "zeta": (freqchan.zeta, 1),
    "zeta_jet": (zeta_jet, 1),
    "psi_fn": (freqchan.psi_fn, 1),
}


def _numbers(value):
    """Every number in a returned float, tuple or record."""
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _numbers(item)
    else:
        for item in vars(value).values():
            yield from _numbers(item)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_only_value_errors_and_no_nan(name):
    fn, arity = FUNCTIONS[name]
    returned = 0
    for args in itertools.product(EXTREMES, repeat=arity):
        try:
            value = fn(*args)
        except ValueError:
            continue
        except Exception as exc:  # noqa: BLE001 - the failure to report
            pytest.fail(f"{name}{args} raised {exc!r}")
        assert not any(math.isnan(x) for x in _numbers(value)), \
            f"{name}{args} returned {value!r}"
        returned += 1
    assert returned > 0
