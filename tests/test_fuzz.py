"""The public bound functions and the channel's entry points over extreme
floats and integers past the float range: each call either returns
numbers, none of them NaN, or raises ValueError, never another exception.

Every argument runs over the same grid, in every combination, so a value
that one check lets through to an overflowing step of another is found
here rather than by a user.  The CLI gets the same treatment from a seeded
fuzz: every run exits 0, with its output written, or 64.  Standard library
only.
"""

import collections
import itertools
import math
import os
import random

import pytest

import freqchan
from freqchan.cli import main
from freqchan.special_fn import zeta_jet

EXTREMES = [
    0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-200, 1e-100, 1e-50, 1e-20, 1e-10,
    1e-5, 0.5, 1.0, 2.0, 10.0, 1e5, 1e10, 1e20, 1e50, 1e100, 1e200, 1e300,
    1.7e308, -1.0, math.inf, -math.inf, math.nan, 10**400, -10**400,
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
    # The channel's entry points, each with small fixed sizes so that an
    # accepted call runs one short chunk.
    "SimConfig": (lambda r, alpha, R: _config_numbers(freqchan.SimConfig(
        4, r, alpha, trials=1, seed=0, R=R)), 3),
    "estimate_kl_tail": (lambda r, alpha, mu: freqchan.estimate_kl_tail(
        4, r, alpha, mu, trials=2, seed=0), 3),
    "dirichlet_product_moment": (lambda a, b: freqchan.dirichlet_product_moment(
        [a, 1.0], [b, 0.5]), 2),
    "estimate_product_moment": (lambda a, b: freqchan.estimate_product_moment(
        [a, 1.0], [b, 0.5], trials=2, seed=0), 2),
}


def _config_numbers(config):
    """The counts and rate a SimConfig derives from its fields."""
    return config.reads, config.resolved_m, config.resolved_rate


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


# The CLI fuzz: seeded in-process runs of ``main(argv)``.  Each option
# takes a plain working value three times in four, else an extreme float,
# a huge integer or junk.  The working values keep every accepted case
# small: at most 64 grid points, 12 types, 100 trials and about 2e5
# codebook entries in all, one worker process.
FLOAT_WORDS = [repr(x) for x in EXTREMES] + [
    "1e400", "-1e400", "1e-400", "0x10", "1_0", " 2", "", "two", "2.0.0",
]
INT_WORDS = ["0", "-1", "-7", "1.5", "x", "", " 3", str(2 ** 25),
             str(2 ** 63), "1" + "0" * 400]
JUNK_WORDS = ["", "x", "--r", "-", ":", "both,rc", "\x00", "ü"]
GRID_MOST = 64
FUZZ_SEEDS = range(1, 5)
CASES_PER_SEED = 600


def _pick(rng, usual, extreme=FLOAT_WORDS):
    if rng.random() < 0.75:
        return str(rng.choice(usual))
    return rng.choice(extreme)


def _points(text):
    """The steps of a lo:hi:step grid that parses, else 0."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
        return (hi - lo) / step if step > 0.0 and hi > lo else 0.0
    except (ValueError, ZeroDivisionError, OverflowError):
        return 0.0


def _grid(rng, starts, steps):
    """A short working grid, or one made of extreme words that has at most
    GRID_MOST steps or is refused by the CLI's 2^20-step cap."""
    if rng.random() < 0.75:
        lo, step = rng.choice(starts), rng.choice(steps)
        return f"{lo!r}:{lo + step * rng.randrange(GRID_MOST // 2)!r}:{step!r}"
    while True:
        text = ":".join(rng.choice(FLOAT_WORDS)
                        for _ in range(rng.choice((2, 3, 3, 3, 4))))
        if not GRID_MOST < _points(text) < 2 ** 20:
            return text


def _number(word):
    try:
        return float(word)
    except (ValueError, OverflowError):
        return math.nan


def _exponents_argv(rng, out):
    argv = ["exponents", "--r", _pick(rng, (0.5, 4.0, 10.0, 400.0, 1e4)),
            "--rate", _grid(rng, (0.0, 0.1, 1.0), (0.05, 0.25, 0.5)),
            "--out", out]
    if rng.random() < 0.7:
        argv += ["--which", _pick(rng, ("rc", "ex", "both"), JUNK_WORDS)]
    if rng.random() < 0.4:
        argv += ["--rho-max", _pick(rng, (2.0, 10.0, 1000.0, 1e6))]
    if rng.random() < 0.3:
        argv += ["--gnuplot", out + ".plot"]
    return argv


def _rates_argv(rng, out):
    argv = ["rates", "--r", _grid(rng, (0.5, 1.0, 3.0, 400.0),
                                  (0.5, 1.0, 10.0)), "--out", out]
    if rng.random() < 0.6:
        argv += ["--g", ",".join(_pick(rng, (10.0, 100.0, 1000.0))
                                 for _ in range(rng.randrange(4)))]
    if rng.random() < 0.3:
        argv += ["--gnuplot", out + ".plot"]
    return argv


def _simulate_argv(rng, out):
    n = _pick(rng, range(1, 13), INT_WORDS)
    # Not 2^25 trials: accepted, they would run for seconds.
    trials = _pick(rng, (1, 2, 10, 100),
                   [w for w in INT_WORDS if w != str(2 ** 25)])
    argv = ["simulate", "--n", n, "--r", _pick(rng, (0.5, 1.0, 2.0, 2.5, 4.0)),
            "--trials", trials, "--out", out]
    size = rng.choice(("M", "R", "both", "neither"))
    if size in ("M", "both"):
        argv += ["--M", _pick(rng, (1, 2, 8, 64), INT_WORDS)]
    if size in ("R", "both"):
        rate = _pick(rng, (0.0, 0.1, 0.5))
        # M = exp(n R): a large accepted codebook is redrawn smaller.
        codewords = math.exp(min(_number(n) * _number(rate), 700.0))
        if codewords * _number(n) * _number(trials) > 2e5:
            rate = "0.1"
        argv += ["--R", rate]
    if rng.random() < 0.5:
        argv += ["--alpha", _pick(rng, (0.1, 0.5, 1.0, 2.0))]
    if rng.random() < 0.5:
        argv += ["--seed", _pick(rng, (0, 1, 7), INT_WORDS)]
    if rng.random() < 0.3:
        # Never above 1: the fuzz starts no worker process.
        argv += ["--parallelism", _pick(rng, (1,), ("0", "-4", "x", "1.5"))]
    if rng.random() < 0.3:
        argv.append("--fixed-codebook")
    return argv


def _verify_argv(rng, out):
    argv = ["verify", "--suite", _pick(rng, ("special", "rc", "ex"),
                                       JUNK_WORDS)]
    if rng.random() < 0.5:
        argv += ["--seed", _pick(rng, (0, 1), INT_WORDS)]
    return argv


def cli_cases(seed, count, out):
    """``count`` argv lists for ``main``, from ``random.Random(seed)``;
    one in ten has a word other than an output path dropped, duplicated or
    replaced by junk."""
    rng = random.Random(seed)
    makers = (_exponents_argv, _rates_argv, _simulate_argv, _verify_argv)
    for _ in range(count):
        argv = rng.choice(makers)(rng, out)
        i = rng.randrange(1, len(argv))
        if rng.random() < 0.1 and not argv[i].startswith(out):
            edit = rng.randrange(3)
            if edit == 0:
                del argv[i]
            elif edit == 1:
                argv.insert(i, argv[i])
            else:
                argv[i] = rng.choice(JUNK_WORDS + FLOAT_WORDS)
        yield argv


@pytest.mark.usefixtures("address_space_cap")
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_cli_exits_0_or_64(seed, tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    files = (out, out + ".manifest", out + ".plot")
    exits = collections.Counter()
    for argv in cli_cases(seed, CASES_PER_SEED, out):
        for path in files:
            if os.path.exists(path):
                os.remove(path)
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - the failure to report
            pytest.fail(f"main({argv!r}) raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 64) and "Traceback" not in err, \
            f"main({argv!r}) exited {code}: {err}"
        if code == 0 and argv[0] != "verify":
            assert os.path.exists(out) and os.path.exists(out + ".manifest"), \
                f"main({argv!r}) exited 0 without its output"
            if "--gnuplot" in argv:
                assert os.path.exists(out + ".plot"), argv
        exits[code] += 1
    # Both outcomes are common, so the fuzz reaches past the parser.
    assert min(exits[0], exits[64]) >= CASES_PER_SEED // 5, exits
