"""The frozen-record semantics every value class of the package relies on."""

import copy
import inspect
import math
import pickle

import pytest

from freqchan._record import FrozenInstanceError, frozen
from freqchan.baselines import FirQuery
from freqchan.channel import (BcTailReport, MomentReport, SimConfig,
                              SimReport, TailReport, estimate_bc_tail,
                              estimate_product_moment, ml_decode)
from freqchan.ex_bounds import ExExponentPoint, ExParams
from freqchan.rc_bounds import BoundQuery, ExponentPoint, RcParams
from freqchan.verify import run_suites


@frozen
class Empty:
    pass


# (class, every field in order with a valid value, the defaulted fields
# that may be omitted with the value they then take)
RECORDS = [
    (RcParams, {"alpha": 0.5, "xi": 2.0}, {}),
    (Empty, {}, {}),
    (BoundQuery, {"R": 0.5, "r": 400.0}, {}),
    (ExponentPoint, {"R": 0.1, "E": 0.2, "argmax": RcParams(0.5, 2.0)}, {}),
    (ExParams, {"kappa": 0.3, "sigma": 0.4, "lam": 0.5, "rho": 2.0}, {}),
    (ExExponentPoint, {"R": 0.01, "E": 1.0,
                       "argmax": ExParams(0.3, 0.4, 0.5, 2.0),
                       "rho_capped": False}, {}),
    (FirQuery, {"g": 200.0, "r": 80.0}, {}),
    (SimConfig, {"n": 4, "r": 2.0, "alpha": 1.0, "trials": 10, "seed": 1,
                 "M": 2, "R": None, "parallelism": 2,
                 "fresh_codebook": False},
     {"R": None, "parallelism": 1, "fresh_codebook": True}),
    (SimReport, {"errors": 1, "trials": 10, "eps_hat": 0.1,
                 "wilson_ci": (0.02, 0.4), "thm1_bound": 0.9}, {}),
    (TailReport, {"mu": 0.9, "rho_n": 0.1, "empirical": 0.0, "bound": 0.5,
                  "events": 0, "std_err": 0.0}, {}),
    (BcTailReport, {"lam": 0.9, "empirical": 0.0, "bound": 0.5, "events": 0,
                    "std_err": 0.0}, {}),
    (MomentReport, {"closed_form": 0.1, "mc_estimate": 0.11,
                    "mc_std_err": 0.01}, {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, args, defaults):
        assert list(inspect.signature(cls).parameters) == list(args)
        by_position = cls(*args.values())
        by_keyword = cls(**args)
        assert _fields(by_position, args) == tuple(args.values())
        assert _fields(by_keyword, args) == tuple(args.values())

    def test_defaults(self, cls, args, defaults):
        record = cls(**{k: v for k, v in args.items() if k not in defaults})
        for name, value in defaults.items():
            assert getattr(record, name) == value

    def test_missing_or_unknown_argument(self, cls, args, defaults):
        required = [k for k in args if k not in defaults]
        if required:
            with pytest.raises(TypeError, match=repr(required[0])):
                cls(**{k: v for k, v in args.items() if k != required[0]})
        with pytest.raises(TypeError, match="bogus"):
            cls(**args, bogus=1)
        with pytest.raises(TypeError):
            cls(*args.values(), 1)

    def test_equality_and_hash_follow_the_field_tuple(self, cls, args,
                                                      defaults):
        record = cls(**args)
        values = tuple(args.values())
        # Built from copies of the values, so compared by value.
        copied = cls(**copy.deepcopy(args))
        assert record == cls(*values) == copied
        assert not record != copied
        assert record != values
        assert (record == object()) is False
        assert hash(record) == hash(copied) == hash(values)

    def test_assignment_and_deletion_raise(self, cls, args, defaults):
        record = cls(**args)
        for name in list(args) + ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _fields(record, args) == tuple(args.values())

    def test_instance_dict_holds_the_fields_in_order(self, cls, args,
                                                     defaults):
        record = cls(**args)
        assert list(vars(record)) == list(args)
        assert tuple(vars(record).values()) == tuple(args.values())

    def test_pickle_round_trip(self, cls, args, defaults):
        record = cls(**args)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls
        assert _fields(back, args) == tuple(args.values())
        with pytest.raises(AttributeError):
            back.extra = 1


def test_repr():
    assert repr(BoundQuery(0.5, 400.0)) == "BoundQuery(R=0.5, r=400.0)"
    assert repr(Empty()) == "Empty()"
    assert repr(ExponentPoint(0.1, 0.2, RcParams(0.5, 2.0))) == (
        "ExponentPoint(R=0.1, E=0.2, argmax=RcParams(alpha=0.5, xi=2.0))")


def test_records_of_another_class_or_value_differ():
    assert BoundQuery(0.5, 400.0) != BoundQuery(0.5, 100.0)
    assert BoundQuery(0.6, 1.0) != FirQuery(0.6, 1.0)
    assert len({BoundQuery(0.5, 400.0), BoundQuery(R=0.5, r=400.0)}) == 1


VALUE_CHECKS = [
    (SimConfig, {"n": 4, "r": 2.0, "alpha": 1.0, "trials": 10, "seed": -1,
                 "M": 2}, "seed must be nonnegative, got -1"),
    (RcParams, {"alpha": 0.5, "xi": 0.0}, "xi must be positive, got 0.0"),
    (RcParams, {"alpha": 0.4, "xi": 1.0}, "alpha must be at least 1/2"),
    (BoundQuery, {"R": -1.0, "r": 4.0}, r"R must be finite and >= 0, got -1.0"),
    (SimConfig, {"n": 4, "r": 2.0, "alpha": 1.0, "trials": 10, "seed": 1,
                 "M": 2, "parallelism": 0},
     "parallelism must be a positive count, got 0"),
    (ExponentPoint, {"R": 0.1, "E": -1.0, "argmax": RcParams(0.5, 1.0)},
     "exponent must be nonnegative"),
    (ExParams, {"kappa": 1.5, "sigma": 0.5, "lam": 0.5, "rho": 2.0},
     r"kappa must lie in \(0, 1\), got 1.5"),
    (FirQuery, {"g": 0.0, "r": 1.0}, "g must be positive, got 0.0"),
    (ml_decode, {"counts": [1, 1], "codewords": [[0.5, 0.6]]},
     "each codeword must sum to 1"),
    (ml_decode, {"counts": [2.0, 2.0], "codewords": [[0.5, 0.5]]},
     "counts must be integers"),
    (SimConfig, {"n": 4, "r": 2.0, "alpha": 1.0, "trials": 10, "seed": 1},
     "exactly one of M and R must be given"),
    (ml_decode, {"counts": [1, 1], "codewords": [0.5, 0.5]},
     r"codewords must be a nonempty \(M, n\) matrix"),
    (ml_decode, {"counts": [1, 1], "codewords": [[-0.5, 1.5]]},
     "codewords must be finite and nonnegative"),
    (ml_decode, {"counts": [1, 1], "codewords": [[math.nan, 1.0]]},
     "codewords must be finite and nonnegative"),
    (ml_decode, {"counts": [[1, 2]], "codewords": [[0.5, 0.5]]},
     "counts must be a nonempty 1-D vector"),
    (ml_decode, {"counts": [-1, 4], "codewords": [[0.5, 0.5]]},
     "counts must be nonnegative"),
    (ExExponentPoint, {"R": 0.01, "E": -1.0,
                       "argmax": ExParams(0.3, 0.4, 0.5, 2.0),
                       "rho_capped": False}, "exponent must be nonnegative"),
    # More functions that check their inputs without a record, as ml_decode
    # does.
    (estimate_bc_tail, {"n": 0, "lam": 0.9, "trials": 10, "seed": 1},
     "n must be a positive count, got 0"),
    (estimate_product_moment, {"alphas": [0.5, 0.5], "betas": [1.0],
                               "trials": 10, "seed": 0},
     "alphas and betas must be matching 1-D vectors"),
    (run_suites, {"suite": "bogus"}, "unknown suite 'bogus'"),
    (ml_decode, {"counts": [1, 1, 0], "codewords": [[0.5, 0.5]]},
     "counts and codebook disagree on the type count"),
    (run_suites, {"suite": "channel", "seed": 1.5},
     "seed must be an integer, got 1.5"),
]


# Named by function and message rather than list position, so that adding
# or removing a case renames no other; pytest numbers the two cases that
# share a message.
@pytest.mark.parametrize("cls, kwargs, message", VALUE_CHECKS, ids=[
    f"{fn.__name__}-{message[:24]}" for fn, _, message in VALUE_CHECKS])
def test_value_checks_are_unchanged(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)


def test_fields_need_defaults_after_the_first_default():
    with pytest.raises(SyntaxError):
        @frozen
        class Bad:
            a: int = 0
            b: int


@pytest.mark.parametrize("name", ["self", "_cls", "_fields"])
def test_fields_may_not_shadow_the_names_of_init(name):
    with pytest.raises(TypeError, match=f"field '{name}' of Bad"):
        frozen(type("Bad", (), {"__annotations__": {name: float}}))


def test_a_field_may_be_named_set():
    # The constructor writes the instance dict and binds no setter name,
    # so ``_set`` is a plain field.
    record = frozen(type("Free", (), {"__annotations__": {"_set": float}}))
    assert record(1.0)._set == 1.0
