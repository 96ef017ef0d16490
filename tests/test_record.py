"""The frozen-record semantics every value class of the package relies on."""

import inspect
import pickle

import numpy as np
import pytest

from freqchan._record import FrozenInstanceError, frozen
from freqchan.baselines import FirQuery
from freqchan.channel import (BcTailReport, Codebook, MomentReport,
                              SampleCounts, SimConfig, SimReport, TailReport)
from freqchan.cli import RunManifest
from freqchan.ex_bounds import ExExponentPoint, ExParams, ExSettings
from freqchan.rc_bounds import BoundQuery, ExponentPoint, KlTailBound, RcParams


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
    (KlTailBound, {"bound": 0.3, "rho_n": 0.01}, {}),
    (ExSettings, {"rho_max": 50.0}, {"rho_max": 1000.0}),
    (ExParams, {"kappa": 0.3, "sigma": 0.4, "lam": 0.5, "rho": 2.0}, {}),
    (ExExponentPoint, {"R": 0.01, "E": 1.0,
                       "argmax": ExParams(0.3, 0.4, 0.5, 2.0),
                       "rho_capped": False}, {}),
    (FirQuery, {"g": 200.0, "r": 80.0}, {}),
    (Codebook, {"codewords": np.array([[0.25, 0.75], [0.5, 0.5]])}, {}),
    (SampleCounts, {"counts": np.array([1, 2]), "trials": 3}, {}),
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
    (RunManifest, {"command": "rates", "parameters": {"r": "4:4:1"},
                   "seed": 7, "tool_version": "0.0.1", "wall_time_s": 1.5,
                   "note": "x"},
     {"parameters": {}, "seed": None, "wall_time_s": 0.0, "note": ""}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("cls, args, defaults", RECORDS, ids=IDS)
class TestRecord:
    def test_positional_and_keyword_construction(self, cls, args, defaults):
        assert list(inspect.signature(cls).parameters) == list(args)
        by_position = cls(*args.values())
        by_keyword = cls(**args)
        # Tuples compare items by identity first, so arrays pass through.
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
        assert record == cls(*values)
        assert not record != cls(*values)
        assert record != values
        assert (record == object()) is False
        try:
            expected = hash(values)
        except TypeError:
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    def test_assignment_and_deletion_raise(self, cls, args, defaults):
        record = cls(**args)
        for name in list(args) + ["extra"]:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _fields(record, args) == tuple(args.values())

    def test_pickle_round_trip(self, cls, args, defaults):
        record = cls(**args)
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls
        assert all(map(_same, _fields(back, args), args.values()))
        with pytest.raises(AttributeError):
            back.extra = 1


def test_repr():
    assert repr(BoundQuery(0.5, 400.0)) == "BoundQuery(R=0.5, r=400.0)"
    assert repr(Empty()) == "Empty()"
    assert repr(ExponentPoint(0.1, 0.2, RcParams(0.5, 2.0))) == (
        "ExponentPoint(R=0.1, E=0.2, argmax=RcParams(alpha=0.5, xi=2.0))")


def test_records_of_another_class_or_value_differ():
    assert BoundQuery(0.5, 400.0) != BoundQuery(0.5, 100.0)
    assert KlTailBound(0.6, 1.0) != RcParams(0.6, 1.0)
    assert len({BoundQuery(0.5, 400.0), BoundQuery(R=0.5, r=400.0)}) == 1


def test_manifests_do_not_share_a_parameters_dict():
    a, b = RunManifest("rates"), RunManifest("rates")
    a.parameters["r"] = "4"
    assert b.parameters == {}
    assert RunManifest("rates", parameters=None).parameters == {}


def test_post_init_normalises_a_field():
    book = Codebook([[0.5, 0.5]])
    assert isinstance(book.codewords, np.ndarray)
    assert book.codewords.dtype == np.float64
    counts = SampleCounts([1, 2], trials=3)
    assert isinstance(counts.counts, np.ndarray)


@pytest.mark.parametrize("cls, kwargs, message", [
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
    (ExSettings, {"rho_max": 1.0}, "rho_max must be finite and exceed 1"),
    (ExParams, {"kappa": 1.5, "sigma": 0.5, "lam": 0.5, "rho": 2.0},
     r"kappa must lie in \(0, 1\), got 1.5"),
    (FirQuery, {"g": 0.0, "r": 1.0}, "g must be positive, got 0.0"),
    (Codebook, {"codewords": [[0.5, 0.6]]}, "each codeword must sum to 1"),
    (SampleCounts, {"counts": [1, 2], "trials": 4},
     "counts must sum to the number of trials"),
    (SimConfig, {"n": 4, "r": 2.0, "alpha": 1.0, "trials": 10, "seed": 1},
     "exactly one of M and R must be given"),
])
def test_value_checks_are_unchanged(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)


def test_fields_need_defaults_after_the_first_default():
    with pytest.raises(SyntaxError):
        @frozen
        class Bad:
            a: int = 0
            b: int
