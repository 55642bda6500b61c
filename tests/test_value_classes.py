"""The contract of the package's immutable records (exact_arith.Frozen):
construction by position or keyword, equality and hash by the tuple of
fields, no assignment, the validation of Params and Interval, and the repr
of IntegerForms, which shows every field."""

import copy
import pickle
from fractions import Fraction as F

import mpmath as mp
import pytest

from irrbounds import omega
from irrbounds.errors import DomainError
from irrbounds.exact_arith import Params
from irrbounds.forms import IntegerForms, UVWValues, VerificationRow
from irrbounds.measures import BoundResult, TableRow
from oracles import (Interval, IntervalSet, QuadRat, omega_intervals,
                     quad_tuple, runs_of)

PARAMS = Params(k=6, a=1, b=13, n=31)
FORMS = IntegerForms(n=31, P=1, Q=-2, X=3, Y=-4, Z=5)
BOUND = BoundResult(kind="irrationality", k=6, a=1, b=7, M1=mp.mpf(24),
                    M2=mp.mpf(-8), K=mp.mpf(-2), N=mp.mpf(2), bound=mp.mpf(3),
                    applicable=True, digits=60, degenerate=False)

# each class with the fields of one instance, in declaration order
RECORDS = [
    (Params, {"k": 6, "a": 1, "b": 13, "n": 31}),
    (UVWValues, {"U": quad_tuple(QuadRat(1)), "V": quad_tuple(QuadRat(0, 1, 13)),
                 "W": quad_tuple(QuadRat(2)), "params": PARAMS,
                 "x": quad_tuple(QuadRat(F(7, 6), F(-1, 6), 13))}),
    (IntegerForms, {name: getattr(FORMS, name) for name in IntegerForms.__slots__}),
    (BoundResult, {name: getattr(BOUND, name) for name in BoundResult.__slots__}),
    (VerificationRow, {"n": 31, "P": 1, "Q": -2, "X": 3, "Y": -4, "Z": 5,
                       "ell": mp.mpf("1e-40"), "m": mp.mpf("1e-20"),
                       "decay_linear": mp.mpf(-3), "decay_quadratic": mp.mpf(-1)}),
    (TableRow, {"k": 6, "mu": BOUND, "mu2": None}),
    (Interval, {"lo": F(1, 6), "hi": F(3, 7), "lo_closed": True,
                "hi_closed": False}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_equal_fields_give_equal_records(cls, fields):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert tuple(fields) == cls.__slots__ == tuple(cls.__annotations__)
    assert by_keyword == by_position and by_keyword is not by_position
    assert hash(by_keyword) == hash(by_position)
    assert {by_keyword: 1}[by_position] == 1
    # a record is no tuple: it neither equals one nor iterates
    assert by_keyword != tuple(fields.values())
    with pytest.raises(TypeError):
        iter(by_keyword)


def test_one_differing_field_makes_records_unequal():
    assert Params(6, 1, 13, 31) != Params(6, 1, 13, 33)
    assert (Interval(F(1, 6), F(3, 7), True, False)
            != Interval(F(1, 6), F(3, 7), True, True))
    fields = {name: getattr(FORMS, name) for name in IntegerForms.__slots__}
    assert IntegerForms(**{**fields, "Z": 17}) != FORMS
    assert Params(6, 1, 13, 31) != TableRow(6, 1, 13)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_records_refuse_assignment(cls, fields):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_records_copy_and_pickle(cls, fields):
    record = cls(**fields)
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize("args,kwargs", [
    pytest.param((6, 1, 13), {}, id="missing"),
    pytest.param((6, 1, 13, 31, 1), {}, id="too-many"),
    pytest.param((6, 1, 13), {"k": 6}, id="given-twice"),
    pytest.param((6, 1, 13, 31), {"m": 1}, id="unknown"),
])
def test_bad_fields_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        Params(*args, **kwargs)


def test_params_and_interval_validate():
    with pytest.raises(ValueError, match="positive"):
        Params(k=0, a=1, b=13, n=31)
    with pytest.raises(ValueError, match="need b odd"):
        Params(6, 1, 12, 31)
    with pytest.raises(ValueError, match="b > 4a"):
        Params(6, 1, 3, 31)
    with pytest.raises(DomainError, match="out of order"):
        Interval(F(1, 2), F(1, 3), True, True)
    with pytest.raises(DomainError, match="must be closed"):
        Interval(lo=F(1, 2), hi=F(1, 2), lo_closed=True, hi_closed=False)


def test_integer_forms_repr_shows_every_field():
    assert repr(FORMS) == "IntegerForms(n=31, P=1, Q=-2, X=3, Y=-4, Z=5)"
    assert repr(PARAMS) == "Params(k=6, a=1, b=13, n=31)"


def test_n_pair_memo_hits_for_equal_components():
    intervals = omega_intervals(1, 7)
    rebuilt = IntervalSet([Interval(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
                           for iv in intervals])
    assert all(a == b and a is not b for a, b in zip(rebuilt, intervals))
    first = omega.n_constants(1, 7, runs_of(intervals), 41)
    hits = omega.n_constants.cache_info().hits
    assert omega.n_constants(1, 7, runs_of(rebuilt), 41) == first
    assert omega.n_constants.cache_info().hits == hits + 1
