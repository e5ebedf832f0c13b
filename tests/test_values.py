"""Contract of the immutable value classes: equality, hashing, immutability,
pickling, copying and the pinned repr strings."""

import copy
import inspect
import math
import pickle

import pytest

from pga2d.elements import IdealPoint, Line, Point, Pseudoscalar
from pga2d.errors import DomainError
from pga2d.isometry import Motor, OddVersor
from pga2d.kernel import Multivector

_MV = Multivector((1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.5))
_IDEAL = IdealPoint(3, 4)

# (value, an equal value built separately, an unequal value of the same class,
#  one field name, the pinned repr)
CASES = [
    (
        _MV,
        Multivector([1, 0, 2, 0, 0, 0, 0, 0.5]),
        Multivector((1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.25)),
        "coeffs",
        "Multivector<1 + 2*e1 + 0.5*e012>",
    ),
    (Line(1, 0, 0), Line(1.0, 0.0, 0.0), Line(0, 1, 0), "a", "Line[1, 0, 0]"),
    (Point(1, 2, 1), Point(1.0, 2.0, 1.0), Point(1, 2, 2), "z", "Point(1, 2, 1)"),
    (_IDEAL, Point(3.0, 4.0, 0.0), IdealPoint(4, 3), "x", "Point(3, 4, 0)"),
    (Pseudoscalar(2), Pseudoscalar(2.0), Pseudoscalar(-2), "s", "Pseudoscalar(2)"),
    (Motor(1, 0, 0.5, 0), Motor(1.0, 0.0, 0.5, 0.0), Motor(1, 0.5, 0, 0), "bz", "Motor(1, 0, 0.5, 0)"),
    (
        OddVersor(1, 0, 0, 0.5),
        OddVersor(1.0, 0.0, 0.0, 0.5),
        OddVersor(1, 0, 0, -0.5),
        "lam",
        "OddVersor(1, 0, 0, 0.5)",
    ),
]


# by class, but for the ideal point, a Point too, which keeps its constructor's name
IDS = ["IdealPoint" if case[0] is _IDEAL else type(case[0]).__name__ for case in CASES]


@pytest.mark.parametrize("value, same, other, field, text", CASES, ids=IDS)
def test_equality_and_hash(value, same, other, field, text):
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("value, same, other, field, text", CASES, ids=IDS)
def test_values_of_another_class_are_unequal(value, same, other, field, text):
    stranger = next(case[0] for case in CASES if type(case[0]) is not type(value))
    assert value != stranger
    assert value != tuple(value.__class__.__slots__)


@pytest.mark.parametrize("value, same, other, field, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, same, other, field, text):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("value, same, other, field, text", CASES, ids=IDS)
def test_pickle_and_copies_round_trip(value, same, other, field, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is type(value) and restored == value
        assert repr(restored) == text
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        assert hash(clone) == hash(value)
        assert repr(clone) == text


@pytest.mark.parametrize("value, same, other, field, text", CASES, ids=IDS)
def test_repr_is_pinned(value, same, other, field, text):
    assert repr(value) == text


# every value constructor rejects a non-finite field, and lines and points
# also all zeros
REJECTED = [
    (Line, (math.nan, 1, 0)),
    (Line, (1, math.inf, 0)),
    (Line, (0, 0, 0)),
    (Point, (math.nan, 0, 1)),
    (Point, (0, 0, -math.inf)),
    (Point, (0, 0, 0)),
    (IdealPoint, (math.inf, 1)),
    (IdealPoint, (0, math.nan)),
    (IdealPoint, (0, 0)),
    (Pseudoscalar, (math.nan,)),
    (Pseudoscalar, (math.inf,)),
    (Motor, (1, 0, 0, math.nan)),
    (Motor, (-math.inf, 0, 0, 0)),
    (OddVersor, (1, 0, 0, math.nan)),
    (OddVersor, (1, 0, 0, math.inf)),
    (OddVersor, (0, math.inf, 0, 1)),
    # the overflow check comes before the zero refusal
    (OddVersor, (0, 0, 0, math.inf)),
    (Multivector, ((0, 0, 0, 0, 0, 0, 0, math.nan),)),
]
# the overflow check's one text, whichever constructor finds the value
_OVERFLOW = "result is not finite (coefficient overflow or non-finite factor)"


@pytest.mark.parametrize(
    "cls, args", REJECTED, ids=[f"{cls.__name__}{args}" for cls, args in REJECTED]
)
def test_constructor_rejects_non_finite_or_zero_fields(cls, args):
    with pytest.raises(DomainError) as info:
        cls(*args)
    if any(args):  # a non-finite field
        assert str(info.value) == _OVERFLOW
    else:
        assert str(info.value) in ("zero element is not a line", "zero element is not a point")


# the zero refusal reads the first three fields, and a motor has none: a half
# turn about the origin has zero scalar, e20 and e01 parts
@pytest.mark.parametrize("args", [(0.0, 0.0, 0.0, 1.0), (-0.0, 0.0, 0.0, -1.0), (0.0,) * 4])
def test_a_motor_of_zero_scalar_and_zero_translation_parts_is_accepted(args):
    assert Motor(*args)._key() == args


# each constructor keeps its signature, and each field its keyword
SIGNATURES = [
    (Line, ("a", "b", "c")),
    (Point, ("x", "y", "z")),
    (Motor, ("s", "bx", "by", "bz")),
    (OddVersor, ("a", "b", "c", "lam")),
]


@pytest.mark.parametrize("cls, names", SIGNATURES, ids=[cls.__name__ for cls, _ in SIGNATURES])
def test_constructors_take_their_fields_by_keyword(cls, names):
    assert tuple(inspect.signature(cls).parameters) == names == cls.__slots__
    fields = (1.0, -2.0, 0.5, 3.0)[: len(names)]
    assert cls(**dict(zip(names, fields)))._key() == fields


# finite fields whose sum alone overflows: the inline sum test defers to _finite
SUM_OVERFLOWS = [
    (Line, (1e308, 1e308, 0)),
    (Point, (1e308, 1e308, 1)),
    (Motor, (1e308, 1e308, 0, 0)),
    (OddVersor, (1e308, 1e308, 0, 1e308)),
    (Multivector, ((1e308,) * 8,)),
]


@pytest.mark.parametrize("cls, args", SUM_OVERFLOWS, ids=[cls.__name__ for cls, _ in SUM_OVERFLOWS])
def test_fields_whose_sum_alone_overflows_are_accepted(cls, args):
    assert cls(*args)._key() == args


@pytest.mark.parametrize("u, v", [(math.nan, 1), (math.inf, 1), (0, -math.inf), (0, 0)])
def test_ideal_point_is_validated_as_the_point_of_zero_weight(u, v):
    with pytest.raises(DomainError) as ideal:
        IdealPoint(u, v)
    with pytest.raises(DomainError) as point:
        Point(u, v, 0)
    assert str(ideal.value) == str(point.value)
