"""Typed views of homogeneous elements: lines, points, pseudoscalars.

A line [a, b, c] is the 1-vector a*e1 + b*e2 + c*e0 (the locus ax + by + c = 0,
third coordinate homogeneous); a point (x, y, z) is the 2-vector
x*e20 + y*e01 + z*e12.  There is one point class: an ideal point is a
Point whose weight z is near zero, and IdealPoint(u, v) builds the Point
(u, v, 0).  Classification into euclidean/ideal is near_zero of the
euclidean norm against the element's largest coefficient, since
homogeneous coordinates carry no absolute scale.

Operations compute on the three fields (a meet or a join is one cross
product); mv() gives the 8-slot multivector, for the algebra and the tests.
The one mv and from_mv below read a class's _blades: the kernel blade of
each field, in field order, and what from_mv accepts.  Line and Point check
their fields with _finite and refuse all zeros in _init3 below, as Motor and
OddVersor do in isometry's _init4, so a caller passes computed fields
unchecked and mv() wraps them as they are.
"""

import math

from .errors import DomainError
from .multivector import DEFAULT_TOL, Frozen, _finite, near_zero


def mv(self) -> "Multivector":
    """Each field of self in its blade of type(self)._blades, zero elsewhere."""
    from .kernel import DIM, _unchecked

    fields = dict(zip(self._blades[0], self._key()))
    return _unchecked(tuple([fields.get(i, 0.0) for i in range(DIM)]))


def from_mv(cls, u: "Multivector", tol: float = DEFAULT_TOL):
    """The cls with u's coefficients in cls._blades as its fields;
    DomainError when u.grades(tol) holds a grade of no such blade."""
    from .kernel import BLADE_GRADES

    blades, what = cls._blades
    if u.grades(tol) - {BLADE_GRADES[i] for i in blades}:
        raise DomainError(f"not {what}: {u!r}")
    return cls(*[u.coeffs[i] for i in blades])


def _init3(self, rule, a, b, c) -> None:
    """The construction rule of Line and Point; rule is (3 setters, zero refusal)."""
    a, b, c = float(a), float(b), float(c)
    if not math.isfinite(a + b + c):
        _finite((a, b, c))  # raises, unless only the sum overflowed
    if a == 0.0 and b == 0.0 and c == 0.0:
        raise DomainError(rule[3])
    rule[0](self, a)
    rule[1](self, b)
    rule[2](self, c)


class Line(Frozen):
    """Oriented line with tuple convention [a, b, c]: the locus ax + by + c = 0."""

    __slots__ = ("a", "b", "c")
    _blades = (2, 3, 1), "a pure line"
    mv, from_mv = mv, classmethod(from_mv)

    def __init__(self, a: float, b: float, c: float):
        _init3(self, _LINE, a, b, c)

    def is_ideal(self, tol: float = DEFAULT_TOL) -> bool:
        a, b, c = self.a, self.b, self.c
        return near_zero(math.hypot(a, b), max(abs(a), abs(b), abs(c)), tol)

    def __repr__(self) -> str:
        return f"Line[{self.a:g}, {self.b:g}, {self.c:g}]"


class Point(Frozen):
    """Point with tuple convention (x, y, z); euclidean position (x/z, y/z)."""

    __slots__ = ("x", "y", "z")
    _blades = (4, 5, 6), "a pure point"
    mv, from_mv = mv, classmethod(from_mv)

    def __init__(self, x: float, y: float, z: float):
        _init3(self, _POINT, x, y, z)

    def is_ideal(self, tol: float = DEFAULT_TOL) -> bool:
        x, y, z = self.x, self.y, self.z
        return near_zero(z, max(abs(x), abs(y), abs(z)), tol)


_LINE = *[getattr(Line, f).__set__ for f in Line.__slots__], "zero element is not a line"
_POINT = *[getattr(Point, f).__set__ for f in Point.__slots__], "zero element is not a point"


def IdealPoint(u: float, v: float) -> Point:
    """The ideal point (u, v, 0): a Point of zero weight, read as the free vector (u, v)."""
    return Point(u, v, 0.0)


class Pseudoscalar(Frozen):
    """Grade-3 element s*e012; only its signed magnitude is meaningful."""

    __slots__ = ("s",)
    _blades = (7,), None  # mv only
    mv = mv

    def __init__(self, s: float):
        Pseudoscalar.s.__set__(self, _finite((float(s),))[0])


def cross(u: tuple, v: tuple) -> tuple[float, float, float]:
    """u x v, checked for overflow: the meet (x, y, z) of two lines [a, b, c],
    or the joining line of two points."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return _finite((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0))


def incidence(m: tuple, p: tuple) -> float:
    """The e012 part of m ^ p for a line [a, b, c] and a point (x, y, z),
    checked for overflow: zero when p is on m."""
    (a, b, c), (x, y, z) = m, p
    return _finite((c * z + a * x + b * y,))[0]
