"""Of lines and points: normalization, euclidean/ideal classification, the
kind gates and the view.

Two magnitudes coexist.  The euclidean norm is sqrt(a^2 + b^2) for a line
and the (signed) weight z for a point; it vanishes identically on ideal
elements.  Those instead carry the positive-definite ideal norm:
sqrt(u^2 + v^2) for an ideal point and the signed coefficient c for an
ideal line c*e0.
"""

import math
import sys

from .elements import Line, Point
from .errors import ClassificationError, DomainError, OperandError
from .multivector import DEFAULT_TOL, _finite


def is_ideal(x, tol: float = DEFAULT_TOL) -> bool:
    """The element's own is_ideal for a line or point."""
    if isinstance(x, (Line, Point)):
        return x.is_ideal(tol)
    raise OperandError(f"cannot classify {type(x).__name__}")


def unit_direction(u: float, v: float, w: float = 0.0) -> tuple[float, float, float]:
    """(u, v, w) divided by the length of (u, v), which must not be zero.

    The one place a length is a divisor.  A length that overflows to inf, or
    falls below the smallest normal float and so keeps too few bits, is
    taken again after all three are divided by max(|u|, |v|); every length
    in [sys.float_info.min, inf) gets the plain quotients.
    """
    n = math.hypot(u, v)
    if n == math.inf or n < sys.float_info.min:
        s = max(abs(u), abs(v))
        u, v, w = u / s, v / s, w / s
        n = math.hypot(u, v)
    return u / n, v / n, w / n


def normalize(x, tol: float = DEFAULT_TOL):
    """Scale to unit norm (euclidean) or unit ideal norm (ideal); same type out.

    A normalized euclidean line squares to +1, a normalized euclidean point
    has weight z = 1 and squares to -1.  An ideal point is its unit free
    vector, of weight 0, and an ideal line is e0 = [0, 0, 1].
    """
    return type(x)(*_unit(x, is_ideal(x, tol)))


def _unit(x, ideal: bool) -> tuple[float, float, float]:
    """The normalized fields of a line or point whose kind is known: a line's
    unit-normal [a, b, c], or e0 (0, 0, 1) when ideal; a point's (x/z, y/z, 1),
    or its unit free vector (u, v, 0) when ideal, whatever in-band weight or
    normal it has.  DomainError when the divisor is zero or a euclidean field
    overflows (the ideal forms cannot).

    A euclidean point of weight exactly 1 gives (x, y, 1.0) as it stands:
    dividing by 1 is exact, signed zeros and subnormals included, and
    Point's constructor has already proved x and y finite, so _finite has
    nothing left to find.  The kind is decided before, by the caller."""
    if isinstance(x, Line):
        if not ideal:
            return _finite(unit_direction(x.a, x.b, x.c))
        if x.c == 0.0:
            raise DomainError("cannot normalize a zero line")
        return 0.0, 0.0, 1.0
    if not ideal:
        if x.z == 1.0:
            return x.x, x.y, 1.0
        return _finite((x.x / x.z, x.y / x.z, 1.0))
    if x.x == 0.0 and x.y == 0.0:
        raise DomainError("cannot normalize a zero point")
    return unit_direction(x.x, x.y)


def view(x, tol: float) -> tuple[bool, tuple[float, float, float]]:
    """(ideal, fields) of a point or line as print and the SVG show it,
    classified once: normalize's fields, of which a point shows the first two
    (its position, or its unit direction when ideal); an ideal line is e0."""
    ideal = x.is_ideal(tol)
    return ideal, _unit(x, ideal)


def euclidean(x, kind: type, tol: float, what: str) -> tuple[float, float, float]:
    """The fields of normalize(x), (a, b, c) or (x, y, z), for a line or
    point that must be euclidean, classified once.

    This and ideal are the only gates on an operand's kind: what names the
    operand's role in the message.  Each first raises OperandError unless x is
    of its class, kind here (Line or Point) and Point for ideal, so no field
    of the other class is read.  They return checked fields, not an
    element; kind(*euclidean(x, kind, ...)) is the normalized element."""
    if not isinstance(x, kind):
        raise OperandError(f"{what} must be a {kind.__name__}, not {type(x).__name__}")
    if x.is_ideal(tol):
        raise ClassificationError(f"{what} {x!r} must be euclidean")
    return _unit(x, False)


def ideal(p: Point, tol: float, what: str) -> tuple[float, float, float]:
    """The fields (u, v, 0.0) of normalize(p), its unit free vector, for a
    point that must be ideal, classified once."""
    if not isinstance(p, Point):
        raise OperandError(f"{what} must be a Point, not {type(p).__name__}")
    if not p.is_ideal(tol):
        raise ClassificationError(f"{what} {p!r} must be ideal")
    return _unit(p, True)
