"""Interpreted euclidean operations: the join of two points and the meet of
two lines, distances and angles, bisectors and projections.

Sign conventions, fixed here and pinned by golden tests:

* the line-to-point distance is the signed incidence defect S(m ^ P); it is
  positive for points to the left of the oriented line, and
  distance(P, m) = -distance(m, P);
* point-to-point and parallel-line distances are nonnegative;
* angles lie in [0, pi].

Each function computes on its operands' fields.  Lines are normalized
before they are tested, so the e12 part of a meet is a sine, which near_zero
tests against 1.
"""

import math

from .elements import Line, Point, cross, incidence
from .errors import DomainError, OperandError, OrientationError
from .metric import euclidean, ideal, normalize, view
from .multivector import DEFAULT_TOL, _finite, near_zero


def distance(x, y, tol: float = DEFAULT_TOL) -> float:
    """Distance between two elements per their kinds.

    point-point: length of the joining line; parallel line-line: the gap
    (nonnegative); line-point: signed incidence defect, antisymmetric in
    the argument order.  Intersecting lines are rejected (use angle).
    """
    if isinstance(x, Point) and isinstance(y, Point):
        px, py, _ = euclidean(x, Point, tol, "point")
        qx, qy, _ = euclidean(y, Point, tol, "point")
        # the normal (a, b) of the line joining two points of weight 1
        return _finite((math.hypot(py - qy, qx - px),))[0]
    if isinstance(x, Line) and isinstance(y, Line):
        m, n = euclidean(x, Line, tol, "line"), euclidean(y, Line, tol, "line")
        gx, gy, sine = cross(m, n)
        if not near_zero(sine, 1.0, tol):
            raise DomainError("lines intersect; the gap is undefined (use angle)")
        return _finite((math.hypot(gx, gy),))[0]
    if isinstance(x, Line) and isinstance(y, Point):
        return incidence(euclidean(x, Line, tol, "line"), euclidean(y, Point, tol, "point"))
    if isinstance(x, Point) and isinstance(y, Line):
        return -distance(y, x, tol)
    raise OperandError(f"no distance between {type(x).__name__} and {type(y).__name__}")


def angle(x, y, tol: float = DEFAULT_TOL) -> float:
    """Angle in [0, pi], atan2(|u ^ v|, u . v), of the unit directions u and v
    of two lines, two ideal points, or a line and an ideal point."""
    if not (isinstance(x, (Line, Point)) and isinstance(y, (Line, Point))):
        raise OperandError(f"no angle between {type(x).__name__} and {type(y).__name__}")
    if isinstance(x, Point) and isinstance(y, Line):
        x, y = y, x  # the line is gated first; the angle is symmetric
    (ux, uy), (vx, vy) = _direction(x, tol), _direction(y, tol)
    return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)


def _direction(x, tol: float) -> tuple[float, float]:
    """A line's unit normal (a, b) turned a quarter clockwise, or an ideal
    point's unit free vector."""
    if isinstance(x, Line):
        a, b, _ = euclidean(x, Line, tol, "line")
        return b, -a
    return ideal(x, tol, "point")[:2]


def _cross(u: tuple, v: tuple, tol: float) -> tuple[float, float, float]:
    """The join of two points or meet of two lines, unless it is near_zero
    against the product of their largest coefficients (divided by one of
    them: the product can overflow, and then every result reads as zero)."""
    w = w0, w1, w2 = cross(u, v)
    (u0, u1, u2), (v0, v1, v2) = u, v
    if near_zero(
        max(abs(w0), abs(w1), abs(w2)) / max(abs(u0), abs(u1), abs(u2)),
        max(abs(v0), abs(v1), abs(v2)), tol,
    ):
        raise DomainError("result is the zero element (dependent arguments?)")
    return w


def join(p: Point, q: Point, tol: float = DEFAULT_TOL) -> Line:
    """The line through two points, directed from p to q; DomainError when
    they coincide within tol.  Two ideal points join in the ideal line."""
    if not (isinstance(p, Point) and isinstance(q, Point)):
        raise OperandError(f"no join of {type(p).__name__} and {type(q).__name__}")
    return Line(*_cross((p.x, p.y, p.z), (q.x, q.y, q.z), tol))


def meet(m: Line, n: Line, tol: float = DEFAULT_TOL) -> Point:
    """The point where two lines cross, ideal when they are parallel;
    DomainError when they coincide within tol."""
    if not (isinstance(m, Line) and isinstance(n, Line)):
        raise OperandError(f"no meet of {type(m).__name__} and {type(n).__name__}")
    return Point(*_cross((m.a, m.b, m.c), (n.a, n.b, n.c), tol))


def midpoint(p: Point, q: Point, tol: float = DEFAULT_TOL) -> Point:
    """Point halfway between two euclidean points, returned with weight 1."""
    px, py, _ = euclidean(p, Point, tol, "point")
    qx, qy, _ = euclidean(q, Point, tol, "point")
    # halved first, so a sum past the largest float cannot overflow
    return Point(0.5 * px + 0.5 * qx, 0.5 * py + 0.5 * qy, 1.0)


def midline(m: Line, n: Line, tol: float = DEFAULT_TOL) -> Line:
    """Sum of the normalized lines: the bisector through their common point,
    or the parallel mid-line.  Anti-parallel inputs (whose sum degenerates to
    the ideal line) are rejected; negate one argument to pick the other
    orientation."""
    ma, mb, mc = euclidean(m, Line, tol, "line")
    na, nb, nc = euclidean(n, Line, tol, "line")
    # parallel (the e12 part of m ^ n) and opposed (the scalar m . n)
    if near_zero(ma * nb - mb * na, 1.0, tol) and ma * na + mb * nb < 0.0:
        raise OrientationError(
            "anti-parallel lines: their sum is ideal; negate one argument first"
        )
    return normalize(Line(ma + na, mb + nb, mc + nc), tol)


def _operands(x, onto, tol: float) -> tuple[tuple, tuple]:
    """Normalized fields of x and onto for project and reject; a point onto a line may be ideal."""
    if not (isinstance(x, (Line, Point)) and isinstance(onto, (Line, Point))):
        raise OperandError(f"cannot project {type(x).__name__} onto {type(onto).__name__}")
    free = isinstance(x, Point) and isinstance(onto, Line)
    u = view(x, tol)[1] if free else euclidean(x, type(x), tol, "projected element")
    return u, euclidean(onto, type(onto), tol, "projection target")


def project(x, onto, tol: float = DEFAULT_TOL) -> Line | Point:
    """Orthogonal projection (x.y)y of the normalized operands, in closed
    form on their fields.  With d the signed distance of the point from the
    line: line m onto line n gives cos*n, with cos = m.n; line m onto point
    P the parallel line through P; point P onto line n the foot
    P - d*(a, b), of weight 1, or 0 for an ideal P (its part along n); point
    P onto point Q, Q.  A line onto a perpendicular one, or an ideal point
    onto a line normal to it, is exactly zero, which Line or Point rejects
    with DomainError."""
    u, w = _operands(x, onto, tol)
    (u0, u1, u2), (w0, w1, w2) = u, w
    if isinstance(x, Line) and isinstance(onto, Line):
        cos = u0 * w0 + u1 * w1
        return Line(cos * w0, cos * w1, cos * w2)
    if isinstance(x, Line):
        return Line(u0, u1, -(u0 * w0 + u1 * w1))
    if isinstance(onto, Line):
        d = incidence(w, u)
        return Point(u0 - w0 * d, u1 - w1 * d, u2)
    return Point(*w)
