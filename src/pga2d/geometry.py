"""Interpreted euclidean operations: distances and angles, bisectors,
projections, perpendiculars and the characteristic three-factor products.

Sign conventions, fixed here and pinned by golden tests:

* the line-to-point distance is the signed incidence defect S(m ^ P); it is
  positive for points to the left of the oriented line, and
  distance(P, m) = -distance(m, P);
* point-to-point and parallel-line distances are nonnegative;
* angles lie in [0, pi].

Each function computes on its operands' fields.  Lines are normalized
before they are tested, so the e12 part of a meet is a sine and the e012
part of a product of three is at most 1: near_zero tests both against 1.
"""

from __future__ import annotations

import math

from .elements import IdealPoint, Line, Point, Pseudoscalar, cross, incidence
from .errors import DomainError, OrientationError
from .metric import euclidean, ideal, ideal_inner, normalize
from .multivector import DEFAULT_TOL, Frozen, _finite, _set, near_zero


class Decomposition(Frozen):
    """Orthogonal split of an element: a Line for each part of a line, a
    Point for each part of a point, and None for a part that is exactly
    zero.  The two parts sum back to the normalized element."""

    __slots__ = ("parallel_part", "orthogonal_part")

    def __init__(self, parallel_part: Line | Point | None, orthogonal_part: Line | Point | None):
        _set(self, "parallel_part", parallel_part)
        _set(self, "orthogonal_part", orthogonal_part)

    def total(self) -> Line | Point:
        p, o = self.parallel_part, self.orthogonal_part
        if p is None or o is None:
            return o if p is None else p
        if isinstance(p, Line):
            return Line(p.a + o.a, p.b + o.b, p.c + o.c)
        return Point(p.x + o.x, p.y + o.y, p.z + o.z)


def _part(kind, fields: tuple[float, ...]):
    """kind(*fields), checked for overflow; None when every field is zero."""
    return kind(*_finite(fields)) if any(fields) else None


def distance(x, y, tol: float = DEFAULT_TOL) -> float:
    """Distance between two elements per their kinds.

    point-point: length of the joining line; parallel line-line: the gap
    (nonnegative); line-point: signed incidence defect, antisymmetric in
    the argument order.  Intersecting lines are rejected (use angle).
    """
    if isinstance(x, Point) and isinstance(y, Point):
        p, q = euclidean(x, tol, "point"), euclidean(y, tol, "point")
        # the normal (a, b) of the line joining two points of weight 1
        return math.hypot(*_finite((p.y - q.y, q.x - p.x)))
    if isinstance(x, Line) and isinstance(y, Line):
        m, n = euclidean(x, tol, "line"), euclidean(y, tol, "line")
        gx, gy, sine = cross((m.a, m.b, m.c), (n.a, n.b, n.c))
        if not near_zero(sine, 1.0, tol):
            raise DomainError("lines intersect; the gap is undefined (use angle)")
        return math.hypot(gx, gy)
    if isinstance(x, Line) and isinstance(y, Point):
        m, p = euclidean(x, tol, "line"), euclidean(y, tol, "point")
        return incidence(m, p)
    if isinstance(x, Point) and isinstance(y, Line):
        return -distance(y, x, tol)
    raise TypeError(f"no distance between {type(x).__name__} and {type(y).__name__}")


def angle(x, y, tol: float = DEFAULT_TOL) -> float:
    """Angle in [0, pi] between two lines, two ideal points, or a line and
    an ideal point (measured against the line's direction)."""
    if isinstance(x, Line) and isinstance(y, Line):
        m, n = euclidean(x, tol, "line"), euclidean(y, tol, "line")
        # the scalar m . n and the e12 part of m ^ n
        cos_a = m.a * n.a + m.b * n.b
        sin_a = abs(m.a * n.b - m.b * n.a)
        return math.atan2(sin_a, cos_a)
    if isinstance(x, Point) and isinstance(y, Point):
        c = max(-1.0, min(1.0, ideal_inner(ideal(x, tol, "point"), ideal(y, tol, "point"))))
        return math.acos(c)
    m, other = (x, y) if isinstance(x, Line) else (y, x)
    if isinstance(m, Line) and isinstance(other, Point):
        m, u = euclidean(m, tol, "line"), ideal(other, tol, "point")
        # m . u is the ideal line c*e0 with c the cosine
        c = max(-1.0, min(1.0, m.b * u.x - m.a * u.y))
        return math.acos(c)
    raise TypeError(f"no angle between {type(x).__name__} and {type(y).__name__}")


def midpoint(p: Point, q: Point, tol: float = DEFAULT_TOL) -> Point:
    """Point halfway between two euclidean points, returned with weight 1."""
    pn, qn = euclidean(p, tol, "point"), euclidean(q, tol, "point")
    return Point(0.5 * (pn.x + qn.x), 0.5 * (pn.y + qn.y), 1.0)


def midline(m: Line, n: Line, tol: float = DEFAULT_TOL) -> Line:
    """Sum of the normalized lines: the bisector through their common point,
    or the parallel mid-line.  Anti-parallel inputs (whose sum degenerates to
    the ideal line) are rejected; negate one argument to pick the other
    orientation."""
    m, n = euclidean(m, tol, "line"), euclidean(n, tol, "line")
    # parallel (the e12 part of m ^ n) and opposed (the scalar m . n)
    if near_zero(m.a * n.b - m.b * n.a, 1.0, tol) and m.a * n.a + m.b * n.b < 0.0:
        raise OrientationError(
            "anti-parallel lines: their sum is ideal; negate one argument first"
        )
    return normalize(Line(*_finite((m.a + n.a, m.b + n.b, m.c + n.c))), tol)


def perp_line_through(m: Line, p: Point, tol: float = DEFAULT_TOL) -> Line:
    """Line through p perpendicular to m, with m's norm and m's orientation
    rotated a quarter turn counterclockwise."""
    euclidean(m, tol, "line")  # the result keeps m's norm
    pn = euclidean(p, tol, "point")
    return Line(*_finite((-m.b, m.a, m.b * pn.x - m.a * pn.y)))  # m . p, of weight 1


def project(x, onto, tol: float = DEFAULT_TOL) -> Decomposition:
    """Orthogonal decomposition of x with respect to onto: the projection
    (x.y)y and the rejection (x^y)y of the normalized operands, computed in
    closed form on their fields.  With d the signed distance of the point
    from the line:

    * line m onto line n: cos*n, with cos = m.n, plus the perpendicular to n
      through the meet of m and n (parallel lines: a multiple of the ideal
      line);
    * line m onto point P: the parallel line through P, plus the ideal line
      d*e0;
    * point P onto line n: the foot P - d*(a, b), plus the ideal point
      d*(a, b);
    * point P onto point Q: Q, plus the ideal point P - Q.

    A part that is exactly zero is None: the projection of a line onto a
    perpendicular one, and the rejection of an element from itself or of a
    point from a line through it.
    """
    if not (isinstance(x, (Line, Point)) and isinstance(onto, (Line, Point))):
        raise TypeError(f"cannot project {type(x).__name__} onto {type(onto).__name__}")
    u = euclidean(x, tol, "projected element")
    w = euclidean(onto, tol, "projection target")
    if isinstance(u, Line) and isinstance(w, Line):
        cos = u.a * w.a + u.b * w.b
        # (m ^ n)n: the meet times n
        px, py, pz = cross((u.a, u.b, u.c), (w.a, w.b, w.c))
        return Decomposition(
            _part(Line, (cos * w.a, cos * w.b, cos * w.c)),
            _part(Line, (pz * w.b, -pz * w.a, py * w.a - px * w.b)),
        )
    if isinstance(u, Line):
        return Decomposition(
            _part(Line, (u.a, u.b, -(u.a * w.x + u.b * w.y))),
            _part(Line, (0.0, 0.0, incidence(u, w))),
        )
    if isinstance(w, Line):
        d = incidence(w, u)
        return Decomposition(
            _part(Point, (u.x - w.a * d, u.y - w.b * d, 1.0)),
            _part(IdealPoint, (w.a * d, w.b * d)),
        )
    return Decomposition(w, _part(IdealPoint, (u.x - w.x, u.y - w.y)))


def triple_points(a: Point, b: Point, c: Point, tol: float = DEFAULT_TOL) -> Point:
    """Product of three euclidean points of weight 1: the alternating sum
    -(a - b + c), of weight -1 (projectively the same point as a - b + c)."""
    an, bn, cn = (euclidean(p, tol, "point") for p in (a, b, c))
    # summed in the order that the product a(bc) sums them
    return Point(*_finite(((bn.x - cn.x) - an.x, (bn.y - cn.y) - an.y, -1.0)))


class TripleLineProduct(Frozen):
    """Grade components of a three-line product, plus a degeneracy flag."""

    __slots__ = ("line_part", "pseudo_part", "degenerate")

    def __init__(self, line_part: Line, pseudo_part: Pseudoscalar, degenerate: bool):
        _set(self, "line_part", line_part)
        _set(self, "pseudo_part", pseudo_part)
        _set(self, "degenerate", degenerate)


def triple_lines(a: Line, b: Line, c: Line, tol: float = DEFAULT_TOL) -> TripleLineProduct:
    """Product of three normalized euclidean lines, split into its grade-1
    part (the join of two altitude feet of the triangle they bound) and its
    grade-3 part.  Concurrent or parallel triples are flagged, not rejected.
    With g the meet of b and c, a(bc) = (b.c)a + a.g + a ^ g."""
    an, bn, cn = (euclidean(m, tol, "line") for m in (a, b, c))
    gx, gy, gz = cross((bn.a, bn.b, bn.c), (cn.a, cn.b, cn.c))
    bc = bn.a * cn.a + bn.b * cn.b
    line = (bc * an.a - an.b * gz, bc * an.b + an.a * gz, bc * an.c - an.a * gy + an.b * gx)
    pseudo = Pseudoscalar(_finite((an.c * gz + an.a * gx + an.b * gy,))[0])
    # concurrent, or two of them parallel (the e12 part of m ^ n is a sine)
    sines = (m.a * n.b - m.b * n.a for m, n in ((an, bn), (bn, cn), (cn, an)))
    degenerate = any(near_zero(x, 1.0, tol) for x in (pseudo.s, *sines))
    return TripleLineProduct(Line(*_finite(line)), pseudo, degenerate)


def symmetric_line(a: Line, b: Line, c: Line, tol: float = DEFAULT_TOL) -> Line:
    """Sum of the six permutation products abc + acb + ...: the pure line
    2[(b.c)a + (c.a)b + (a.b)c] of the normalized lines."""
    an, bn, cn = (euclidean(m, tol, "line") for m in (a, b, c))
    bc, ca, ab = (m.a * n.a + m.b * n.b for m, n in ((bn, cn), (cn, an), (an, bn)))
    u, v, w = ((m.a, m.b, m.c) for m in (an, bn, cn))
    return Line(*_finite(tuple(2.0 * (bc * x + ca * y + ab * z) for x, y, z in zip(u, v, w))))
