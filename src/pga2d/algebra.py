"""The library's results that no script verb reaches: the perpendicular
through a point, rejection and the products of three lines or points; the
norms, the polar map and the factorization of a point; the motor exponential
and logarithm, interpolation and factorization.

pga2d loads this module on the first read of one of its names, so a script
run does not compile it.  Lines are normalized before they are tested, so the
e012 part of a product of three is at most 1, and near_zero tests it against 1.
"""

import math

from .elements import IdealPoint, Line, Point, cross, incidence
from .errors import ClassificationError, DomainError, OperandError
from .geometry import _operands
from .isometry import Motor, OddVersor, _exp
from .metric import euclidean, is_ideal, unit_direction
from .multivector import DEFAULT_TOL, _finite, near_zero


def perp_line_through(m: Line, p: Point, tol: float = DEFAULT_TOL) -> Line:
    """Line through p perpendicular to m, with m's norm and m's orientation
    rotated a quarter turn counterclockwise."""
    euclidean(m, Line, tol, "line")  # the result keeps m's norm
    px, py, _ = euclidean(p, Point, tol, "point")
    return Line(-m.b, m.a, m.b * px - m.a * py)  # m . p, of weight 1


def _part(kind, fields: tuple[float, ...]):
    """kind(*fields), which checks them for overflow; None when every field is zero."""
    return kind(*fields) if any(fields) else None


def reject(x, onto, tol: float = DEFAULT_TOL) -> Line | Point | None:
    """Orthogonal rejection (x^y)y of the normalized operands, which sums
    with project's result to the normalized x.  With d as in project: line
    m from line n gives the perpendicular to n through their meet (parallel
    lines: a multiple of the ideal line); line m from point P the ideal line
    d*e0; point P from line n the ideal point d*(a, b); point P from point
    Q the ideal point P - Q.  None when it is exactly zero: an element
    rejected from itself, or a point from a line through it."""
    u, w = _operands(x, onto, tol)
    (u0, u1, _), (w0, w1, _) = u, w
    if isinstance(x, Line) and isinstance(onto, Line):
        # (m ^ n)n: the meet times n
        px, py, pz = cross(u, w)
        return _part(Line, (pz * w1, -pz * w0, py * w0 - px * w1))
    if isinstance(x, Line):
        return _part(Line, (0.0, 0.0, incidence(u, w)))
    if isinstance(onto, Line):
        d = incidence(w, u)
        return _part(IdealPoint, (w0 * d, w1 * d))
    return _part(IdealPoint, (u0 - w0, u1 - w1))


def triple_points(a: Point, b: Point, c: Point, tol: float = DEFAULT_TOL) -> Point:
    """Product of three euclidean points of weight 1: the alternating sum
    -(a - b + c), of weight -1 (projectively the same point as a - b + c)."""
    an, bn, cn = (euclidean(p, Point, tol, "point") for p in (a, b, c))
    (ax, ay, _), (bx, by, _), (cx, cy, _) = an, bn, cn
    # summed in the order that the product a(bc) sums them
    return Point((bx - cx) - ax, (by - cy) - ay, -1.0)


def triple_lines(a: Line, b: Line, c: Line, tol: float = DEFAULT_TOL) -> tuple[OddVersor, bool]:
    """Product of three normalized euclidean lines, as an odd versor whose
    line part is the join of two altitude feet of the triangle they bound,
    and a flag for concurrent or parallel triples, which are not rejected.
    With g the meet of b and c, a(bc) = (b.c)a + a.g + a ^ g."""
    an, bn, cn = (euclidean(m, Line, tol, "line") for m in (a, b, c))
    gx, gy, gz = cross(bn, cn)
    bc = bn[0] * cn[0] + bn[1] * cn[1]
    a0, a1, a2 = an
    line = (bc * a0 - a1 * gz, bc * a1 + a0 * gz, bc * a2 - a0 * gy + a1 * gx)
    lam = a2 * gz + a0 * gx + a1 * gy
    # concurrent, or two of them parallel (the e12 part of m ^ n is a sine)
    sines = (m[0] * n[1] - m[1] * n[0] for m, n in ((an, bn), (bn, cn), (cn, an)))
    degenerate = any(near_zero(x, 1.0, tol) for x in (lam, *sines))
    return OddVersor(*line, lam), degenerate


def symmetric_line(a: Line, b: Line, c: Line, tol: float = DEFAULT_TOL) -> Line:
    """Sum of the six permutation products abc + acb + ...: the pure line
    2[(b.c)a + (c.a)b + (a.b)c] of the normalized lines."""
    u, v, w = (euclidean(m, Line, tol, "line") for m in (a, b, c))
    bc, ca, ab = (m[0] * n[0] + m[1] * n[1] for m, n in ((v, w), (w, u), (u, v)))
    return Line(*(2.0 * (bc * x + ca * y + ab * z) for x, y, z in zip(u, v, w)))


def norm(x, tol: float = DEFAULT_TOL) -> float:
    """Euclidean norm: sqrt(a^2+b^2) for a line, the signed weight z for a point."""
    if is_ideal(x, tol):
        raise ClassificationError(f"{x!r} has no euclidean norm; use ideal_norm")
    return _finite((math.hypot(x.a, x.b),))[0] if isinstance(x, Line) else x.z


def ideal_norm(x, tol: float = DEFAULT_TOL) -> float:
    """Ideal norm: free-vector length for an ideal point, signed c for an ideal line."""
    if not is_ideal(x, tol):
        raise ClassificationError(f"{x!r} is euclidean; use norm")
    return x.c if isinstance(x, Line) else _finite((math.hypot(x.x, x.y),))[0]


def polar(x) -> "Multivector":
    """Multiplication by the pseudoscalar: a line maps to its perpendicular
    ideal point, a euclidean point to the ideal line, ideal elements to 0."""
    if not hasattr(x, "mv"):
        raise OperandError(f"polar operand must be a multivector, not {type(x).__name__}")
    from .kernel import e012

    return e012.gp(x.mv())


def ideal_point_of(m: Line, tol: float = DEFAULT_TOL) -> Point:
    """Direction of a euclidean line: its wedge with the ideal line e0."""
    euclidean(m, Line, tol, "line")  # the result keeps m's norm
    return IdealPoint(m.b, -m.a)


def factor_point(p: Point, tol: float = DEFAULT_TOL) -> tuple[Line, Line]:
    """Split a euclidean point of weight +-1 into two orthonormal lines m, n
    with gp(m, n) equal to the point exactly.

    m is e1 . p = [0, z, -y] normalized, the horizontal line through p, and
    n the line part of m p, the vertical one: [0, 1, -y] and [-1, 0, x] for
    weight 1.  mn recovers p because m squares to 1.
    """
    euclidean(p, Point, tol, "point")  # p itself is factored, with its weight's sign
    if not near_zero(abs(p.z) - 1.0, 1.0, tol):
        raise DomainError(f"{p!r} must have weight +-1 to factor into orthonormal lines")
    m = Line(*unit_direction(0.0, p.z, -p.y))  # m.b is the sign of z
    return m, Line(-m.b * p.z, 0.0, m.b * p.x)


def _inv_sinc(t: float) -> float:
    if abs(t) < 1e-4:
        t2 = t * t
        return 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
    return t / math.sin(t)


def exp_bivector(b, tol: float = DEFAULT_TOL) -> Motor:
    """Closed-form exponential of a pure bivector.

    For a euclidean bivector t*P with P normalized this is cos t + sin t * P;
    for an ideal bivector V (which squares to zero) the series truncates to
    1 + V.  Both branches are covered by cos(z) + sinc(z) * b with z the
    e12 coefficient.
    """
    if not hasattr(b, "mv"):
        raise OperandError(f"exponential argument must be a bivector, not {type(b).__name__}")
    bm = b.mv()
    if bm.grades(tol) - {2}:
        raise DomainError(f"exponential argument must be a pure bivector, got {bm!r}")
    return _exp(bm[4], bm[5], bm[6])


def _log(g: Motor, tol: float) -> tuple[float, float, float]:
    """The e20, e01 and e12 fields of log_motor(g)."""
    if not isinstance(g, Motor):
        raise OperandError(f"motor must be a Motor, not {type(g).__name__}")
    gn = g.normalized(tol)
    if gn.s < 0.0:
        gn = Motor(-gn.s, -gn.bx, -gn.by, -gn.bz)
    f = _inv_sinc(math.atan2(gn.bz, gn.s))
    return f * gn.bx, f * gn.by, f * gn.bz


def log_motor(g: Motor, tol: float = DEFAULT_TOL) -> "Multivector":
    """Principal logarithm of a normalized motor, a pure bivector.

    Motors with negative scalar part are negated first (g and -g act
    identically), which makes the result single-valued with sandwich
    rotation magnitude in [0, pi].
    """
    bivector = _log(g, tol)  # refuses g before the kernel loads
    from .kernel import Multivector

    return Multivector((0.0, 0.0, 0.0, 0.0, *bivector, 0.0))


def interpolate(g: Motor, t: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor path exp(t * log g): identity at t = 0, +-g at t = 1."""
    return _exp(*_finite(tuple(float(t) * f for f in _log(g, tol))))


def factor_motor(g: Motor, tol: float = DEFAULT_TOL) -> tuple[Line, Line]:
    """Two normalized mirror lines (p, q) with rotor_from_lines(p, q) equal to
    the normalized motor: q is the line part of g p for a line p through the axis."""
    if not isinstance(g, Motor):
        raise OperandError(f"factored motor must be a Motor, not {type(g).__name__}")
    gn = g.normalized(tol)
    s, bx, by, bz = gn.s, gn.bx, gn.by, gn.bz
    # the axis point (bx, by, bz) is euclidean by Point.is_ideal's test; p is
    # the horizontal line through it
    if not near_zero(bz, max(abs(bx), abs(by), abs(bz)), tol):
        p = Line(0.0, 1.0, -(by / bz))
    # a translation: its ideal part against the normalized weight 1
    elif near_zero(math.hypot(bx, by), 1.0, tol):
        p = Line(0.0, 1.0, 0.0)
    else:
        p = Line(*unit_direction(-by, bx))
    q = (s * p.a + bz * p.b, s * p.b - bz * p.a, s * p.c + by * p.a - bx * p.b)
    return p, Line(*q)
