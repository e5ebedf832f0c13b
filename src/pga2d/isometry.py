"""Reflections, rotors, translators, glide reflections and the point-line
transport construction.

A motor (scalar plus bivector) acts through the two-sided sandwich
g x reverse(g) and realizes a direct isometry: a rotation about its bivector
axis point or, when the bivector is ideal, a translation.  An odd versor
(line plus pseudoscalar) realizes a reflection or glide reflection.

A sandwich maps lines, points and versors in closed form; any other operand
is multiplied out over 8 slots.  Normalizing a motor, an odd versor or a
translation axis divides by a length only through metric.unit_direction.
"""

import math
import sys

from .elements import Line, Point, cross, from_mv, incidence, mv
from .errors import ConstructionError, DomainError, IncidenceError, OperandError
from .metric import euclidean, ideal, unit_direction, view
from .multivector import DEFAULT_TOL, Frozen, _finite, near_zero


def _init4(self, rule, a, b, c, d) -> None:
    """The construction rule of Motor and OddVersor; rule is (4 setters, zero refusal or None)."""
    a, b, c, d = float(a), float(b), float(c), float(d)
    if not math.isfinite(a + b + c + d):
        _finite((a, b, c, d))  # raises, unless only the sum overflowed
    if rule[4] and a == 0.0 and b == 0.0 and c == 0.0:
        raise DomainError(rule[4])
    rule[0](self, a)
    rule[1](self, b)
    rule[2](self, c)
    rule[3](self, d)


class Motor(Frozen):
    """Even-subalgebra element s + bx*e20 + by*e01 + bz*e12."""

    __slots__ = ("s", "bx", "by", "bz")
    _blades = (0, 4, 5, 6), "an even element"
    mv, from_mv = mv, classmethod(from_mv)

    def __init__(self, s: float, bx: float, by: float, bz: float):
        _init4(self, _MOTOR, s, bx, by, bz)

    def weight(self) -> float:
        """Square root of g * reverse(g); 1 for a normalized motor."""
        return math.hypot(self.s, self.bz)

    def normalized(self, tol: float = DEFAULT_TOL) -> "Motor":
        """Divided by its weight, which must not be near_zero against the
        largest component (a motor with no euclidean weight is null)."""
        s, bx, by, bz = self.s, self.bx, self.by, self.bz
        if near_zero(self.weight(), max(abs(s), abs(bx), abs(by), abs(bz)), tol):
            raise DomainError(f"{self!r} is null and cannot be normalized")
        # the weight is the length of (s, bz)
        us, uz, ux = unit_direction(s, bz, bx)
        return Motor(us, ux, unit_direction(s, bz, by)[2], uz)


_MOTOR = *[getattr(Motor, f).__set__ for f in Motor.__slots__], None
IDENTITY_MOTOR = Motor(1.0, 0.0, 0.0, 0.0)


class OddVersor(Frozen):
    """Grade-1 plus grade-3 element a*e1 + b*e2 + c*e0 + lam*e012: the line
    [a, b, c] together with a pseudoscalar weight."""

    __slots__ = ("a", "b", "c", "lam")
    _blades = (2, 3, 1, 7), "an odd element"
    mv, from_mv = mv, classmethod(from_mv)

    def __init__(self, a: float, b: float, c: float, lam: float):
        _init4(self, _ODD, a, b, c, lam)

    def normalized(self, tol: float = DEFAULT_TOL) -> "OddVersor":
        """Divided by the norm of its line part, which must not be near_zero
        against the largest component.  The result is the glide reflection in
        the unit axis [a, b, c] through the signed distance 2 * lam, measured
        along the axis direction; the displacement it realizes on points runs
        the opposite way (the odd sandwich flips the weight of every point
        image).  OddVersor(a, b, c, distance / 2) recomposes it exactly."""
        a, b, c, lam = self.a, self.b, self.c, self.lam
        if near_zero(math.hypot(a, b), max(abs(a), abs(b), abs(c), abs(lam)), tol):
            raise DomainError("versor with ideal line part cannot be normalized")
        return OddVersor(*unit_direction(a, b, c), unit_direction(a, b, lam)[2])


_ODD = *[getattr(OddVersor, f).__set__ for f in OddVersor.__slots__], "zero element is not a line"


def sandwich(v, x):
    """Two-sided action v x reverse(v) of a Motor or OddVersor on an element
    x: a value of x's class for a Line, Point, Motor or OddVersor, else the
    Multivector of x.mv().  A null v that maps a Line, Point or OddVersor to
    zero is refused with a DomainError that names v and x.  Expanded, it maps
    points (x, y, z) by the rows (r, t, p), (t2, r2, q), (0, 0, w) and lines
    [a, b, c] by (r, t, 0), (t2, r2, 0), (pl, ql, w), each quadratic in v; a
    motor's bivector moves as a point, an odd versor's line part as a line,
    and the scalar s or the weight lam scales by k = v reverse(v)."""
    if isinstance(v, Motor):
        s, bx, by, bz = v.s, v.bx, v.by, v.bz
        r, t, k = s * s - bz * bz, 2.0 * s * bz, s * s + bz * bz
        t2, r2, w = -t, r, k
        e, f, g, h = bx * bz, by * s, bx * s, by * bz
    elif isinstance(v, OddVersor):
        a, b, c, lam = v.a, v.b, v.c, v.lam
        r, t, k = a * a - b * b, 2.0 * a * b, a * a + b * b
        t2, r2, w = t, -r, -k
        e, f, g, h = a * c, -lam * b, -lam * a, b * c
    else:
        raise OperandError(f"cannot use {type(v).__name__} as a versor")
    kind = type(x)
    try:
        if kind is Line or kind is OddVersor:
            pl, ql = 2.0 * (e + f), 2.0 * (h - g)
            a, b, c = x.a, x.b, x.c
            a, b, c = r * a + t * b, t2 * a + r2 * b, pl * a + ql * b + w * c
            return Line(a, b, c) if kind is Line else OddVersor(a, b, c, k * x.lam)
        if kind is Point or kind is Motor:
            p, q = 2.0 * (e - f), 2.0 * (g + h)
            px, py, pz = (x.x, x.y, x.z) if kind is Point else (x.bx, x.by, x.bz)
            a, b, c = r * px + t * py + p * pz, t2 * px + r2 * py + q * pz, w * pz
            return Point(a, b, c) if kind is Point else Motor(k * x.s, a, b, c)
    except DomainError:
        if a or b or c or kind is Motor:
            raise  # an overflow keeps _finite's text; a Motor accepts zero
        raise DomainError(f"{v!r} maps {x!r} to zero") from None  # a null versor names both
    if not hasattr(x, "mv"):
        raise OperandError(f"cannot apply a versor to {type(x).__name__}")
    vm = v.mv()
    return vm.gp(x.mv().gp(vm.reverse()))


def reflect(a: Line, x, tol: float = DEFAULT_TOL):
    """Reflection in the euclidean line a: the sandwich by a normalized, an odd
    versor without pseudoscalar part (a line is its own reverse)."""
    return sandwich(OddVersor(*euclidean(a, Line, tol, "mirror"), 0.0), x)


def rotor_from_lines(a: Line, b: Line, tol: float = DEFAULT_TOL) -> Motor:
    """Motor of the composition reflect-in-a-then-reflect-in-b, i.e. gp(b, a).

    Intersecting mirrors give the rotation about their common point by twice
    their angle; parallel mirrors a translation by twice their gap.
    """
    an, bn = euclidean(a, Line, tol, "mirror"), euclidean(b, Line, tol, "mirror")
    # gp(bn, an): the scalar bn . an and the bivector bn ^ an
    return Motor(bn[0] * an[0] + bn[1] * an[1], *cross(bn, an))


def _sinc(t: float) -> float:
    if abs(t) < 1e-4:
        t2 = t * t
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(t) / t


def _exp(bx: float, by: float, t: float) -> Motor:
    """exp of the bivector bx*e20 + by*e01 + t*e12: cos t + sinc(t) * b."""
    k = _sinc(t)
    return Motor(math.cos(t), k * bx, k * by, k * t)


def rotator(p: Point, alpha: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor exp((alpha/2) p) on the fields of p's normal form: the turn by
    alpha about p, or, p being ideal and of weight 0, translator(p, alpha).

    Positive alpha turns +x toward -y about a weight-positive point (the
    half-angle exponential of this basis is clockwise in the usual drawing
    orientation); golden tests pin the convention."""
    if not isinstance(p, Point):
        raise OperandError(f"rotation center must be a Point, not {type(p).__name__}")
    x, y, z = view(p, tol)[1]
    return _exp(*_finite((0.5 * alpha * x, 0.5 * alpha * y, 0.5 * alpha * z)))


def translator(v: Point, d: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor whose sandwich translates by distance d perpendicular (CCW) to
    the ideal point v: exp((d/2) v) = 1 + (d/2) v for v of unit ideal norm,
    read in its normal form (u, v, 0) by rotator's expression."""
    x, y, z = ideal(v, tol, "translation direction")
    return _exp(*_finite((0.5 * d * x, 0.5 * d * y, 0.5 * d * z)))


def translator_by(dx: float, dy: float) -> Motor:
    """Motor translating every point by the vector (dx, dy)."""
    return Motor(1.0, 0.5 * dy, -0.5 * dx, 0.0)


def solve_point_line_transport(
    a: Point, m: Line, a2: Point, m2: Line, tol: float = DEFAULT_TOL
) -> Motor:
    """The unique direct isometry g with sandwich a -> a2 and m -> m2.

    g is the translator taking a to a2, then the rotor about a2 that turns
    the moved line m' onto m2: the normalized 1 + m2*m' (Roelfs and De
    Keninck, arXiv:2107.03771).  Translation keeps directions, so the turn
    comes from m and m2 directly; its half angle is taken in a form that
    does not cancel near a half turn.  The scalar part of g is >= 0 (g and
    -g are the same isometry).  IncidenceError is raised when a is not on m
    or a2 not on m2, and ConstructionError when g fails to carry a to a2 and
    m to m2; both tests are near_zero against the figure's size, the largest
    coordinate of the normalized points and offset of the normalized lines.
    """
    an, mn = euclidean(a, Point, tol, "point a"), euclidean(m, Line, tol, "line m")
    a2n, m2n = euclidean(a2, Point, tol, "point a2"), euclidean(m2, Line, tol, "line m2")
    (ax, ay, _), (a2x, a2y, _), (ma, mb, mc), (m2a, m2b, m2c) = an, a2n, mn, m2n
    # below the smallest normal float rounding is absolute, so the size stops there
    size = max(abs(ax), abs(ay), abs(a2x), abs(a2y), abs(mc), abs(m2c), sys.float_info.min)
    # a floor, so that tol = 0 does not demand exact incidence of rounded input
    check_tol = max(tol, 1e-9)
    for pt, ln, label in ((an, mn, "a on m"), (a2n, m2n, "a2 on m2")):
        defect = incidence(ln, pt)
        if not near_zero(defect, size, check_tol):
            raise IncidenceError(f"required incidence {label} fails (defect {defect:g})")

    t = translator_by(a2x - ax, a2y - ay)
    c = ma * m2a + mb * m2b
    s = ma * m2b - mb * m2a
    # (1 + c, s) and (|s|, sign(s) * (1 - c)) point the same way, as
    # (1 + c) * (1 - c) = s * s; the second does not cancel near a half turn
    if c >= 0.0:
        ch, sh, _ = unit_direction(1.0 + c, s)
    else:
        ch, sh, _ = unit_direction(abs(s), math.copysign(1.0 - c, s))
    # turn * shift, the turn being (ch, -sh * a2x, -sh * a2y, -sh)
    bx, by = ch * t.bx - sh * a2x - sh * t.by, ch * t.by - sh * a2y + sh * t.bx
    g = Motor(ch, bx, by, -sh)
    # the images' normalized fields, as normalize gives them
    _, (ix, iy, _) = view(sandwich(g, Point(*an)), tol)
    _, (ia, ib, ic) = view(sandwich(g, Line(*mn)), tol)
    # the image of m must be m2 with a positive scale; unit normals count against 1
    misses = (
        (ix - a2x, size), (iy - a2y, size),
        (ia - m2a, 1.0), (ib - m2b, 1.0), (ic - m2c, size),
    )
    if not all(near_zero(miss, scale, check_tol) for miss, scale in misses):
        raise ConstructionError("no direct isometry transports the given pairs")
    return g
