"""Reflections, rotors, exponential/logarithm maps, glide reflections and the
point-line transport construction.

A motor (scalar plus bivector) acts through the two-sided sandwich
g x reverse(g) and realizes a direct isometry: a rotation about its bivector
axis point or, when the bivector is ideal, a translation.  An odd versor
(line plus pseudoscalar) realizes a reflection or glide reflection.
"""

from __future__ import annotations

import math

from .elements import IdealPoint, Line, Point, as_mv
from .errors import ClassificationError, ConstructionError, DomainError, IncidenceError
from .metric import normalize, unit_direction
from .multivector import DEFAULT_TOL, Frozen, Multivector, _set, _unchecked


class Motor(Frozen):
    """Even-subalgebra element s + bx*e20 + by*e01 + bz*e12."""

    __slots__ = ("s", "bx", "by", "bz")

    def __init__(self, s: float, bx: float, by: float, bz: float):
        s, bx, by, bz = float(s), float(bx), float(by), float(bz)
        if not (
            math.isfinite(s) and math.isfinite(bx) and math.isfinite(by) and math.isfinite(bz)
        ):
            raise DomainError("non-finite motor components")
        _set(self, "s", s)
        _set(self, "bx", bx)
        _set(self, "by", by)
        _set(self, "bz", bz)

    def mv(self) -> Multivector:
        return _unchecked((self.s, 0.0, 0.0, 0.0, self.bx, self.by, self.bz, 0.0))

    @classmethod
    def from_mv(cls, u: Multivector, tol: float = DEFAULT_TOL) -> "Motor":
        g0, g1, g2, g3 = u.grade_sizes()
        residue = max(g1, g3)
        if residue > tol * max(1.0, g0, g2, residue):
            raise DomainError(f"not an even element: {u!r}")
        c = u.coeffs
        return cls(c[0], c[4], c[5], c[6])

    def weight(self) -> float:
        """Square root of g * reverse(g); 1 for a normalized motor."""
        return math.hypot(self.s, self.bz)

    def normalized(self, tol: float = DEFAULT_TOL) -> "Motor":
        w = self.weight()
        if w <= tol:
            raise DomainError(f"{self!r} is null and cannot be normalized")
        return Motor(self.s / w, self.bx / w, self.by / w, self.bz / w)

    def __repr__(self) -> str:
        return f"Motor({self.s:g}, {self.bx:g}, {self.by:g}, {self.bz:g})"


IDENTITY_MOTOR = Motor(1.0, 0.0, 0.0, 0.0)


class OddVersor(Frozen):
    """Grade-1 plus grade-3 element: a line together with a pseudoscalar weight."""

    __slots__ = ("line", "lam")

    def __init__(self, line: Line, lam: float):
        lam = float(lam)
        if not math.isfinite(lam):
            raise DomainError("non-finite versor pseudoscalar part")
        _set(self, "line", line)
        _set(self, "lam", lam)

    def mv(self) -> Multivector:
        m = self.line
        return _unchecked((0.0, m.c, m.a, m.b, 0.0, 0.0, 0.0, self.lam))

    @classmethod
    def from_mv(cls, u: Multivector, tol: float = DEFAULT_TOL) -> "OddVersor":
        g0, g1, g2, g3 = u.grade_sizes()
        residue = max(g0, g2)
        if residue > tol * max(1.0, g1, g3, residue):
            raise DomainError(f"not an odd element: {u!r}")
        c = u.coeffs
        return cls(Line(c[2], c[3], c[1]), c[7])

    def normalized(self, tol: float = DEFAULT_TOL) -> "OddVersor":
        n = math.hypot(self.line.a, self.line.b)
        if n <= tol * max(abs(self.line.a), abs(self.line.b), abs(self.line.c), abs(self.lam)):
            raise DomainError("versor with ideal line part cannot be normalized")
        return OddVersor(Line(self.line.a / n, self.line.b / n, self.line.c / n), self.lam / n)


class GlideDecomposition(Frozen):
    """Axis and signed translation distance of a glide reflection.

    Recomposition is exact: axis + (translation_distance/2)*e012 equals the
    normalized versor.  Note that the euclidean displacement realized on
    points runs opposite the axis direction scaled by translation_distance
    (the odd sandwich flips the weight of every point image).
    """

    __slots__ = ("axis", "translation_distance")

    def __init__(self, axis: Line, translation_distance: float):
        _set(self, "axis", axis)
        _set(self, "translation_distance", translation_distance)


def _versor_mv(v) -> Multivector:
    if isinstance(v, (Motor, OddVersor)):
        return v.mv()
    if isinstance(v, Line):
        return v.mv()
    if isinstance(v, Multivector):
        return v
    raise TypeError(f"cannot use {type(v).__name__} as a versor")


def _typed_like(x, result: Multivector, tol: float):
    if isinstance(x, Multivector):
        return result
    if isinstance(x, Line):
        return Line.from_mv(result, tol)
    if isinstance(x, Point):
        return Point.from_mv(result, tol)
    if isinstance(x, IdealPoint):
        return IdealPoint(result[4], result[5])
    return result


def sandwich(v, x, tol: float = DEFAULT_TOL):
    """Two-sided action v x reverse(v); returns the same kind of element as x."""
    vm = _versor_mv(v)
    result = vm.gp(as_mv(x).gp(vm.reverse()))
    return _typed_like(x, result, tol)


def reflect(a: Line, x, tol: float = DEFAULT_TOL):
    """Reflection in the euclidean line a: the sandwich a x a (no reversal,
    since a line is its own reverse)."""
    if a.is_ideal(tol):
        raise DomainError("the ideal line is not a mirror")
    am = normalize(a, tol).mv()
    result = am.gp(as_mv(x).gp(am))
    return _typed_like(x, result, tol)


def rotor_from_lines(a: Line, b: Line, tol: float = DEFAULT_TOL) -> Motor:
    """Motor of the composition reflect-in-a-then-reflect-in-b, i.e. gp(b, a).

    Intersecting mirrors give the rotation about their common point by twice
    their angle; parallel mirrors a translation by twice their gap.
    """
    if a.is_ideal(tol) or b.is_ideal(tol):
        raise DomainError("mirrors must be euclidean lines")
    an, bn = normalize(a, tol), normalize(b, tol)
    return Motor.from_mv(bn.mv().gp(an.mv()), tol)


def _sinc(t: float) -> float:
    if abs(t) < 1e-4:
        t2 = t * t
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(t) / t


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
    bm = as_mv(b)
    residue = (bm - bm.grade(2)).max_abs()
    if residue > tol * max(1.0, bm.max_abs()):
        raise DomainError(f"exponential argument must be a pure bivector, got {bm!r}")
    t = bm[6]
    k = _sinc(t)
    return Motor(math.cos(t), k * bm[4], k * bm[5], k * t)


def log_motor(g: Motor, tol: float = DEFAULT_TOL) -> Multivector:
    """Principal logarithm of a normalized motor, a pure bivector.

    Motors with negative scalar part are negated first (g and -g act
    identically), which makes the result single-valued with sandwich
    rotation magnitude in [0, pi].
    """
    gn = g.normalized(tol)
    if gn.s < 0.0:
        gn = Motor(-gn.s, -gn.bx, -gn.by, -gn.bz)
    t = math.atan2(gn.bz, gn.s)
    f = _inv_sinc(t)
    return Multivector((0.0, 0.0, 0.0, 0.0, f * gn.bx, f * gn.by, f * gn.bz, 0.0))


def interpolate(g: Motor, t: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor path exp(t * log g): identity at t = 0, +-g at t = 1."""
    return exp_bivector(log_motor(g, tol).scaled(t), tol)


def rotator(p: Point, alpha: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor whose sandwich rotates by alpha about the euclidean point p.

    Positive alpha turns +x toward -y about a weight-positive point (the
    half-angle exponential of this basis is clockwise in the usual drawing
    orientation); golden tests pin the convention.
    """
    if p.is_ideal(tol):
        raise ClassificationError(f"rotation center {p!r} must be euclidean")
    return exp_bivector(normalize(p, tol).mv().scaled(alpha / 2.0), tol)


def translator(v: IdealPoint, d: float, tol: float = DEFAULT_TOL) -> Motor:
    """Motor whose sandwich translates by distance d perpendicular (CCW) to v."""
    vn = normalize(v, tol)
    return exp_bivector(vn.mv().scaled(d / 2.0), tol)


def translator_by(dx: float, dy: float) -> Motor:
    """Motor translating every point by the vector (dx, dy)."""
    return Motor(1.0, 0.5 * dy, -0.5 * dx, 0.0)


def glide_decompose(v: OddVersor, tol: float = DEFAULT_TOL) -> GlideDecomposition:
    """Split an odd versor m + lam*e012 into its reflection axis and the
    glide translation distance 2*lam (measured against the axis direction)."""
    if v.line.is_ideal(tol):
        raise DomainError("versor with ideal line part is not a glide reflection")
    n = math.hypot(v.line.a, v.line.b)
    axis = Line(v.line.a / n, v.line.b / n, v.line.c / n)
    return GlideDecomposition(axis, 2.0 * v.lam / n)


def glide_recompose(d: GlideDecomposition) -> OddVersor:
    return OddVersor(d.axis, 0.5 * d.translation_distance)


def factor_motor(g: Motor, tol: float = DEFAULT_TOL) -> tuple[Line, Line]:
    """Two normalized mirror lines (p, q) with rotor_from_lines(p, q) equal to
    the normalized motor: q is gp(g, p) for a line p through the axis."""
    gn = g.normalized(tol)
    if abs(gn.bz) > tol:
        center = Point(gn.bx / gn.bz, gn.by / gn.bz, 1.0)
        p = Line(0.0, 1.0, -center.y / center.z)
    else:
        w = math.hypot(gn.bx, gn.by)
        if w <= tol:
            p = Line(0.0, 1.0, 0.0)
        else:
            p = Line(-gn.by / w, gn.bx / w, 0.0)
    q = Line.from_mv(gn.mv().gp(p.mv()), tol)
    return p, q


def _lines_match(m: Line, n: Line, tol: float) -> bool:
    """Projective equality with positive scale, for normalized euclidean lines."""
    return (
        abs(m.a - n.a) <= tol and abs(m.b - n.b) <= tol and abs(m.c - n.c) <= tol * max(
            1.0, abs(m.c), abs(n.c)
        )
    )


def _points_match(p: Point, q: Point, tol: float) -> bool:
    scale = max(1.0, abs(p.x), abs(p.y), abs(q.x), abs(q.y))
    return abs(p.x - q.x) <= tol * scale and abs(p.y - q.y) <= tol * scale


def _transports(g: Motor, a: Point, m: Line, a2: Point, m2: Line, tol: float) -> bool:
    img_pt = normalize(sandwich(g, a, tol), tol)
    img_ln = normalize(sandwich(g, m, tol), tol)
    return _points_match(img_pt, a2, tol) and _lines_match(img_ln, m2, tol)


def solve_point_line_transport(
    a: Point, m: Line, a2: Point, m2: Line, tol: float = DEFAULT_TOL
) -> Motor:
    """The unique direct isometry g with sandwich a -> a2 and m -> m2.

    g is the translator taking a to a2, then the rotor about a2 that turns
    the moved line m' onto m2: the normalized 1 + m2*m' (Roelfs and De
    Keninck, arXiv:2107.03771).  Translation keeps directions, so the turn
    comes from m and m2 directly; its half angle is taken in a form that
    does not cancel near a half turn.  The scalar part of g is >= 0 (g and
    -g are the same isometry).  ConstructionError is raised when g fails to
    carry a to a2 and m to m2.
    """
    for x, name in ((a, "a"), (a2, "a2")):
        if x.is_ideal(tol):
            raise ClassificationError(f"point {name} must be euclidean")
    for x, name in ((m, "m"), (m2, "m2")):
        if x.is_ideal(tol):
            raise ClassificationError(f"line {name} must be euclidean")
    an, a2n = normalize(a, tol), normalize(a2, tol)
    mn, m2n = normalize(m, tol), normalize(m2, tol)
    check_tol = max(tol, 1e-9)
    for pt, ln, label in ((an, mn, "a on m"), ((a2n), m2n, "a2 on m2")):
        defect = ln.mv().outer(pt.mv()).pseudo_part()
        if abs(defect) > check_tol * max(1.0, abs(pt.x), abs(pt.y)):
            raise IncidenceError(f"required incidence {label} fails (defect {defect:g})")

    shift = translator_by(a2n.x - an.x, a2n.y - an.y)
    c = mn.a * m2n.a + mn.b * m2n.b
    s = mn.a * m2n.b - mn.b * m2n.a
    # (1 + c, s) and (|s|, sign(s) * (1 - c)) point the same way, as
    # (1 + c) * (1 - c) = s * s; the second does not cancel near a half turn
    if c >= 0.0:
        ch, sh, _ = unit_direction(1.0 + c, s)
    else:
        ch, sh, _ = unit_direction(abs(s), math.copysign(1.0 - c, s))
    turn = Motor(ch, -sh * a2n.x, -sh * a2n.y, -sh)
    g = Motor.from_mv(turn.mv().gp(shift.mv()), tol)
    if not _transports(g, an, mn, a2n, m2n, check_tol):
        raise ConstructionError("no direct isometry transports the given pairs")
    return g
