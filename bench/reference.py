"""Independent reference for generated construction scripts.

Plain coordinate geometry with the stdlib ``math`` module: hypot distances,
cos/sin rotations, averaged midpoints and the homogeneous line through two
points (a cross product).  Nothing here imports pga2d; the values are what a
script's ``print`` statements must show under the conventions the pga2d
README documents:

* a point is homogeneous (x, y, z) and prints as (x/z, y/z); z = 0 is ideal
  and prints as the unit vector ``ideal (x/n, y/n)``;
* a line [a, b, c] is ax + by + c = 0, prints divided by hypot(a, b), and is
  oriented along (b, -a); the line through P then Q is P x Q;
* ``rotator`` turns clockwise, ``translator V d`` moves d along V turned a
  quarter counterclockwise, and a reflection flips the orientation of lines
  and the weight sign of points.

Weights and orientations are tracked because later joins, meets and signed
distances depend on them.
"""

from __future__ import annotations

import math
import re


class Pt:
    """Homogeneous point (x, y, z)."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x, self.y, self.z = x, y, z

    @property
    def ideal(self) -> bool:
        return abs(self.z) <= 1e-9 * max(abs(self.x), abs(self.y), abs(self.z))

    @property
    def pos(self) -> tuple[float, float]:
        return self.x / self.z, self.y / self.z


class Ln:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: float, b: float, c: float):
        self.a, self.b, self.c = a, b, c

    def unit(self) -> tuple[float, float, float]:
        n = math.hypot(self.a, self.b)
        return self.a / n, self.b / n, self.c / n


class Num:
    __slots__ = ("v",)

    def __init__(self, v: float):
        self.v = v


class Mot:
    """Rigid motion p -> R(theta) p + t with R = [[c, -s], [s, c]]."""

    __slots__ = ("c", "s", "tx", "ty")

    def __init__(self, c: float, s: float, tx: float, ty: float):
        self.c, self.s, self.tx, self.ty = c, s, tx, ty


def printed(value) -> tuple[str, tuple[float, ...]]:
    """The kind and numbers a ``print`` of value shows."""
    if isinstance(value, Num):
        return "num", (value.v,)
    if isinstance(value, Pt):
        if value.ideal:
            n = math.hypot(value.x, value.y)
            return "ideal", (value.x / n, value.y / n)
        return "point", value.pos
    if isinstance(value, Ln):
        return "line", value.unit()
    raise TypeError(f"{type(value).__name__} is not printable")


# -- constructions -------------------------------------------------------------


def join(p: Pt, q: Pt) -> Ln:
    """Line through p then q: the cross product of their homogeneous coordinates."""
    return Ln(p.y * q.z - p.z * q.y, p.z * q.x - p.x * q.z, p.x * q.y - p.y * q.x)


def meet(m: Ln, n: Ln) -> Pt:
    """Common point of two lines, ideal (z = 0) when they are parallel."""
    return Pt(m.b * n.c - m.c * n.b, m.c * n.a - m.a * n.c, m.a * n.b - m.b * n.a)


def midpoint(p: Pt, q: Pt) -> Pt:
    (px, py), (qx, qy) = p.pos, q.pos
    return Pt(0.5 * (px + qx), 0.5 * (py + qy), 1.0)


def midline(m: Ln, n: Ln) -> Ln:
    """Sum of the unit lines: the bisector, or the parallel mid-line."""
    ma, mb, mc = m.unit()
    na, nb, nc = n.unit()
    return Ln(*Ln(ma + na, mb + nb, mc + nc).unit())


# -- measurements --------------------------------------------------------------


def point_distance(p: Pt, q: Pt) -> float:
    (px, py), (qx, qy) = p.pos, q.pos
    return math.hypot(px - qx, py - qy)


def line_point_distance(m: Ln, p: Pt) -> float:
    """Signed, positive on the left of the oriented line."""
    a, b, c = m.unit()
    x, y = p.pos
    return a * x + b * y + c


def parallel_gap(m: Ln, n: Ln) -> float:
    ma, mb, mc = m.unit()
    na, nb, nc = n.unit()
    if ma * na + mb * nb < 0.0:
        nc = -nc
    return abs(mc - nc)


def line_angle(m: Ln, n: Ln) -> float:
    ma, mb, _ = m.unit()
    na, nb, _ = n.unit()
    return math.atan2(abs(ma * nb - mb * na), ma * na + mb * nb)


def _unit_vector(v: Pt) -> tuple[float, float]:
    n = math.hypot(v.x, v.y)
    return v.x / n, v.y / n


def _clamped_acos(c: float) -> float:
    return math.acos(max(-1.0, min(1.0, c)))


def vector_angle(u: Pt, v: Pt) -> float:
    (ux, uy), (vx, vy) = _unit_vector(u), _unit_vector(v)
    return _clamped_acos(ux * vx + uy * vy)


def line_vector_angle(m: Ln, v: Pt) -> float:
    """Angle between the line's direction (b, -a) and the free vector v."""
    a, b, _ = m.unit()
    vx, vy = _unit_vector(v)
    return _clamped_acos(b * vx - a * vy)


# -- motions -------------------------------------------------------------------


def rotation(center: Pt, alpha: float) -> Mot:
    """Clockwise turn by alpha about center (the ``rotator`` convention)."""
    c, s = math.cos(alpha), -math.sin(alpha)
    cx, cy = center.pos
    return Mot(c, s, cx - (c * cx - s * cy), cy - (s * cx + c * cy))


def translation(v: Pt, d: float) -> Mot:
    """Shift by d along v turned a quarter counterclockwise."""
    ux, uy = _unit_vector(v)
    return Mot(1.0, 0.0, -d * uy, d * ux)


def transport(a: Pt, m: Ln, a2: Pt, m2: Ln) -> Mot:
    """The rigid motion taking a to a2 and the direction of m to that of m2."""
    ma, mb, _ = m.unit()
    na, nb, _ = m2.unit()
    theta = math.atan2(ma * nb - mb * na, ma * na + mb * nb)
    c, s = math.cos(theta), math.sin(theta)
    (ax, ay), (bx, by) = a.pos, a2.pos
    return Mot(c, s, bx - (c * ax - s * ay), by - (s * ax + c * ay))


def apply(g: Mot, x):
    """Image of x under g; weights and orientations are kept."""
    if isinstance(x, Pt):
        return Pt(
            g.c * x.x - g.s * x.y + g.tx * x.z,
            g.s * x.x + g.c * x.y + g.ty * x.z,
            x.z,
        )
    a = g.c * x.a - g.s * x.b
    b = g.s * x.a + g.c * x.b
    k = -x.c / (x.a * x.a + x.b * x.b)
    qx, qy = k * x.a, k * x.b  # the foot of the origin on x
    return Ln(a, b, -(a * (g.c * qx - g.s * qy + g.tx) + b * (g.s * qx + g.c * qy + g.ty)))


def reflect(m: Ln, x):
    """Mirror image of x in m, with orientation and weight sign flipped."""
    ua, ub, uc = m.unit()
    if isinstance(x, Pt):
        if x.ideal:
            d = ua * x.x + ub * x.y
            return Pt(-(x.x - 2.0 * d * ua), -(x.y - 2.0 * d * ub), 0.0)
        px, py = x.pos
        s = ua * px + ub * py + uc
        rx, ry = px - 2.0 * s * ua, py - 2.0 * s * ub
        return Pt(-x.z * rx, -x.z * ry, -x.z)
    d = ua * x.a + ub * x.b
    a, b = -(x.a - 2.0 * d * ua), -(x.b - 2.0 * d * ub)
    k = -x.c / (x.a * x.a + x.b * x.b)
    qx, qy = k * x.a, k * x.b
    s = ua * qx + ub * qy + uc
    rx, ry = qx - 2.0 * s * ua, qy - 2.0 * s * ub
    return Ln(a, b, -(a * rx + b * ry))


def project(x, onto):
    """Parallel part of x with respect to onto (the ``project`` verb)."""
    if isinstance(x, Pt) and isinstance(onto, Ln):
        a, b, c = onto.unit()
        px, py = x.pos
        s = a * px + b * py + c
        return Pt(px - s * a, py - s * b, 1.0)
    if isinstance(x, Ln) and isinstance(onto, Pt):
        a, b, _ = x.unit()
        px, py = onto.pos
        return Ln(a, b, -(a * px + b * py))
    if isinstance(x, Ln) and isinstance(onto, Ln):
        ma, mb, _ = x.unit()
        na, nb, nc = onto.unit()
        k = ma * na + mb * nb
        return Ln(k * na, k * nb, k * nc)
    qx, qy = onto.pos
    return Pt(qx, qy, 1.0)


# -- checking printed output ---------------------------------------------------

ABS_TOL = 2e-6
"""Printed values carry 6 decimals (rounding error 5e-7); the rest is slack
for floating-point error along chains of constructions."""
REL_TOL = 1e-8

_NUM = r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|-?inf|nan)"
_PATTERNS = (
    ("ideal", re.compile(rf"ideal \({_NUM}, {_NUM}\)\Z")),
    ("point", re.compile(rf"\({_NUM}, {_NUM}\)\Z")),
    ("line", re.compile(rf"\[{_NUM}, {_NUM}, {_NUM}\]\Z")),
    ("num", re.compile(rf"{_NUM}\Z")),
)


def parse_printed(text: str) -> tuple[str, tuple[float, ...]] | None:
    for kind, pattern in _PATTERNS:
        match = pattern.match(text)
        if match:
            return kind, tuple(float(g) for g in match.groups())
    return None


def close(got: float, want: float) -> bool:
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def check_output(text: str, expected) -> list[str]:
    """Compare printed text with expected (name, kind, values) rows.

    Returns one message per mismatch; an empty list means the output is right.
    """
    lines = text.splitlines()
    problems = []
    if len(lines) != len(expected):
        problems.append(f"{len(lines)} printed lines, expected {len(expected)}")
    for line, (name, kind, values) in zip(lines, expected):
        label, sep, rest = line.partition(" = ")
        got = parse_printed(rest) if sep else None
        if label != name or got is None:
            problems.append(f"unexpected line {line!r}, expected {name}")
        elif got[0] != kind or not all(close(g, w) for g, w in zip(got[1], values)):
            problems.append(f"{line!r} differs from {kind} {values}")
    return problems


def check_svg(svg: str, circles: int, arrows: int, lines: int) -> list[str]:
    """Drawn element counts: one circle per euclidean point, one arrow per
    ideal point, and at most one segment per line (clipping may drop some)."""
    problems = []
    if not svg.startswith("<?xml") or not svg.rstrip().endswith("</svg>"):
        problems.append("not a complete SVG document")
    if svg.count("<circle ") != circles:
        problems.append(f"{svg.count('<circle ')} circles, expected {circles}")
    if svg.count("<path ") != arrows:
        problems.append(f"{svg.count('<path ')} arrows, expected {arrows}")
    if svg.count("<line ") > lines:
        problems.append(f"{svg.count('<line ')} segments for {lines} lines")
    return problems
