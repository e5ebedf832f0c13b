"""Seeded random element builders shared by the test modules."""

from __future__ import annotations

import math
import random

from pga2d.algebra import exp_bivector
from pga2d.elements import IdealPoint, Line, Point
from pga2d.isometry import Motor, OddVersor
from pga2d.kernel import Multivector


class rng(random.Random):
    """The seeded draws of one test, in the call shapes of numpy's Generator."""

    def __init__(self, seed: int = 0):
        super().__init__(987654321 + seed)

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """A float in [low, high), or a list of size of them."""
        if size is None:
            return low + (high - low) * self.random()
        return [self.uniform(low, high) for _ in range(size)]

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high)."""
        return self.randrange(low, high)


def random_multivector(r, span: float = 1.0) -> Multivector:
    return Multivector(tuple(r.uniform(-span, span, size=8)))


def random_point(r, span: float = 3.0) -> Point:
    return Point(r.uniform(-span, span), r.uniform(-span, span), 1.0)


def random_ideal_point(r, unit: bool = False) -> Point:
    theta = r.uniform(0.0, 2.0 * math.pi)
    mag = 1.0 if unit else math.exp(r.uniform(-1.0, 1.0))
    return IdealPoint(mag * math.cos(theta), mag * math.sin(theta))


def random_line(r, span: float = 3.0) -> Line:
    theta = r.uniform(0.0, 2.0 * math.pi)
    return Line(math.cos(theta), math.sin(theta), r.uniform(-span, span))


def random_line_through(r, p: Point) -> Line:
    theta = r.uniform(0.0, 2.0 * math.pi)
    a, b = math.cos(theta), math.sin(theta)
    return Line(a, b, -(a * p.x / p.z + b * p.y / p.z))


def random_intersecting_lines(r, min_sin: float = 1e-3) -> tuple[Line, Line]:
    while True:
        m, n = random_line(r), random_line(r)
        if abs(m.a * n.b - m.b * n.a) > min_sin:
            return m, n


def random_parallel_lines(r) -> tuple[Line, Line]:
    theta = r.uniform(0.0, 2.0 * math.pi)
    a, b = math.cos(theta), math.sin(theta)
    return Line(a, b, r.uniform(-3.0, 3.0)), Line(a, b, r.uniform(-3.0, 3.0))


def random_triangle_lines(r, min_sin: float = 0.05) -> tuple[Line, Line, Line]:
    while True:
        a, b, c = random_line(r), random_line(r), random_line(r)
        sines = (
            abs(a.a * b.b - a.b * b.a),
            abs(b.a * c.b - b.b * c.a),
            abs(c.a * a.b - c.b * a.a),
        )
        if min(sines) > min_sin:
            return a, b, c


def random_rotation_motor(r, max_half_angle: float = 1.5) -> Motor:
    center = random_point(r)
    half = r.uniform(-max_half_angle, max_half_angle)
    return exp_bivector(center.mv().scaled(half))


def random_translation_motor(r) -> Motor:
    v = random_ideal_point(r)
    return Motor(1.0, 0.5 * v.x, 0.5 * v.y, 0.0)


def random_motor(r) -> Motor:
    kind = r.integers(0, 3)
    if kind == 0:
        return random_rotation_motor(r)
    if kind == 1:
        return random_translation_motor(r)
    g = random_rotation_motor(r).mv().gp(random_translation_motor(r).mv())
    return Motor.from_mv(g).normalized()


def random_odd_versor(r) -> OddVersor:
    m = random_line(r)
    return OddVersor(m.a, m.b, m.c, r.uniform(-2.0, 2.0))


def proj_match(u: Multivector, v: Multivector, tol: float = 1e-9, positive: bool = False) -> bool:
    """True when u = s * v for a scale s (optionally required positive)."""
    vv = sum(c * c for c in v.coeffs)
    if vv == 0.0:
        return u.max_abs() <= tol
    s = sum(a * b for a, b in zip(u.coeffs, v.coeffs)) / vv
    if positive and s <= 0.0:
        return False
    return (u - v.scaled(s)).max_abs() <= tol * max(1.0, u.max_abs())
