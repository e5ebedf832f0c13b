"""Norm, normalization, polar and classification tests."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gen
from pga2d import metric
from pga2d.algebra import factor_point, ideal_norm, ideal_point_of, norm, polar
from pga2d.elements import IdealPoint, Line, Point, Pseudoscalar
from pga2d.errors import ClassificationError, DomainError, OperandError
from pga2d.isometry import Motor
from pga2d.metric import euclidean, ideal, is_ideal, normalize, unit_direction
from pga2d.kernel import Multivector, e0, e1, e12, e20, zero


def test_norm_examples():
    assert norm(Line(3, 4, 5)) == 5.0
    assert norm(Point(2, 1, 2)) == 2.0
    assert norm(Point(0, 0, -1)) == -1.0  # signed weight


def test_norm_rejects_ideal():
    with pytest.raises(ClassificationError) as info:
        norm(Line(0, 0, 2))
    assert str(info.value) == "Line[0, 0, 2] has no euclidean norm; use ideal_norm"
    with pytest.raises(ClassificationError):
        norm(Point(3, 4, 0))


def test_ideal_norm_examples():
    assert ideal_norm(Point(3, 4, 0)) == 5.0
    assert ideal_norm(IdealPoint(3, 4)) == 5.0
    assert ideal_norm(Line(0, 0, 2)) == 2.0
    assert ideal_norm(Line(0, 0, -2)) == -2.0


def test_ideal_norm_rejects_euclidean():
    with pytest.raises(ClassificationError):
        ideal_norm(Line(1, 0, 0))
    with pytest.raises(ClassificationError):
        ideal_norm(Point(1, 1, 1))


def test_classify():
    assert not is_ideal(Line(1, 0, 0))
    assert is_ideal(Line(0, 0, 3))
    assert not is_ideal(Point(1, 2, 1))
    assert is_ideal(Point(1, 2, 0))
    assert is_ideal(IdealPoint(1, 0))
    assert is_ideal(Line(0, 0, 2))
    assert not is_ideal(Point(0, 0, 1))


@pytest.mark.parametrize("op", [is_ideal, norm, ideal_norm, normalize])
def test_a_non_element_cannot_be_classified(op):
    for x in (Motor(1, 0, 0, 0), Pseudoscalar(2.0)):
        with pytest.raises(OperandError) as info:
            op(x)
        assert str(info.value) == f"cannot classify {type(x).__name__}"


def test_is_ideal_examples():
    assert Point(3, 4, 0).is_ideal()
    assert not Point(0, 0, 1).is_ideal()
    assert Line(0, 0, 2).is_ideal()


def test_normalize_examples():
    ln = normalize(Line(3, 4, 5))
    assert (ln.a, ln.b, ln.c) == (0.6, 0.8, 1.0)
    assert ln.mv().gp(ln.mv()).approx_eq(Multivector((1, 0, 0, 0, 0, 0, 0, 0)), 1e-15)
    pt = normalize(Point(2, 1, 2))
    assert (pt.x, pt.y, pt.z) == (1.0, 0.5, 1.0)
    # an ideal line is e0, whatever its in-band normal and the sign of c
    il = normalize(Line(1e-4, 2e-4, -2), tol=1e-3)
    assert repr((il.a, il.b, il.c)) == repr((0.0, 0.0, 1.0))


def test_normalized_point_squares_to_minus_one():
    r = gen.rng(10)
    for _ in range(500):
        p = normalize(gen.random_point(r))
        square = p.mv().gp(p.mv())
        assert square.approx_eq(Multivector((-1, 0, 0, 0, 0, 0, 0, 0)), 1e-12)


def test_normalize_random_consistency():
    r = gen.rng(11)
    for _ in range(1000):
        kind = int(r.integers(0, 4))
        if kind == 0:
            ln = normalize(Line(r.uniform(-3, 3), r.uniform(-3, 3), r.uniform(-3, 3)))
            assert abs(norm(ln) - 1.0) <= 1e-12
        elif kind == 1:
            pt = normalize(Point(r.uniform(-3, 3), r.uniform(-3, 3), r.uniform(0.1, 3)))
            assert pt.z == 1.0
        elif kind == 2:
            ip = normalize(IdealPoint(r.uniform(-3, 3), r.uniform(-3, 3)))
            assert abs(ideal_norm(ip) - 1.0) <= 1e-12
        else:
            il = normalize(Line(0.0, 0.0, r.uniform(0.1, 3.0) * (1 if r.uniform() < 0.5 else -1)))
            assert abs(ideal_norm(il) - 1.0) <= 1e-12


def test_normalize_zero_is_domain_error():
    with pytest.raises(DomainError):
        Line(0, 0, 0)
    # at tol 1, |(a, b)| = 1 is not above the largest coefficient: ideal, with c = 0
    with pytest.raises(DomainError) as info:
        normalize(Line(1, 0, 0), tol=1.0)
    assert str(info.value) == "cannot normalize a zero line"


@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
@example(5e-324, 5e-324, 0.0)
@example(-3e-320, 1e-315, 2.0)
@example(0.0, -2e-310, -1.0)
def test_unit_direction_is_the_plain_quotient_while_the_length_is_finite(u, v, w):
    """Plain quotients for a normal, finite length; a unit (u, v) for any
    nonzero one, subnormal and overflowing lengths included."""
    n = math.hypot(u, v)
    if n == 0.0:
        return
    got = unit_direction(u, v, w)
    assert math.hypot(got[0], got[1]) == pytest.approx(1.0, abs=1e-15)
    if sys.float_info.min <= n < math.inf:
        assert got == (u / n, v / n, w / n)
    elif n == math.inf:
        assert math.isfinite(got[2])


def test_normalize_huge_elements_keeps_their_direction():
    ln = normalize(Line(1.7e308, 1.7e308, -1.7e308))
    assert (ln.a, ln.b, ln.c) == pytest.approx((0.5**0.5, 0.5**0.5, -(0.5**0.5)), rel=1e-15)
    ip = normalize(IdealPoint(-1.7e308, 0.0))
    assert (ip.x, ip.y) == (-1.0, 0.0)
    pt = normalize(Point(1.2e308, 1.6e308, 0.0))
    assert (pt.x, pt.y, pt.z) == pytest.approx((0.6, 0.8, 0.0), rel=1e-15)
    with pytest.raises(DomainError):
        normalize(Point(0.0, 0.0, 1.0), tol=math.inf)


def test_the_gates_return_the_normalized_fields():
    # fields, not an element: kind(*euclidean(x, kind, ...)) is normalize(x)
    assert euclidean(Point(2, 4, 2), Point, 1e-9, "p") == (1.0, 2.0, 1.0)
    assert euclidean(Line(3, 4, 5), Line, 1e-9, "m") == (0.6, 0.8, 1.0)
    assert ideal(Point(3, 4, 0), 1e-9, "p") == (0.6, 0.8, 0.0)
    with pytest.raises(ClassificationError, match=r"^p Point\(3, 4, 0\) must be euclidean$"):
        euclidean(Point(3, 4, 0), Point, 1e-9, "p")
    with pytest.raises(ClassificationError, match=r"^p Point\(2, 4, 2\) must be ideal$"):
        ideal(Point(2, 4, 2), 1e-9, "p")


@pytest.mark.parametrize(
    "p, tol, kind",
    [
        (Point(-0.0, 5e-324, 1.0), 1e-9, False),  # a signed zero and a subnormal
        (Point(3.0, -4.0, 1.0), 0.0, False),
        (Point(6.0, -8.0, 2.0), 1e-9, False),  # no shortcut for another weight
        (Point(2e9, 0.0, 1.0), 1e-9, True),  # weight 1, but ideal at this tol
    ],
)
def test_a_weight_one_point_normalizes_as_the_division_does(p, tol, kind):
    ideal_now = p.is_ideal(tol)
    assert ideal_now is kind
    # an ideal point is its unit free vector, of weight 0
    divided = unit_direction(p.x, p.y) if kind else (p.x / p.z, p.y / p.z, 1.0)
    # repr tells -0.0 from 0.0
    assert repr(metric._unit(p, ideal_now)) == repr(divided)
    assert repr(metric.view(p, tol)) == repr((kind, divided))


def test_an_ideal_element_normalizes_to_weight_zero_or_to_e0():
    """A point or line that is ideal at tol, of weight exactly 0 (either
    sign) or inside the band, has one normal form: the unit free vector
    (u, v, 0.0), or e0 = [0.0, 0.0, 1.0], whichever reader normalizes it."""
    r = gen.rng(140)
    for i in range(4000):
        tol = (1e-9, 1e-6, 1e-3, 0.0)[i // 2 % 4]
        # a scale, and the largest coordinate but for the weight or the normal
        k, u, v = 10.0 ** r.uniform(-3.0, 3.0), r.uniform(-1.0, 1.0), r.choice((-1.0, 1.0))
        # the weight or the normal's first coordinate: in the band, -0.0 or 0.0
        w = tol * k * r.uniform(-0.7, 0.7) if i // 8 % 2 else -0.0 if i % 3 else 0.0
        if i % 2:
            x = Point(k * u, k * v, w)
            fields = (True, unit_direction(x.x, x.y))
            assert repr(fields[1][2]) == "0.0"
            assert repr(metric.ideal(x, tol, "p")) == repr(fields[1])
        else:
            x = Line(w, tol * k * u * 0.7, k * v)
            fields = (True, (0.0, 0.0, 1.0))
        assert x.is_ideal(tol)
        n = normalize(x, tol)
        assert repr(n._key()) == repr(fields[1]) and n.is_ideal(0.0)
        assert repr(metric.view(x, tol)) == repr(fields)


def test_polar_examples():
    assert polar(e1) == e20
    assert polar(e12) == -e0
    assert polar(e0) == zero
    assert polar(Line(1, 0, 0)) == e20
    assert polar(Point(0, 0, 1)) == -e0


def test_polar_of_ideal_elements_is_zero():
    assert polar(IdealPoint(2, 3)) == zero
    assert polar(Line(0, 0, 5)) == zero


def test_polar_preserves_normalization():
    r = gen.rng(12)
    for _ in range(300):
        a = normalize(gen.random_line(r))
        perp = polar(a)
        assert abs(math.hypot(perp[4], perp[5]) - 1.0) <= 1e-12
        assert abs(perp[6]) <= 1e-15


def test_ideal_point_of_examples():
    # direction of the line x = 0 points downward, of y = 0 rightward
    assert ideal_point_of(Line(1, 0, 0)) == IdealPoint(0, -1)
    assert ideal_point_of(Line(0, 1, 0)) == IdealPoint(1, 0)
    with pytest.raises(ClassificationError):
        ideal_point_of(Line(0, 0, 1))


def test_ideal_point_of_matches_wedge_with_ideal_line():
    r = gen.rng(13)
    for _ in range(200):
        m = gen.random_line(r)
        direct = ideal_point_of(m)
        wedge = m.mv().outer(e0)
        assert wedge.approx_eq(direct.mv(), 1e-15)


def test_ideal_point_of_normalized_line_is_unit():
    r = gen.rng(14)
    for _ in range(300):
        m = normalize(gen.random_line(r))
        assert abs(ideal_norm(ideal_point_of(m)) - 1.0) <= 1e-12


def test_ideal_norm_is_independent_of_reference_point():
    r = gen.rng(15)
    for _ in range(20):
        p = gen.random_ideal_point(r)
        expected = ideal_norm(p)
        for _ in range(100):
            q = normalize(gen.random_point(r))
            joined = p.mv().join(q.mv())
            assert abs(math.hypot(joined[2], joined[3]) - expected) <= 1e-9


def test_scalar_part_of_euclidean_times_ideal_bivector_vanishes():
    r = gen.rng(16)
    for _ in range(500):
        p = gen.random_point(r).mv()
        u = gen.random_ideal_point(r).mv()
        assert p.gp(u)[0] == 0.0  # exactly, by the table structure


def test_unit_weight_bivectors_share_their_ideal_wedge():
    r = gen.rng(17)
    for _ in range(500):
        p = gen.random_point(r).mv()
        q = gen.random_point(r).mv()
        p = p.scaled(1.0 / abs(p[6]))
        q = q.scaled(1.0 / abs(q[6]))
        # both now square to -1 exactly
        wp = e0.outer(p)
        wq = e0.outer(q)
        assert wp == wq or wp == -wq


def test_factor_point_reconstructs():
    r = gen.rng(18)
    for _ in range(500):
        p = normalize(gen.random_point(r))
        if r.uniform() < 0.5:
            p = Point(-p.x, -p.y, -p.z)  # weight -1 branch
        m, n = factor_point(p)
        assert abs(norm(m) - 1.0) <= 1e-12
        assert abs(norm(n) - 1.0) <= 1e-12
        assert m.mv().dot(n.mv())[0] == pytest.approx(0.0, abs=1e-12)
        assert m.mv().gp(n.mv()).approx_eq(p.mv(), 1e-12)


def test_factor_point_classifies_its_first_factor_at_the_given_tol():
    # [0, 1, -1e10] is ideal at the default tol but euclidean at 1e-12
    p = Point(0, 1e10, 1)
    m, n = factor_point(p, 1e-12)
    assert (m, n) == (Line(0, 1, -1e10), Line(-1, 0, 0))
    assert m.mv().gp(n.mv()) == p.mv()


def test_factor_point_rejects_ideal_and_unnormalized():
    with pytest.raises(ClassificationError):
        factor_point(Point(1, 0, 0))
    with pytest.raises(DomainError):
        factor_point(Point(1, 0, 2))


coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(coord, coord, coord)
def test_normalized_euclidean_line_squares_to_one(a, b, c):
    line = Line(a, b, c) if (a, b, c) != (0.0, 0.0, 0.0) else Line(1.0, 0.0, 0.0)
    if line.is_ideal(1e-6):
        return
    n = normalize(line)
    square = n.mv().gp(n.mv())
    assert abs(square[0] - 1.0) <= 1e-9
    assert (square - square.grade(0)).max_abs() <= 1e-9


@settings(max_examples=200, deadline=None)
@given(coord, coord, st.floats(min_value=0.01, max_value=100.0))
def test_normalize_point_is_idempotent(x, y, z):
    p = normalize(Point(x, y, z))
    assert p.z == 1.0
    again = normalize(p)
    assert (again.x, again.y, again.z) == (p.x, p.y, p.z)
