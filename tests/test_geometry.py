"""Distances and angles, sums, projections and three-factor products against
classical analytic geometry."""

import ast
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import gen
import lints
import oracle
from pga2d.algebra import (
    ideal_norm,
    ideal_point_of,
    norm,
    perp_line_through,
    reject,
    symmetric_line,
    triple_lines,
    triple_points,
)
from pga2d.elements import IdealPoint, Line, Point
from pga2d.errors import ClassificationError, DomainError, OperandError, OrientationError
from pga2d.geometry import angle, distance, join, meet, midline, midpoint, project
from pga2d.metric import normalize
from pga2d.kernel import Multivector, e0, e012, from_scalar


def as_tuple(line: Line) -> tuple[float, float, float]:
    return (line.a, line.b, line.c)


def n_line(r) -> Line:
    return normalize(gen.random_line(r))


def n_point(r) -> Point:
    return normalize(gen.random_point(r))


# -- distances ----------------------------------------------------------------


def test_point_distance_examples():
    d = distance(Point(0, 0, 1), Point(3, 4, 1))
    assert type(d) is float
    assert d == pytest.approx(5.0, abs=1e-12)


README = Path(__file__).resolve().parent.parent / "README.md"


def _gated_functions(asts) -> set[str]:
    """Each public function of asts that calls metric.euclidean or
    metric.ideal, itself or through a private helper of its module."""
    return lints.public_callers(asts, {"euclidean", "ideal"})


def test_the_readme_gate_table_lists_every_function_that_calls_a_gate():
    listed = lints.table_names(README.read_text(), "### Ideal operands")
    assert listed == _gated_functions(lints.trees().values())


def test_the_gate_table_lint_catches_a_missing_and_a_stale_row():
    planted = ast.parse(
        "def euclidean(x, tol):\n"
        "    return ideal(x, tol)\n"
        "def ideal(x, tol):\n"
        "    return x\n"
        "def _pair(p, q):\n"
        "    return euclidean(p, 0), euclidean(q, 0)\n"
        "def midpoint(p, q):\n"
        "    return _pair(p, q)\n"
        "def distance(p, q):\n"
        "    def inner():\n"
        "        return ideal(p, 0)\n"
        "    return inner()\n"
        "class Line:\n"
        "    def unit(self):\n"
        "        return metric.euclidean(self, 0)\n"
        "def angle(u, v):\n"
        "    return view(u)\n"
    )
    readme = (
        "### Ideal operands\n\n| function | gate |\n| -------- | ---- |\n"
        "| `midpoint` | E |\n| `angle`, `distance` | I |\n"
        "### Tolerance policy\n\n| `inner` | I |\n"
    )
    gated, listed = _gated_functions([planted]), lints.table_names(readme, "### Ideal operands")
    assert gated == {"midpoint", "distance", "inner"}
    assert (gated - listed, listed - gated) == ({"inner"}, {"angle"})


def test_the_readme_library_tour_shows_the_values_it_computes():
    tour = README.read_text().split("## Library tour", 1)[1]
    tour = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, []
    for line in tour.splitlines():
        code, _, comment = line.partition("#")
        number = re.match(r"\s*([+-]?\d+(?:\.\d*)?(?:e[+-]?\d+)?)", comment)
        if number and isinstance(ast.parse(code).body[0], ast.Expr):
            got = eval(code, namespace)
            assert got == pytest.approx(float(number[1]), abs=1e-12), line
            checked.append(line)
        elif code.strip():
            exec(code, namespace)
    assert len(checked) >= 2


def test_point_distance_matches_oracle():
    r = gen.rng(20)
    for _ in range(500):
        p, q = gen.random_point(r), gen.random_point(r)
        expected = oracle.point_distance((p.x, p.y), (q.x, q.y))
        assert distance(p, q) == pytest.approx(expected, abs=1e-9)


def test_point_distance_equals_ideal_norm_of_commutator():
    r = gen.rng(21)
    for _ in range(200):
        p, q = n_point(r), n_point(r)
        cross = p.mv().commutator(q.mv())
        assert distance(p, q) == pytest.approx(
            math.hypot(cross[4], cross[5]), abs=1e-9
        )


def test_line_point_distance_signed():
    m = Line(0, 1, 0)  # y = 0, oriented toward +x
    p = Point(0, 1, 1)
    d = distance(m, p)
    assert type(d) is float
    assert d == pytest.approx(1.0, abs=1e-12)  # positive to the left
    assert distance(p, m) == pytest.approx(-1.0, abs=1e-12)


def test_line_point_distance_matches_oracle():
    r = gen.rng(22)
    for _ in range(500):
        m, p = n_line(r), gen.random_point(r)
        expected = oracle.signed_point_line_distance((p.x, p.y), as_tuple(m))
        assert distance(m, p) == pytest.approx(expected, abs=1e-9)


def test_incident_pair_has_zero_distance():
    r = gen.rng(23)
    p = gen.random_point(r)
    m = gen.random_line_through(r, p)
    assert distance(p, m) == pytest.approx(0.0, abs=1e-12)


def test_parallel_line_distance_matches_oracle():
    r = gen.rng(24)
    for _ in range(500):
        m, n = gen.random_parallel_lines(r)
        d = distance(m, n)
        assert type(d) is float
        expected = abs(oracle.parallel_gap(as_tuple(m), as_tuple(n)))
        assert d == pytest.approx(expected, abs=1e-9)


def test_distance_rejects_intersecting_lines():
    with pytest.raises(DomainError):
        distance(Line(1, 0, 0), Line(0, 1, 0))


def test_distance_rejects_ideal_point():
    with pytest.raises(ClassificationError):
        distance(Point(1, 0, 0), Point(0, 0, 1))


# -- angles -------------------------------------------------------------------


def test_angle_examples():
    assert angle(Line(1, 0, 0), Line(0, 1, 0)) == pytest.approx(math.pi / 2)
    m = Line(0.3, -0.7, 1.1)
    assert angle(m, m) == pytest.approx(0.0, abs=1e-7)
    s = 1 / math.sqrt(2)
    assert angle(Line(1, 0, 0), Line(s, s, 0)) == pytest.approx(math.pi / 4)


def test_line_angle_matches_oracle_and_arccos():
    r = gen.rng(25)
    for _ in range(500):
        m, n = gen.random_intersecting_lines(r)
        got = angle(m, n)
        assert type(got) is float
        expected = abs(oracle.signed_line_angle(as_tuple(m), as_tuple(n)))
        assert got == pytest.approx(expected, abs=1e-9)
        mn, nn = normalize(m), normalize(n)
        cos_a = mn.mv().dot(nn.mv())[0]
        assert got == pytest.approx(math.acos(max(-1.0, min(1.0, cos_a))), abs=1e-7)
        # arcsin cross-check: the meet's weight is the sine of the angle
        assert abs(mn.mv().outer(nn.mv())[6]) == pytest.approx(math.sin(got), abs=1e-9)


def test_ideal_point_angle_matches_oracle():
    r = gen.rng(26)
    for _ in range(300):
        u, v = gen.random_ideal_point(r), gen.random_ideal_point(r)
        got = angle(u, v)
        assert type(got) is float
        assert got == pytest.approx(
            oracle.vector_angle((u.x, u.y), (v.x, v.y)), abs=1e-9
        )


def test_line_ideal_point_angle_matches_oracle():
    r = gen.rng(27)
    for _ in range(300):
        m, u = n_line(r), gen.random_ideal_point(r)
        got = angle(m, u)
        assert type(got) is float
        expected = oracle.vector_angle(oracle.line_direction(as_tuple(m)), (u.x, u.y))
        assert got == pytest.approx(expected, abs=1e-9)
        assert angle(u, m) == pytest.approx(got, abs=1e-12)


def test_angle_of_nearly_parallel_directions_is_their_small_angle():
    # a clamped acos of the cosine, the form for an ideal operand before,
    # read both as exactly 0 and pi
    assert angle(IdealPoint(1, 0), IdealPoint(1, 1e-9)) == 1e-9
    assert angle(Line(0, 1, 0), IdealPoint(-1, -1e-9)) == math.pi - 1e-9


def _acos_angle(x, y) -> float:
    """The clamped acos of the cosine that angle took before for an ideal
    operand: u . v of two unit free vectors, or m . u of a line and one."""
    m, u = (x, y) if isinstance(x, Line) else (y, x)
    m, u = normalize(m), normalize(u)
    cosine = m.b * u.x - m.a * u.y if isinstance(m, Line) else m.x * u.x + m.y * u.y
    return math.acos(max(-1.0, min(1.0, cosine)))


def _direction(x) -> tuple[float, float]:
    return (x.b, -x.a) if isinstance(x, Line) else (x.x, x.y)


def test_angle_of_an_ideal_operand_is_never_farther_from_the_exact_one():
    """Against the exact angle of the operands as given, through its exact
    sine and cosine (oracle.angle_miss is the squared sine of the miss):
    angle stays within 2 eps, and never misses by more than the acos form
    did, beyond that rounding; near 0 and pi the acos form misses by more
    than 1e7 eps."""
    r = gen.rng(39)
    eps, worst = 2.220446049250313e-16, 0.0
    for i in range(2000):
        turn = r.uniform(0.0, math.pi)
        if i % 3:  # nearly parallel, or nearly opposed
            turn = 10.0 ** r.uniform(-12.0, -1.0)
            turn = turn if i % 3 == 1 else math.pi - turn
        base, k, k2 = r.uniform(-math.pi, math.pi), *(10.0**e for e in r.uniform(-3, 3, size=2))
        ux, uy = k * math.cos(base), k * math.sin(base)
        v = Point(k2 * math.cos(base + turn), k2 * math.sin(base + turn), r.choice((0.0, 1e-13)))
        x = IdealPoint(ux, uy) if i % 2 else Line(-uy, ux, r.uniform(-5.0, 5.0))
        x, y = (x, v) if r.random() < 0.5 else (v, x)
        new, old = (
            oracle.angle_miss(f(x, y), _direction(x), _direction(y)) for f in (angle, _acos_angle)
        )
        assert new <= (2.0 * eps) ** 2
        assert new <= max(old, (2.0 * eps) ** 2)
        worst = max(worst, float(old))
    assert math.sqrt(worst) > 1e7 * eps


def test_angle_rejects_two_ideal_lines():
    with pytest.raises(DomainError):
        angle(Line(0, 0, 1), Line(0, 0, -2))


def test_angle_rejects_euclidean_point():
    with pytest.raises(ClassificationError):
        angle(Point(1, 1, 1), Line(1, 0, 0))
    # the line is gated before the point, in either argument order
    for x, y in ((Point(1, 1, 1), Line(0, 0, 1)), (Line(0, 0, 1), Point(1, 1, 1))):
        with pytest.raises(ClassificationError, match=r"^line Line\[0, 0, 1\] must be euclidean$"):
            angle(x, y)


# -- two-line and two-point product laws ---------------------------------------


def test_intersecting_lines_product_law():
    r = gen.rng(28)
    for _ in range(500):
        m, n = (normalize(x) for x in gen.random_intersecting_lines(r))
        alpha = oracle.signed_line_angle(as_tuple(m), as_tuple(n))
        meet = m.mv().outer(n.mv())
        center = meet.scaled(1.0 / meet[6])
        product = m.mv().gp(n.mv())
        expected = from_scalar(math.cos(alpha)) + center.scaled(math.sin(alpha))
        assert product.approx_eq(expected, 1e-9)


def test_intersecting_lines_power_law():
    r = gen.rng(29)
    for _ in range(100):
        m, n = (normalize(x) for x in gen.random_intersecting_lines(r))
        alpha = oracle.signed_line_angle(as_tuple(m), as_tuple(n))
        meet = m.mv().outer(n.mv())
        center = meet.scaled(1.0 / meet[6])
        power = from_scalar(1.0)
        base = m.mv().gp(n.mv())
        for k in (1, 2, 3, 4):
            power = power.gp(base)
            if k == 1:
                continue
            expected = from_scalar(math.cos(k * alpha)) + center.scaled(math.sin(k * alpha))
            assert power.approx_eq(expected, 1e-9)


def test_parallel_lines_product_law():
    r = gen.rng(30)
    for _ in range(500):
        m, n = (normalize(x) for x in gen.random_parallel_lines(r))
        gap = oracle.parallel_gap(as_tuple(m), as_tuple(n))
        direction = ideal_point_of(m).mv()
        product = m.mv().gp(n.mv())
        assert product.approx_eq(from_scalar(1.0) + direction.scaled(gap), 1e-9)


def test_parallel_lines_power_law():
    r = gen.rng(31)
    for _ in range(100):
        m, n = (normalize(x) for x in gen.random_parallel_lines(r))
        gap = oracle.parallel_gap(as_tuple(m), as_tuple(n))
        direction = ideal_point_of(m).mv()
        base = m.mv().gp(n.mv())
        power = from_scalar(1.0)
        for k in (1, 2, 3):
            power = power.gp(base)
            assert power.approx_eq(from_scalar(1.0) + direction.scaled(k * gap), 1e-9)


def test_two_point_product_law():
    r = gen.rng(32)
    for _ in range(500):
        p, q = n_point(r), n_point(r)
        product = p.mv().gp(q.mv())
        assert product[0] == pytest.approx(-1.0, abs=1e-12)
        cross = p.mv().commutator(q.mv())
        assert product.approx_eq(from_scalar(-1.0) + cross, 1e-12)
        # the grade-2 part is minus the polar of the joining line
        joined = p.mv().join(q.mv())
        assert cross.approx_eq(joined.gp(e012).scaled(-1.0), 1e-9)


def test_euclidean_times_ideal_point_rotates_clockwise():
    r = gen.rng(33)
    q = gen.random_ideal_point(r)
    expected = Multivector((0, 0, 0, 0, q.y, -q.x, 0, 0))
    for _ in range(50):
        p = n_point(r)  # any position
        assert p.mv().dot(q.mv()) == Multivector((0,) * 8)
        assert p.mv().commutator(q.mv()) == expected


def test_line_times_ideal_point_law():
    r = gen.rng(34)
    for _ in range(300):
        m = n_line(r)
        u = gen.random_ideal_point(r, unit=True)
        d = ideal_point_of(m)
        cos_a = d.x * u.x + d.y * u.y
        sin_a = d.x * u.y - d.y * u.x
        product = m.mv().gp(u.mv())
        expected = e0.scaled(cos_a) + e012.scaled(sin_a)
        assert product.approx_eq(expected, 1e-9)


# -- sums ----------------------------------------------------------------------


def test_midpoint_examples():
    mid = midpoint(Point(0, 0, 1), Point(2, 0, 1))
    assert (mid.x, mid.y, mid.z) == (1.0, 0.0, 1.0)
    mid = midpoint(Point(4, 6, 2), Point(-1, -3, 1))
    assert (mid.x, mid.y) == (0.5, 0.0)


def test_midpoint_is_equidistant():
    r = gen.rng(35)
    for _ in range(200):
        p, q = n_point(r), n_point(r)
        mid = midpoint(p, q)
        assert distance(mid, p) == pytest.approx(distance(mid, q), abs=1e-9)


def test_midpoint_of_points_whose_coordinate_sums_overflow():
    mid = midpoint(Point(1e308, -1.5e308, 1), Point(1.5e308, -1.7e308, 1), tol=0.0)
    assert (mid.x, mid.y, mid.z) == (1.25e308, -1.6e308, 1.0)


# every float of magnitude 2**-1021 or more halves exactly
_HALVES_EXACTLY = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: abs(v) >= 2.0**-1021
)


@given(_HALVES_EXACTLY, _HALVES_EXACTLY, _HALVES_EXACTLY, _HALVES_EXACTLY)
@example(2.0**-1021, -(2.0**-1021), 1.0, 1.0)
@example(2.0**-1021 + 2.0**-1073, -(2.0**-1021), -1.0, 1.0)
@example(1.7976931348623157e308, -1.7976931348623157e308, 3.0, -5.0)
def test_midpoint_halved_first_equals_the_halved_sum_where_the_sum_is_finite(px, py, qx, qy):
    halved_sums = 0.5 * (px + qx), 0.5 * (py + qy)
    if all(map(math.isfinite, halved_sums)):
        mid = midpoint(Point(px, py, 1), Point(qx, qy, 1), tol=0.0)
        # repr tells each float apart, -0.0 from 0.0 too
        assert repr((mid.x, mid.y, mid.z)) == repr((*halved_sums, 1.0))


def test_midline_intersecting_bisects():
    bis = midline(Line(1, 0, 0), Line(0, 1, 0))
    assert angle(bis, Line(1, 0, 0)) == pytest.approx(math.pi / 4, abs=1e-12)
    r = gen.rng(36)
    for _ in range(200):
        m, n = (normalize(x) for x in gen.random_intersecting_lines(r))
        bis = midline(m, n)
        assert angle(bis, m) == pytest.approx(angle(bis, n), abs=1e-9)
        # the bisector passes through the meet
        meet = m.mv().outer(n.mv())
        assert abs(bis.mv().outer(meet)[7]) <= 1e-9 * max(1.0, meet.max_abs())


def test_midline_parallel_case():
    mid = midline(Line(1, 0, 0), Line(1, 0, -2))
    assert (mid.a, mid.b, mid.c) == pytest.approx((1.0, 0.0, -1.0))
    r = gen.rng(37)
    for _ in range(200):
        m, n = (normalize(x) for x in gen.random_parallel_lines(r))
        mid = midline(m, n)
        assert distance(mid, m) == pytest.approx(distance(mid, n), abs=1e-9)


def test_midline_flags_antiparallel():
    with pytest.raises(OrientationError):
        midline(Line(1, 0, 0), Line(-1, 0, -2))


# -- perpendicular through a point ---------------------------------------------


def test_perp_line_through_example():
    assert perp_line_through(Line(0, 1, 0), Point(0, 0, 1)) == Line(-1, 0, 0)


def test_perp_line_through_postconditions():
    r = gen.rng(38)
    for _ in range(300):
        m, p = n_line(r), n_point(r)
        perp = perp_line_through(m, p)
        assert abs(perp.mv().outer(p.mv())[7]) <= 1e-12  # incident with p
        assert perp.mv().dot(m.mv())[0] == pytest.approx(0.0, abs=1e-12)
        assert math.hypot(perp.a, perp.b) == pytest.approx(1.0, abs=1e-12)  # same norm
        # orientation: direction of the result is m's direction rotated 90 CCW
        dm, dp = ideal_point_of(m), ideal_point_of(perp)
        assert (dp.x, dp.y) == pytest.approx((-dm.y, dm.x), abs=1e-12)


# -- projections -----------------------------------------------------------------


def test_project_point_onto_line_example():
    foot = project(Point(1, 1, 1), Line(0, 1, 0))
    assert (foot.x / foot.z, foot.y / foot.z) == pytest.approx((1.0, 0.0))
    rejection = reject(Point(1, 1, 1), Line(0, 1, 0))
    assert rejection.z == pytest.approx(0.0, abs=1e-12)  # ideal
    assert (rejection.x, rejection.y) == pytest.approx((0.0, 1.0))


def test_project_point_onto_line_matches_analytic_foot():
    r = gen.rng(39)
    for _ in range(500):
        p, m = n_point(r), n_line(r)
        foot, rejection = project(p, m), reject(p, m)
        expected = oracle.foot_of_perpendicular((p.x, p.y), as_tuple(m))
        assert (foot.x / foot.z, foot.y / foot.z) == pytest.approx(expected, abs=1e-9)
        assert (foot.mv() + rejection.mv()).approx_eq(p.mv(), 1e-9)
        # the foot keeps the input weight, so the rejection is the honest
        # free-vector difference p - foot with length |d(m, p)|
        assert foot.z == pytest.approx(1.0, abs=1e-12)
        assert abs(rejection.z) <= 1e-9
        rejection_len = math.hypot(rejection.x, rejection.y)
        assert rejection_len == pytest.approx(abs(distance(m, p)), abs=1e-9)


def test_project_incident_point_is_fixed():
    r = gen.rng(40)
    p = n_point(r)
    m = normalize(gen.random_line_through(r, p))
    assert project(p, m).mv().approx_eq(p.mv(), 1e-9)
    rejection = reject(p, m)  # None when exactly zero
    assert rejection is None or rejection.mv().max_abs() <= 1e-9


def test_project_line_onto_line():
    r = gen.rng(41)
    for _ in range(300):
        m, n = (normalize(x) for x in gen.random_intersecting_lines(r))
        parallel, rejection = project(m, n), reject(m, n)
        assert (parallel.mv() + rejection.mv()).approx_eq(m.mv(), 1e-12)
        alpha = angle(m, n)
        assert parallel.mv().approx_eq(n.mv().scaled(math.cos(alpha)), 1e-9)
        # rejection: a line through the meet, perpendicular to n
        meet = m.mv().outer(n.mv())
        assert abs(rejection.mv().outer(meet)[7]) <= 1e-9
        assert rejection.mv().dot(n.mv())[0] == pytest.approx(0.0, abs=1e-12)


def test_project_line_onto_line_parallel():
    r = gen.rng(42)
    for _ in range(200):
        m, n = (normalize(x) for x in gen.random_parallel_lines(r))
        rejection = reject(m, n)
        assert project(m, n).mv().approx_eq(n.mv(), 1e-12)
        assert rejection.mv().approx_eq(m.mv() - n.mv(), 1e-9)
        assert isinstance(rejection, Line)
        assert abs(rejection.a) <= 1e-12 and abs(rejection.b) <= 1e-12


def test_project_self_is_identity():
    m = normalize(Line(3, 4, 5))
    assert project(m, m).mv().approx_eq(m.mv(), 1e-12)
    assert reject(m, m) is None  # exactly zero


def test_project_line_onto_point():
    r = gen.rng(43)
    for _ in range(300):
        m, p = n_line(r), n_point(r)
        par, rejection = project(m, p), reject(m, p)
        assert (par.mv() + rejection.mv()).approx_eq(m.mv(), 1e-12)
        assert abs(par.mv().outer(p.mv())[7]) <= 1e-9  # through p
        dm, dp = ideal_point_of(m), ideal_point_of(par)
        assert (dp.x, dp.y) == pytest.approx((dm.x, dm.y), abs=1e-9)  # same direction
        # rejection is a multiple of the ideal line
        assert isinstance(rejection, Line)
        assert abs(rejection.a) <= 1e-12 and abs(rejection.b) <= 1e-12


def test_project_point_onto_point():
    r = gen.rng(44)
    for _ in range(300):
        p, q = n_point(r), n_point(r)
        parallel, rejection = project(p, q), reject(p, q)
        assert (parallel.mv() + rejection.mv()).approx_eq(p.mv(), 1e-12)
        assert parallel.mv().approx_eq(q.mv(), 1e-12)
        assert rejection.mv().approx_eq(p.mv() - q.mv(), 1e-12)


def test_project_parts_are_typed_and_exact_zeros_are_none():
    m, n = Line(1, 0, 2), Line(0, 1, -3)
    # perpendicular: project raises (see the next test), and the rejection
    # is all of m
    assert reject(m, n) == Line(1, 0, 2)
    p = Point(2, 3, 1)
    assert (project(p, p), reject(p, p)) == (p, None)
    assert (project(Point(4, 6, 2), m), reject(Point(4, 6, 2), m)) == (
        Point(-2, 3, 1), IdealPoint(4, 0)
    )
    assert (project(m, Point(-2, 5, 1)), reject(m, Point(-2, 5, 1))) == (Line(1, 0, 2), None)
    assert (project(m, p), reject(m, p)) == (Line(1, 0, -2), Line(0, 0, 4))
    assert reject(p, Point(0, 1, 1)) == IdealPoint(2, 2)


def test_project_of_a_line_onto_a_perpendicular_line_is_the_zero_element():
    for m, n in ((Line(1, 0, 0), Line(0, 1, 0)), (Line(1, 0, 2), Line(0, 1, -3))):
        with pytest.raises(DomainError, match="^zero element is not a line$"):
            project(m, n)


def test_reject_is_none_exactly_where_nothing_is_left():
    p, m = Point(2, 3, 1), Line(1, -1, 1)  # m passes through p
    assert reject(p, p) is None
    assert reject(p, m) is None
    assert reject(Point(4, 6, 2), m) is None  # the same point, of weight 2
    assert reject(Point(2, 4, 1), m) is not None


def test_project_does_not_fail_on_an_overflowing_rejection():
    # the meet of these lines overflows, so reject fails; project never
    # computes it
    m, n = Line(0.6, 0.8, 1.5e308), Line(0.8, 0.6, -1.5e308)
    assert project(m, n, 0.0) == Line(0.768, 0.576, -1.44e308)
    with pytest.raises(DomainError, match="^result is not finite"):
        reject(m, n, 0.0)


# finite fields whose length overflows: the length is checked as a product is
LENGTH_OVERFLOWS = [
    (distance, (Point(1.7e308, 1.7e308, 1), Point(0, 0, 1), 0.0)),
    (distance, (Line(1, 1, 1.7e308), Line(1, 1, -1.7e308), 0.0)),
    (norm, (Line(1.7e308, 1.7e308, 0),)),
    (ideal_norm, (Point(1.7e308, 1.7e308, 0),)),
]


@pytest.mark.parametrize(
    "f, args", LENGTH_OVERFLOWS, ids=["points", "lines", "norm", "ideal_norm"]
)
def test_a_length_that_overflows_is_a_domain_error(f, args):
    with pytest.raises(DomainError, match="^result is not finite"):
        f(*args)


def test_a_free_vector_projects_along_a_line_and_rejects_along_its_normal():
    """project and reject split the unit free vector u of an ideal point, of
    weight exactly 0 or inside the band, as the foot of the point (u.x, u.y)
    on the line [a, b, 0]: along m, and along m's normal; they sum to u,
    whose weight is 0."""
    r = gen.rng(139)
    eps = 2.220446049250313e-16
    for _ in range(2000):
        theta, k = r.uniform(0.0, 2.0 * math.pi), 10.0 ** r.uniform(-3.0, 3.0)
        v = Point(k * math.cos(theta), k * math.sin(theta), r.choice((0.0, 1e-12 * k)))
        m = Line(*r.uniform(-2.0, 2.0, size=2), r.uniform(-50.0, 50.0))
        p, q, u = project(v, m), reject(v, m), normalize(v)
        fx, fy = oracle.foot_of_perpendicular((u.x, u.y), (m.a, m.b, 0.0))
        assert repr((u.z, p.z, q.z)) == repr((0.0, 0.0, 0.0))
        for got, want in (
            (p.x, fx), (p.y, fy), (q.x, u.x - fx), (q.y, u.y - fy),
            (p.x + q.x, u.x), (p.y + q.y, u.y),
        ):
            assert abs(got - want) <= 4 * eps
        d = ideal_point_of(m)  # parallel to m's direction
        assert abs(p.x * d.y - p.y * d.x) <= 4 * eps * math.hypot(d.x, d.y)


def test_an_ideal_point_of_in_band_weight_projects_as_a_direction():
    # its normal form has weight 0, so the foot is parallel to the line and
    # nothing is left to reject
    v, m = Point(1, 0, 1e-12), Line(0, 1, -1e3)
    assert project(v, m) == Point(1, 0, 0)
    assert reject(v, m) is None


def test_project_rejects_ideal():
    # a free vector normal to the line has no part along it, and all of it is
    # rejected; an ideal target is refused
    with pytest.raises(DomainError, match="^zero element is not a point$"):
        project(Point(1, 0, 0), Line(1, 0, 0))
    assert reject(Point(1, 0, 0), Line(1, 0, 0)) == IdealPoint(1, 0)
    for op in (project, reject):
        with pytest.raises(ClassificationError):
            op(Line(1, 0, 0), Line(0, 0, 1))


@pytest.mark.parametrize(
    "op, x, y, message",
    [
        (distance, Point(0, 0, 1), e012, "no distance between Point and Multivector"),
        (angle, Line(1, 0, 0), e012, "no angle between Line and Multivector"),
        (angle, e012, IdealPoint(1, 0), "no angle between Multivector and Point"),
        (project, e012, Line(1, 0, 0), "cannot project Multivector onto Line"),
        (project, Point(0, 0, 1), e012, "cannot project Point onto Multivector"),
        (reject, e012, Line(1, 0, 0), "cannot project Multivector onto Line"),
        (reject, Point(0, 0, 1), e012, "cannot project Point onto Multivector"),
        (join, Line(1, 0, 0), Line(0, 1, 0), "no join of Line and Line"),
        (join, Point(0, 0, 1), Line(1, 0, 0), "no join of Point and Line"),
        (meet, Point(0, 0, 1), Point(1, 0, 1), "no meet of Point and Point"),
        (meet, Line(1, 0, 0), Point(0, 0, 1), "no meet of Line and Point"),
    ],
)
def test_measures_and_project_take_only_lines_and_points(op, x, y, message):
    with pytest.raises(OperandError, match=f"^{message}$"):
        op(x, y)


# -- three-point products ---------------------------------------------------------


def test_triple_points_identity():
    a = Point(0, 0, 1)
    b = Point(1, 0, 1)
    c = Point(0, 1, 1)
    result = triple_points(a, b, c)
    expected = -(a.mv() - b.mv() + c.mv())
    assert result.mv() == expected
    assert (result.x / result.z, result.y / result.z) == (-1.0, 1.0)


def test_triple_points_random():
    r = gen.rng(45)
    for _ in range(500):
        a, b, c = n_point(r), n_point(r), n_point(r)
        result = triple_points(a, b, c)
        expected = (a.mv() - b.mv() + c.mv()).scaled(-1.0)
        assert result.mv().approx_eq(expected, 1e-12)
        assert result.z == -1.0


def test_triple_points_collapses():
    a = Point(2, -1, 1)
    assert triple_points(a, a, a).mv() == -a.mv()


def test_five_point_product_is_alternating_sum():
    r = gen.rng(46)
    for _ in range(200):
        a, b, c = n_point(r), n_point(r), n_point(r)
        product = a.mv().gp(b.mv().gp(c.mv().gp(b.mv().gp(a.mv()))))
        expected = a.mv() - b.mv() + c.mv() - b.mv() + a.mv()
        assert product.approx_eq(expected, 1e-12)


# -- three-line products -----------------------------------------------------------


def test_triple_lines_parenthesizations_agree():
    r = gen.rng(47)
    for _ in range(300):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        left = a.mv().gp(b.mv()).gp(c.mv())
        right = a.mv().gp(b.mv().gp(c.mv()))
        assert left.approx_eq(right, 1e-12)


def test_triple_lines_grade1_is_symmetrized_half():
    r = gen.rng(48)
    for _ in range(300):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        abc = a.mv().gp(b.mv().gp(c.mv()))
        cba = c.mv().gp(b.mv().gp(a.mv()))
        assert abc.grade(1).approx_eq((abc + cba).scaled(0.5), 1e-12)
        got = triple_lines(a, b, c)[0]
        assert got.mv().grade(1).approx_eq(abc.grade(1), 1e-12)
        assert got.lam == pytest.approx(abc[7], abs=1e-12)
        # grades 0 and 2 of abc vanish, so the versor is the whole product
        assert got.mv().approx_eq(abc, 1e-12)


def test_triple_lines_cosine_identity():
    r = gen.rng(49)
    for _ in range(300):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        lhs = (c.mv().gp(a.mv().gp(b.mv())) + c.mv().gp(b.mv().gp(a.mv()))).scaled(0.5)
        gamma = angle(a, b)
        assert lhs.approx_eq(c.mv().scaled(math.cos(gamma)), 1e-9)


def test_triple_lines_sine_distance_identity():
    r = gen.rng(50)
    for _ in range(500):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        pseudo = triple_lines(a, b, c)[0].lam
        # two independent evaluations of the same grade-3 weight
        for first, second, third in ((a, b, c), (b, c, a)):
            meet = first.mv().outer(second.mv())
            sin_angle = meet[6]
            vertex = normalize(Point.from_mv(meet))
            dist = third.mv().outer(vertex.mv())[7]
            assert pseudo == pytest.approx(sin_angle * dist, abs=1e-9)


def test_triple_lines_equilateral_instance():
    s3 = math.sqrt(3.0)
    a = normalize(Line(0, 1, 0))
    b = normalize(Line(-s3 / 2, -0.5, s3 / 2))
    c = normalize(Line(s3 / 2, -0.5, s3 / 2))
    assert not triple_lines(a, b, c)[1]
    left = a.mv().gp(b.mv()).gp(c.mv())
    right = a.mv().gp(b.mv().gp(c.mv()))
    assert left.approx_eq(right, 1e-12)


def test_triple_lines_flags_degenerate():
    # concurrent: three lines through the origin
    s = 1 / math.sqrt(2)
    assert triple_lines(Line(1, 0, 0), Line(0, 1, 0), Line(s, s, 0))[1]
    # parallel pair
    assert triple_lines(Line(1, 0, 0), Line(1, 0, -1), Line(0, 1, 0))[1]


# -- symmetric line -----------------------------------------------------------------


def test_symmetric_line_purity():
    r = gen.rng(51)
    for _ in range(300):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        total = (
            a.mv().gp(b.mv().gp(c.mv()))
            + a.mv().gp(c.mv().gp(b.mv()))
            + b.mv().gp(a.mv().gp(c.mv()))
            + b.mv().gp(c.mv().gp(a.mv()))
            + c.mv().gp(a.mv().gp(b.mv()))
            + c.mv().gp(b.mv().gp(a.mv()))
        )
        for k in (0, 2, 3):
            assert total.grade(k).max_abs() <= 1e-12
        sym = symmetric_line(a, b, c)
        assert sym.mv().approx_eq(total.grade(1), 1e-12)


def test_symmetric_line_of_equal_lines():
    a = normalize(Line(3, 4, 5))
    sym = symmetric_line(a, a, a)
    assert sym.mv().approx_eq(a.mv().scaled(6.0), 1e-12)


def test_symmetric_line_permutation_invariant():
    r = gen.rng(52)
    a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
    reference = symmetric_line(a, b, c).mv()
    for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        assert symmetric_line(*perm).mv().approx_eq(reference, 1e-12)
