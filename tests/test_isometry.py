"""Reflections, motors, exponentials, glides and the transport solver."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracle
from pga2d.algebra import (
    exp_bivector,
    factor_motor,
    ideal_point_of,
    interpolate,
    log_motor,
    polar,
    triple_lines,
)
from pga2d.elements import IdealPoint, Line, Point, Pseudoscalar
from pga2d.errors import (
    ClassificationError, ConstructionError, DomainError, IncidenceError, OperandError,
)
from pga2d.geometry import angle, distance
from pga2d.isometry import (
    IDENTITY_MOTOR,
    Motor,
    OddVersor,
    reflect,
    rotator,
    rotor_from_lines,
    sandwich,
    solve_point_line_transport,
    translator,
    translator_by,
)
from pga2d.metric import normalize
from pga2d.kernel import Multivector, e1, e01, e012, e12, e20, one, zero
from pga2d.geometry import project


def euclid(p: Point) -> tuple[float, float]:
    return (p.x / p.z, p.y / p.z)


# -- reflections ---------------------------------------------------------------


def test_reflect_examples():
    image = reflect(Line(1, 0, 0), Point(1, 0, 1))
    assert image.mv() == -e12 + e20  # projectively (-1, 0)
    assert euclid(image) == (-1.0, 0.0)
    a = Line(0.6, 0.8, 1.0)
    assert reflect(a, a).mv().approx_eq(a.mv(), 1e-12)
    assert reflect(Line(0, 1, 0), Line(1, 0, 0)).mv() == -e1


def test_reflect_rejects_ideal_mirror():
    with pytest.raises(DomainError):
        reflect(Line(0, 0, 1), Point(1, 1, 1))


def test_reflection_is_involutive():
    r = gen.rng(60)
    for _ in range(200):
        a = normalize(gen.random_line(r))
        p = gen.random_point(r)
        twice = reflect(a, reflect(a, p))
        assert twice.mv().approx_eq(p.mv(), 1e-12)
        m = gen.random_line(r)
        twice_line = reflect(a, reflect(a, m))
        assert twice_line.mv().approx_eq(m.mv(), 1e-12)


def test_reflection_fixes_incident_points():
    r = gen.rng(61)
    for _ in range(100):
        p = normalize(gen.random_point(r))
        a = normalize(gen.random_line_through(r, p))
        image = reflect(a, p)
        assert gen.proj_match(image.mv(), p.mv(), 1e-9)


# -- rotors from mirrors ---------------------------------------------------------


def test_rotor_from_lines_examples():
    g = rotor_from_lines(Line(1, 0, 0), Line(0, 1, 0))
    assert g.mv() == -e12  # same sandwich as the half-turn about the origin
    assert euclid(sandwich(g, Point(1, 0, 1))) == pytest.approx((-1.0, 0.0))

    a = Line(0.6, 0.8, -0.3)
    assert rotor_from_lines(a, a).mv().approx_eq(one, 1e-12)

    g = rotor_from_lines(Line(1, 0, 0), Line(1, 0, -1))  # mirrors x=0 and x=1
    moved = sandwich(g, Point(0, 0, 1))
    assert moved.mv() == e12 + e20.scaled(2.0)  # origin carried to (2, 0)


def test_rotor_is_normalized():
    r = gen.rng(62)
    for _ in range(200):
        a, b = gen.random_line(r), gen.random_line(r)
        g = rotor_from_lines(a, b)
        assert g.mv().gp(g.mv().reverse()).approx_eq(one, 1e-12)


def test_rotation_angle_is_twice_mirror_angle():
    r = gen.rng(63)
    for _ in range(200):
        a, b = (normalize(x) for x in gen.random_intersecting_lines(r))
        alpha = oracle.signed_line_angle((a.a, a.b, a.c), (b.a, b.b, b.c))
        center = normalize(Point.from_mv(a.mv().outer(b.mv())))
        g = rotor_from_lines(a, b)
        p = gen.random_point(r)
        image = normalize(sandwich(g, p))
        expected = oracle.rotate_point(euclid(p), euclid(center), 2.0 * alpha)
        assert euclid(image) == pytest.approx(expected, abs=1e-9)


def test_parallel_mirrors_translate_twice_the_gap():
    r = gen.rng(64)
    for _ in range(200):
        a, b = (normalize(x) for x in gen.random_parallel_lines(r))
        gap = oracle.parallel_gap((a.a, a.b, a.c), (b.a, b.b, b.c))
        g = rotor_from_lines(a, b)
        p = gen.random_point(r)
        image = normalize(sandwich(g, p))
        # displacement is 2*gap along the shared normal (a.a, a.b)
        dx = image.x - p.x / p.z
        dy = image.y - p.y / p.z
        assert (dx, dy) == pytest.approx((-2.0 * gap * a.a, -2.0 * gap * a.b), abs=1e-9)


# -- sandwich ---------------------------------------------------------------------


def test_sandwich_examples():
    assert sandwich(Motor.from_mv(e12), Multivector((0, 0, 0, 0, 1, 0, 0, 0))) == -e20
    u = gen.random_multivector(gen.rng(65))
    assert sandwich(IDENTITY_MOTOR, u) == u


def test_sandwich_composes_through_gp():
    r = gen.rng(66)
    for _ in range(100):
        g, h = gen.random_motor(r), gen.random_motor(r)
        x = gen.random_multivector(r)
        composed = Motor.from_mv(g.mv().gp(h.mv()))
        assert sandwich(composed, x).approx_eq(sandwich(g, sandwich(h, x)), 1e-9)


def test_sandwich_preserves_blade_grade():
    r = gen.rng(67)
    for _ in range(100):
        g = gen.random_motor(r)
        ln = sandwich(g, gen.random_line(r))
        assert isinstance(ln, Line)
        pt = sandwich(g, gen.random_point(r))
        assert isinstance(pt, Point)


# -- exponential and logarithm -----------------------------------------------------


def test_exp_examples():
    g = exp_bivector(e12.scaled(math.pi / 2))
    assert g.mv().approx_eq(e12, 1e-12)
    assert euclid(sandwich(g, Point(1, 0, 1))) == pytest.approx((-1.0, 0.0))

    assert exp_bivector(zero).mv() == one

    g = exp_bivector(e01.scaled(0.5))
    assert euclid(sandwich(g, Point(0, 0, 1))) == pytest.approx((-1.0, 0.0))


def test_exp_rejects_impure_argument():
    with pytest.raises(DomainError):
        exp_bivector(one + e12)


def test_exp_matches_series():
    r = gen.rng(68)
    for _ in range(200):
        scale = r.uniform(0.05, math.pi)
        b = gen.random_point(r).mv().scaled(scale) if r.uniform() < 0.7 else (
            gen.random_ideal_point(r).mv().scaled(scale)
        )
        closed = exp_bivector(b).mv()
        series = oracle.exp_series(b, 24)
        assert closed.approx_eq(series, 1e-10)


def test_exp_series_truncates_on_ideal_bivectors():
    assert oracle.exp_series(e20, 24) == one + e20


def test_log_examples():
    assert log_motor(Motor.from_mv(e12)).approx_eq(e12.scaled(math.pi / 2), 1e-12)
    assert log_motor(IDENTITY_MOTOR) == zero
    assert log_motor(Motor.from_mv(one + e20)) == e20
    # g and -g act alike; the log negates a motor with negative scalar part first
    for g in (rotator(Point(1, 2, 1), 2.5), translator_by(1, 2)):
        assert log_motor(Motor(-g.s, -g.bx, -g.by, -g.bz)) == log_motor(g)


def test_exp_log_round_trip():
    r = gen.rng(69)
    for _ in range(300):
        if r.uniform() < 0.5:
            # rotation branch: sandwich rotation magnitude in (0, pi - 0.1)
            theta = r.uniform(1e-3, math.pi - 0.1)
            sign = 1.0 if r.uniform() < 0.5 else -1.0
            b = normalize(gen.random_point(r)).mv().scaled(sign * theta / 2.0)
        else:
            b = gen.random_ideal_point(r).mv()
        g = exp_bivector(b)
        assert log_motor(g).approx_eq(b, 1e-9)


def test_log_exp_round_trip_on_motors():
    r = gen.rng(70)
    for _ in range(300):
        g = gen.random_motor(r)
        again = exp_bivector(log_motor(g))
        same = again.mv().approx_eq(g.mv(), 1e-9)
        negated = again.mv().approx_eq(g.mv().scaled(-1.0), 1e-9)
        assert same or negated


def test_interpolate_examples():
    half = interpolate(Motor.from_mv(e12), 0.5)
    s = math.sqrt(2.0) / 2.0
    assert half.mv().approx_eq(one.scaled(s) + e12.scaled(s), 1e-12)
    g = gen.random_motor(gen.rng(71))
    assert interpolate(g, 0.0).mv().approx_eq(one, 1e-12)
    end = interpolate(g, 1.0).mv()
    assert end.approx_eq(g.mv(), 1e-9) or end.approx_eq(g.mv().scaled(-1.0), 1e-9)


def test_interpolate_translator_moves_proportionally():
    g = translator_by(2.0, 0.0)
    half = interpolate(g, 0.5)
    assert euclid(sandwich(half, Point(0, 0, 1))) == pytest.approx((1.0, 0.0))


# -- rotator / translator constructors ----------------------------------------------


def test_rotator_convention():
    # positive angle turns +x toward -y about a weight-positive center
    g = rotator(Point(0, 0, 1), math.pi / 2)
    assert euclid(sandwich(g, Point(1, 0, 1))) == pytest.approx((0.0, -1.0), abs=1e-12)
    # the sandwich realizes the full angle (half lives in the exponent)
    assert g.mv().approx_eq(exp_bivector(e12.scaled(math.pi / 4)).mv(), 1e-12)


def test_rotator_about_general_center():
    r = gen.rng(72)
    for _ in range(200):
        center = gen.random_point(r)
        theta = r.uniform(-3.0, 3.0)
        g = rotator(center, theta)
        p = gen.random_point(r)
        image = normalize(sandwich(g, p))
        expected = oracle.rotate_point(euclid(p), euclid(center), -theta)
        assert euclid(image) == pytest.approx(expected, abs=1e-9)
        fixed = normalize(sandwich(g, center))
        assert euclid(fixed) == pytest.approx(euclid(center), abs=1e-9)


def test_the_rotator_about_an_ideal_point_is_its_translator_exactly():
    """exp((d/2) V) of an ideal V, of weight exactly 0 or inside the band (at
    most tol times its largest coordinate): both read V's normal form, of
    weight 0, so the fields' reprs match, signed zeros included."""
    r = gen.rng(139)
    for i in range(20000):
        tol = r.choice((1e-9, 1e-6, 1e-3, 0.0))
        k = 10.0 ** r.uniform(-3.0, 3.0)
        x, y = k * r.uniform(-1.0, 1.0), k * r.uniform(-1.0, 1.0)
        z = 0.0 if i % 2 else tol * max(abs(x), abs(y)) * r.uniform(-1.0, 1.0)
        v, d = Point(x, y, z), r.uniform(-20.0, 20.0)
        assert v.is_ideal(tol)
        assert repr(rotator(v, d, tol)._key()) == repr(translator(v, d, tol)._key())


def test_translator_convention():
    # moves distance d perpendicular-CCW to the named direction
    g = translator(IdealPoint(0, 1), 1.0)
    assert euclid(sandwich(g, Point(0, 0, 1))) == pytest.approx((-1.0, 0.0))
    g = translator_by(3.0, -4.0)
    assert euclid(sandwich(g, Point(1, 1, 1))) == pytest.approx((4.0, -3.0))


def test_translator_takes_any_ideal_point_and_rejects_a_euclidean_one():
    expected = translator(IdealPoint(0, 1), 1.0)
    assert translator(Point(0, 2, 0), 1.0) == expected
    # a point within tol of the ideal line translates; its weight is dropped
    assert translator(Point(0, 2, 1e-12), 1.0) == expected
    # a euclidean point is a rotation centre, not a direction
    with pytest.raises(ClassificationError):
        translator(Point(1, 2, 1), 1.0)


def test_translator_open_faced_sandwich():
    # the translator's ideal bivector anticommutes with every bivector, so
    # the two one-sided products agree on points (euclidean or ideal)
    r = gen.rng(73)
    for _ in range(200):
        t = gen.random_translation_motor(r)
        x = gen.random_point(r).mv() if r.uniform() < 0.5 else gen.random_ideal_point(r).mv()
        assert t.mv().gp(x).approx_eq(x.gp(t.mv().reverse()), 1e-12)
        # the one-sided product realizes half the translation on points
        p = normalize(gen.random_point(r))
        half = t.mv().gp(p.mv()).grade(2)
        full = normalize(sandwich(t, p))
        mid = Point(0.5 * (p.x + full.x), 0.5 * (p.y + full.y), 1.0)
        assert gen.proj_match(half, mid.mv(), 1e-9)


# -- measurement preservation ---------------------------------------------------------


def _measurement_suite(points, lines, ideal_pts):
    p, q = points
    m, n = lines
    u, v = ideal_pts
    return (
        distance(p, q),
        angle(m, n),
        distance(m, p),
        angle(u, v),
        angle(m, u),
    )


def test_versor_sandwiches_preserve_measurements():
    r = gen.rng(74)
    for trial in range(200):
        odd = trial % 2 == 1
        if odd:
            versor = gen.random_odd_versor(r).normalized()
        else:
            versor = gen.random_motor(r)
        points = [normalize(gen.random_point(r)) for _ in range(2)]
        lines = [normalize(x) for x in gen.random_intersecting_lines(r)]
        ideals = [gen.random_ideal_point(r, unit=True) for _ in range(2)]
        before = _measurement_suite(points, lines, ideals)
        points2 = [normalize(sandwich(versor, p)) for p in points]
        lines2 = [normalize(sandwich(versor, m)) for m in lines]
        # an odd sandwich negates ideal points outright (the same weight flip
        # that gives reflected euclidean points weight -1); the coherent
        # free-vector image is therefore minus the raw sandwich
        flip = -1.0 if odd else 1.0
        ideals2 = [
            normalize(IdealPoint(*(flip * c for c in (sandwich(versor, u).x, sandwich(versor, u).y))))
            for u in ideals
        ]
        after = _measurement_suite(points2, lines2, ideals2)
        for i, (b, a) in enumerate(zip(before, after)):
            if odd and i == 2:
                # indirect isometries flip the sign of the signed line-point
                # distance; its magnitude is preserved
                assert abs(a) == pytest.approx(abs(b), abs=1e-9)
            else:
                assert a == pytest.approx(b, abs=1e-9)


# -- factorization ----------------------------------------------------------------------


def test_factor_motor_reproduces_rotor():
    r = gen.rng(75)
    for _ in range(300):
        g = gen.random_motor(r)
        p, q = factor_motor(g)
        assert abs(math.hypot(p.a, p.b) - 1.0) <= 1e-12
        assert abs(math.hypot(q.a, q.b) - 1.0) <= 1e-9
        again = rotor_from_lines(p, q).mv()
        assert again.approx_eq(g.mv(), 1e-9) or again.approx_eq(g.mv().scaled(-1.0), 1e-9)


def test_factor_motor_identity_and_halfturn():
    p, q = factor_motor(IDENTITY_MOTOR)
    assert rotor_from_lines(p, q).mv().approx_eq(one, 1e-12)
    p, q = factor_motor(Motor.from_mv(e12))
    assert rotor_from_lines(p, q).mv().approx_eq(e12, 1e-12)


def test_factor_motor_at_zero_tolerance():
    # g * p has an e012 part made only of rounding, which tol = 0 must not see
    r = gen.rng(76)
    for make in (gen.random_rotation_motor, gen.random_translation_motor):
        for _ in range(200):
            g = make(r)
            p, q = factor_motor(g, tol=0.0)
            again = rotor_from_lines(p, q, tol=0.0).mv()
            assert again.approx_eq(g.normalized(tol=0.0).mv(), 1e-12)


def test_a_null_motor_cannot_be_normalized():
    with pytest.raises(DomainError, match="is null and cannot be normalized"):
        Motor(0, 1, 2, 0).normalized()


def test_normalized_versors_of_subnormal_weight_have_unit_weight():
    g = Motor(5e-324, 0.0, 0.0, 5e-324).normalized()
    assert g.weight() == pytest.approx(1.0, abs=1e-15)
    v = OddVersor(5e-324, 5e-324, 0.0, 0.0).normalized()
    assert math.hypot(v.a, v.b) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "center, theta", [((3, 4), 1e-10), ((0.01, 0.02), 1e-10), ((0.01, 0.02), -1e-9)]
)
def test_factor_motor_keeps_a_tiny_rotation_a_rotation(center, theta):
    # the axis point's weight bz is below tol, yet the axis is euclidean
    g = rotator(Point(*center, 1), theta)
    h = rotor_from_lines(*factor_motor(g))
    origin = Point(0, 0, 1)
    moved = euclid(sandwich(g, origin))
    again = euclid(sandwich(h, origin))
    displacement = math.hypot(*moved)
    assert math.dist(moved, again) <= 1e-5 * displacement


# -- glide reflections --------------------------------------------------------------------


def test_glide_expansion_on_lines_term_by_term():
    r = gen.rng(76)
    for _ in range(200):
        m = normalize(gen.random_line(r))
        lam = r.uniform(-2.0, 2.0)
        x = normalize(gen.random_line(r))
        versor = OddVersor(m.a, m.b, m.c, lam)
        swept = sandwich(versor, x)
        mirror_part = reflect(m, x).mv()
        # correction term 2*lam*cos(alpha)*e0 where alpha is the angle
        # between x's direction and m's normal (= the polar of m)
        correction = x.mv().dot(polar(m)).scaled(2.0 * lam)
        assert (correction - correction.grade(1)).max_abs() <= 1e-12
        assert swept.mv().approx_eq(mirror_part + correction, 1e-9)
        cos_alpha = ideal_point_of(x).x * polar(m)[4] + ideal_point_of(x).y * polar(m)[5]
        assert correction[1] == pytest.approx(2.0 * lam * cos_alpha, abs=1e-9)


def test_glide_expansion_on_points():
    r = gen.rng(77)
    for _ in range(200):
        m = normalize(gen.random_line(r))
        lam = r.uniform(-2.0, 2.0)
        p = normalize(gen.random_point(r))
        versor = OddVersor(m.a, m.b, m.c, lam)
        swept = sandwich(versor, p)
        expected = reflect(m, p).mv() + ideal_point_of(m).mv().scaled(2.0 * lam)
        assert swept.mv().approx_eq(expected, 1e-9)


def test_glide_decompose_pure_reflection():
    got = OddVersor(1, 0, 0, 0.0).normalized()
    assert Line(got.a, got.b, got.c) == Line(1, 0, 0)
    assert 2.0 * got.lam == 0.0


def test_glide_decompose_example():
    got = OddVersor(1, 0, 0, 0.5).normalized()
    axis = Line(got.a, got.b, got.c)
    assert axis == Line(1, 0, 0)
    d = 2.0 * got.lam
    assert d == pytest.approx(1.0)
    # nominal translation vector: the distance times the axis direction (0, -1)
    direction = ideal_point_of(axis)
    vec = (d * direction.x, d * direction.y)
    assert vec == pytest.approx((0.0, -1.0))
    # the realized displacement of points runs opposite the nominal vector
    image = normalize(sandwich(OddVersor(1, 0, 0, 0.5), Point(0, 0, 1)))
    assert euclid(image) == pytest.approx((0.0, 1.0))


def test_glide_recomposition_and_pointwise_equivalence():
    r = gen.rng(78)
    for _ in range(200):
        v = gen.random_odd_versor(r)
        got = v.normalized()
        axis, d = Line(got.a, got.b, got.c), 2.0 * got.lam
        recomposed = OddVersor(got.a, got.b, got.c, d / 2.0)
        # recomposition reproduces the versor up to the positive line norm
        assert gen.proj_match(recomposed.mv(), v.mv(), 1e-12, positive=True)
        # and as an operator: reflect in the axis composed with the translator
        # exp((d/2) * polar(axis)) acts identically, pointwise
        t = exp_bivector(polar(axis).scaled(d / 2.0))
        composed = axis.mv().gp(t.mv())
        p = gen.random_point(r)
        assert gen.proj_match(
            sandwich(v.normalized(), p).mv(),
            composed.gp(p.mv().gp(composed.reverse())),
            1e-9,
        )


@pytest.mark.parametrize("line", [Point(1, 2, 1), IdealPoint(1, 0), "x", (1.0, 0.0, 0.0)])
def test_an_odd_versor_line_part_must_be_a_line(line):
    # the line part is the three numbers a, b, c, read at construction, before
    # sandwich or .mv() reads them: an element or a string in their place fails
    with pytest.raises((TypeError, ValueError)):
        OddVersor(line, 0.0, 1.0, 0.0)


def test_an_odd_versor_line_part_is_not_zero():
    # a pseudoscalar alone is no odd versor, whether built or read from a multivector
    for make in (lambda: OddVersor(0, 0, 0, 1), lambda: OddVersor.from_mv(e012)):
        with pytest.raises(DomainError, match="^zero element is not a line$"):
            make()


@pytest.mark.parametrize("operand", [1.0, (1, 2, 3), "x"])
def test_sandwich_rejects_an_operand_that_is_not_an_element(operand):
    for versor in (IDENTITY_MOTOR, OddVersor(1, 0, 0, 0.0)):
        with pytest.raises(
            OperandError, match=f"^cannot apply a versor to {type(operand).__name__}$"
        ):
            sandwich(versor, operand)


@pytest.mark.parametrize("versor", [Line(1, 0, 0), e12, "x"], ids=["Line", "Multivector", "str"])
def test_sandwich_rejects_a_versor_that_is_not_a_motor_or_odd_versor(versor):
    with pytest.raises(OperandError, match=f"^cannot use {type(versor).__name__} as a versor$"):
        sandwich(versor, Point(0, 0, 1))


@pytest.mark.parametrize(
    "versor, x, message",
    [
        (Motor(0, 1, 0, 0), Point(1, 2, 1), "Motor(0, 1, 0, 0) maps Point(1, 2, 1) to zero"),
        (
            OddVersor(0, 0, -2.5, 0), Line(1, 0, -1),
            "OddVersor(0, 0, -2.5, 0) maps Line[1, 0, -1] to zero",
        ),
        # every product underflows, so the image is zero too
        (
            Motor(1e-200, 1, 0, 0), Line(1, 0, -1),
            "Motor(1e-200, 1, 0, 0) maps Line[1, 0, -1] to zero",
        ),
        # an image that overflows keeps the overflow text
        (
            Motor(1e200, 0, 0, 1e200), Point(1e200, 1, 1),
            "result is not finite (coefficient overflow or non-finite factor)",
        ),
    ],
    ids=["motor-point", "odd-line", "underflow", "overflow"],
)
def test_a_null_versor_that_maps_an_element_to_zero_is_named(versor, x, message):
    with pytest.raises(DomainError) as info:
        sandwich(versor, x)
    assert str(info.value) == message


def test_isometries_keep_the_pseudoscalar():
    # a pseudoscalar has no typed sandwich: its .mv() is multiplied out
    for versor in (
        rotator(Point(1, 2, 1), 0.7),
        translator(IdealPoint(1, 0), 3.0),
        OddVersor(3, 4, -1, 0.0).normalized(),
    ):
        assert sandwich(versor, Pseudoscalar(2.0)).approx_eq(e012.scaled(2.0), 1e-12)


def test_glide_decompose_rejects_ideal_axis():
    with pytest.raises(DomainError):
        OddVersor(0, 0, 1, 1.0).normalized()


def test_glide_decompose_and_normalized_agree_on_an_ideal_line_part():
    # the line part's norm 1 is near zero against the pseudoscalar part
    v = OddVersor(1, 0, 0, 2e9)
    with pytest.raises(DomainError):
        v.normalized()


def test_triangle_product_axis_joins_altitude_feet():
    r = gen.rng(79)
    for _ in range(100):
        a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
        product = a.mv().gp(b.mv().gp(c.mv()))
        axis = OddVersor.from_mv(product).normalized().mv().grade(1)
        # the same axis from the closed form
        typed = triple_lines(a, b, c)[0].normalized().mv().grade(1)
        # feet of the altitudes from the vertices opposite a and c
        vertex_a = normalize(Point.from_mv(b.mv().outer(c.mv())))
        vertex_c = normalize(Point.from_mv(a.mv().outer(b.mv())))
        foot_a = project(vertex_a, a)
        foot_c = project(vertex_c, c)
        joining = foot_a.mv().join(foot_c.mv())
        assert gen.proj_match(axis, joining, 1e-7)
        assert gen.proj_match(typed, joining, 1e-7)


# -- transport solver -------------------------------------------------------------------


def _check_transport(g, a, m, a2, m2, tol=1e-9):
    img_p = normalize(sandwich(g, a))
    assert euclid(img_p) == pytest.approx(euclid(normalize(a2)), abs=tol)
    img_m = normalize(sandwich(g, m))
    m2n = normalize(m2)
    assert (img_m.a, img_m.b, img_m.c) == pytest.approx((m2n.a, m2n.b, m2n.c), abs=tol)


def test_solve_quarter_turn():
    a, m = Point(1, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(0, 1, 1), Line(-1, 0, 0)
    g = solve_point_line_transport(a, m, a2, m2)
    s = math.sqrt(2.0) / 2.0
    assert g.mv().approx_eq(one.scaled(s) - e12.scaled(s), 1e-12)
    _check_transport(g, a, m, a2, m2)


def test_solve_orientation_constrained_variant():
    # same points, but the target keeps the written orientation of x = 0:
    # the transport exists and is a rotation about (1, 1) instead
    a, m = Point(1, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(0, 1, 1), Line(1, 0, 0)
    g = solve_point_line_transport(a, m, a2, m2)
    _check_transport(g, a, m, a2, m2)
    center = normalize(Point(g.bx / g.bz, g.by / g.bz, 1.0))
    assert euclid(center) == pytest.approx((1.0, 1.0), abs=1e-9)


def test_solve_translation_along_shared_line():
    a, m = Point(0, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(1, 0, 1), Line(0, 1, 0)
    g = solve_point_line_transport(a, m, a2, m2)
    assert g.mv().approx_eq(one - e01.scaled(0.5), 1e-12)
    _check_transport(g, a, m, a2, m2)


def test_solve_translation_between_parallel_lines():
    # exercises the ideal-intersection branch of the main construction
    a, m = Point(0, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(1, 1, 1), Line(0, 1, -1)
    g = solve_point_line_transport(a, m, a2, m2)
    assert g.mv().approx_eq(one + e20.scaled(0.5) - e01.scaled(0.5), 1e-12)
    _check_transport(g, a, m, a2, m2)


def test_solve_identity():
    a, m = Point(2, 1, 1), Line(0, 1, -1)
    g = solve_point_line_transport(a, m, a, m)
    assert g.mv() == one


def test_solve_rotation_about_fixed_point():
    # coincident points: rotation about them through the line pair's angle
    a = Point(1, 1, 1)
    m = Line(0, 1, -1)  # y = 1 through a
    m2 = normalize(Line(1, -1, 0))  # y = x through a
    g = solve_point_line_transport(a, m, a, m2)
    _check_transport(g, a, m, a, m2)


def test_solve_half_turn_about_fixed_point():
    a = Point(0, 0, 1)
    m = Line(0, 1, 0)
    m2 = Line(0, -1, 0)
    g = solve_point_line_transport(a, m, a, m2)
    _check_transport(g, a, m, a, m2)


def test_solve_perpendicular_bisector_degeneracy():
    # half-turn whose perpendicular bisector coincides with the line bisector
    a, m = Point(0, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(0, 2, 1), Line(0, -1, 2)
    g = solve_point_line_transport(a, m, a2, m2)
    _check_transport(g, a, m, a2, m2)
    center = normalize(Point(g.bx / g.bz, g.by / g.bz, 1.0))
    assert euclid(center) == pytest.approx((0.0, 1.0), abs=1e-9)


def test_solve_rejects_non_incident():
    with pytest.raises(IncidenceError):
        solve_point_line_transport(
            Point(0, 1, 1), Line(0, 1, 0), Point(1, 0, 1), Line(1, 0, 0)
        )


# each point lies within the check's 1e-9 of the figure's size 5 of its line,
# but m carried to B lies 8e-9 from n
_OFF_BY_8E9 = (Point(0, 0, 1), Line(0, 1, 4e-9), Point(5, 0, 1), Line(0, 1, -4e-9))


@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_solve_rejects_a_motor_that_misses_the_target_line(tol):
    with pytest.raises(ConstructionError, match="^no direct isometry transports the given pairs$"):
        solve_point_line_transport(*_OFF_BY_8E9, tol)


def test_solve_accepts_the_miss_at_a_looser_tol_and_the_matching_pair():
    a, m, a2, _ = _OFF_BY_8E9
    assert solve_point_line_transport(a, m, a2, _OFF_BY_8E9[3], 1e-6) == translator_by(5, 0)
    assert solve_point_line_transport(a, m, a2, m) == translator_by(5, 0)


def test_solve_tiny_rotation_angles():
    r = gen.rng(81)
    for exponent in (-5, -6, -7, -8):
        theta = 10.0 ** exponent
        center = gen.random_point(r)
        g_true = rotator(center, theta)
        a = normalize(gen.random_point(r))
        m = normalize(gen.random_line_through(r, a))
        a2 = normalize(sandwich(g_true, a))
        m2 = normalize(sandwich(g_true, m))
        g = solve_point_line_transport(a, m, a2, m2)
        _check_transport(g, a, m, a2, m2)


def test_solve_near_half_turn():
    r = gen.rng(82)
    for _ in range(50):
        center = gen.random_point(r)
        g_true = rotator(center, math.pi - 10.0 ** r.uniform(-8, -2))
        a = normalize(gen.random_point(r))
        m = normalize(gen.random_line_through(r, a))
        a2 = normalize(sandwich(g_true, a))
        m2 = normalize(sandwich(g_true, m))
        g = solve_point_line_transport(a, m, a2, m2)
        _check_transport(g, a, m, a2, m2)


def test_solve_large_coordinates():
    a, m = Point(1e6, 0, 1), Line(0, 1, 0)
    a2, m2 = Point(0, 1e6, 1), Line(-1, 0, 0)
    g = solve_point_line_transport(a, m, a2, m2)
    img = normalize(sandwich(g, a))
    assert euclid(img) == pytest.approx((0.0, 1e6), rel=1e-9)


def test_solve_random_instances():
    r = gen.rng(80)
    for _ in range(300):
        g_true = gen.random_motor(r)
        a = normalize(gen.random_point(r))
        m = normalize(gen.random_line_through(r, a))
        a2 = normalize(sandwich(g_true, a))
        m2 = normalize(sandwich(g_true, m))
        g = solve_point_line_transport(a, m, a2, m2)
        _check_transport(g, a, m, a2, m2)


def test_solve_tiny_turn_on_a_small_figure():
    # a figure of size 1e-2 turned by about 1.1e-7 rad is a valid transport
    a = Point(-0.004555133768986475, 0.006820232028580861, 1)
    m = Line(0.34982891440251884, -0.9368136050719775, 0.007982803655484996)
    a2 = Point(-0.004555132938421336, 0.0068202330058551785, 1)
    m2 = Line(0.3498288112587642, -0.93681364358835, 0.007982804073310293)
    g = solve_point_line_transport(a, m, a2, m2)
    _check_transport(g, a, m, a2, m2)


def _known_motor(kind, size, a, direction, center, turn, tiny):
    if kind == "turn":
        return rotator(center, turn)
    if kind == "tiny turn":
        return rotator(center, tiny)
    if kind == "near half turn":
        return rotator(center, math.copysign(math.pi - abs(tiny), tiny))
    if kind == "half turn":
        return Motor(0.0, center.x, center.y, 1.0)
    if kind == "slide":
        return translator_by(size * turn * direction[0], size * turn * direction[1])
    if kind == "shift":
        return translator_by(center.x - a.x, center.y - a.y)
    if kind == "turn in place":
        return rotator(a, turn)
    return IDENTITY_MOTOR


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(
        ("turn", "tiny turn", "near half turn", "half turn", "slide", "shift",
         "turn in place", "identity")
    ),
    log_size=st.floats(-2.0, 5.0),
    coords=st.tuples(*[st.floats(-1.0, 1.0)] * 4),
    phi=st.floats(0.0, 2.0 * math.pi),
    turn=st.floats(-math.pi, math.pi),
    log_tiny=st.floats(-9.0, -3.0),
)
def test_solve_recovers_a_known_motor(kind, log_size, coords, phi, turn, log_tiny):
    size = 10.0 ** log_size
    a = Point(size * coords[0], size * coords[1], 1.0)
    center = Point(size * coords[2], size * coords[3], 1.0)
    direction = (math.cos(phi), math.sin(phi))
    m = Line(-direction[1], direction[0], direction[1] * a.x - direction[0] * a.y)
    tiny = math.copysign(10.0 ** log_tiny, turn)
    g_true = _known_motor(kind, size, a, direction, center, turn, tiny)
    a2 = normalize(sandwich(g_true, a))
    m2 = normalize(sandwich(g_true, m))
    g = solve_point_line_transport(a, m, a2, m2)
    img_p = normalize(sandwich(g, a))
    assert abs(img_p.x - a2.x) <= 1e-9 * max(1.0, abs(a2.x))
    assert abs(img_p.y - a2.y) <= 1e-9 * max(1.0, abs(a2.y))
    img_m = normalize(sandwich(g, m))
    assert abs(img_m.a - m2.a) <= 1e-9
    assert abs(img_m.b - m2.b) <= 1e-9
    assert abs(img_m.c - m2.c) <= 1e-9 * max(1.0, abs(m2.c))
    assert g.s >= 0.0
