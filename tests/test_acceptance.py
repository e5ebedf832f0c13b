"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here and must not be loosened.
"""

import math
import time

import gen
import oracle
from pga2d.algebra import (
    exp_bivector,
    factor_point,
    ideal_point_of,
    log_motor,
    polar,
    reject,
    symmetric_line,
    triple_points,
)
from pga2d.elements import IdealPoint, Point
from pga2d.geometry import angle, distance, project
from pga2d.isometry import OddVersor, reflect, sandwich, solve_point_line_transport
from pga2d.metric import normalize
from pga2d.kernel import cayley_table, e0, e012, from_scalar
from pga2d.render import build_svg
from pga2d.script import evaluate, parse

from test_multivector import _parse_reference, _DISPLAY_ORDER
from test_script import SCRIPTS


def report(number: int, label: str):
    """Context manager printing one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {number:2d} {status}  {label}")
            return False

    return _Reporter()


def test_criterion_1_cayley_fidelity():
    with report(1, "kernel table == reference table == oracle table, exact"):
        start = time.perf_counter()
        kernel = cayley_table()
        regenerated = oracle.generate_cayley()
        assert kernel == regenerated
        reference = _parse_reference()
        from pga2d.kernel import blades

        for row in _DISPLAY_ORDER:
            for col in _DISPLAY_ORDER:
                sign, name = reference[(row, col)]
                product = blades[row].gp(blades[col])
                assert product == blades[name].scaled(float(sign))
                assert all(c == int(c) for c in product.coeffs)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_associativity_fuzz():
    with report(2, "1000 random triples: |(uv)w - u(vw)| <= 1e-12"):
        r = gen.rng(100)
        worst = 0.0
        for _ in range(1000):
            u = gen.random_multivector(r)
            v = gen.random_multivector(r)
            w = gen.random_multivector(r)
            deviation = (u.gp(v).gp(w) - u.gp(v.gp(w))).max_abs()
            worst = max(worst, deviation)
        assert worst <= 1e-12


def test_criterion_3_two_way_product_laws():
    with report(3, "two-way product laws on 500 normalized instances each"):
        r = gen.rng(101)
        for _ in range(500):
            m, n = (normalize(x) for x in gen.random_intersecting_lines(r))
            alpha = oracle.signed_line_angle((m.a, m.b, m.c), (n.a, n.b, n.c))
            meet = m.mv().outer(n.mv())
            center = meet.scaled(1.0 / meet[6])
            expected = from_scalar(math.cos(alpha)) + center.scaled(math.sin(alpha))
            assert m.mv().gp(n.mv()).approx_eq(expected, 1e-9)
        for _ in range(500):
            m, n = (normalize(x) for x in gen.random_parallel_lines(r))
            gap = oracle.parallel_gap((m.a, m.b, m.c), (n.a, n.b, n.c))
            expected = from_scalar(1.0) + ideal_point_of(m).mv().scaled(gap)
            assert m.mv().gp(n.mv()).approx_eq(expected, 1e-9)
        for _ in range(500):
            p, q = normalize(gen.random_point(r)), normalize(gen.random_point(r))
            product = p.mv().gp(q.mv())
            expected = from_scalar(-1.0) - p.mv().join(q.mv()).gp(e012)
            assert product.approx_eq(expected, 1e-9)
        for _ in range(500):
            m, p = normalize(gen.random_line(r)), normalize(gen.random_point(r))
            product = m.mv().gp(p.mv())
            d = oracle.signed_point_line_distance((p.x, p.y), (m.a, m.b, m.c))
            assert abs(product[7] - d) <= 1e-9
            perp = product.grade(1)
            assert abs(perp.outer(p.mv())[7]) <= 1e-9  # passes through p
            assert abs(perp.dot(m.mv())[0]) <= 1e-9  # perpendicular
            assert abs(math.hypot(perp[2], perp[3]) - 1.0) <= 1e-9  # same norm
            assert product.approx_eq(perp + e012.scaled(d), 1e-9)


def test_criterion_4_three_way_identities():
    with report(4, "three-point and three-line identities on 500 triangles"):
        r = gen.rng(102)
        for _ in range(500):
            a = normalize(gen.random_point(r))
            b = normalize(gen.random_point(r))
            c = normalize(gen.random_point(r))
            got = triple_points(a, b, c).mv()
            assert got.approx_eq((a.mv() - b.mv() + c.mv()).scaled(-1.0), 1e-12)
        for _ in range(500):
            a, b, c = (normalize(x) for x in gen.random_triangle_lines(r))
            left = a.mv().gp(b.mv()).gp(c.mv())
            right = a.mv().gp(b.mv().gp(c.mv()))
            assert left.approx_eq(right, 1e-12)
            pseudo = right[7]
            for first, second, third in ((a, b, c), (b, c, a)):
                meet = first.mv().outer(second.mv())
                vertex = normalize(Point.from_mv(meet))
                product = meet[6] * third.mv().outer(vertex.mv())[7]
                assert abs(pseudo - product) <= 1e-9
            sym = symmetric_line(a, b, c)  # a closed form; the kernel's sum below is its check
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
            assert sym.mv().approx_eq(total.grade(1), 1e-12)


def test_criterion_5_measurements_vs_analytic():
    with report(5, "all six measurement kinds == classical formulas, 1e-9"):
        r = gen.rng(103)
        for _ in range(1000):
            p, q = gen.random_point(r), gen.random_point(r)
            assert abs(
                distance(p, q) - oracle.point_distance((p.x, p.y), (q.x, q.y))
            ) <= 1e-9

            m, n = gen.random_intersecting_lines(r)
            expected = abs(oracle.signed_line_angle((m.a, m.b, m.c), (n.a, n.b, n.c)))
            assert abs(angle(m, n) - expected) <= 1e-9

            m, n = gen.random_parallel_lines(r)
            expected = abs(oracle.parallel_gap((m.a, m.b, m.c), (n.a, n.b, n.c)))
            assert abs(distance(m, n) - expected) <= 1e-9

            u, v = gen.random_ideal_point(r), gen.random_ideal_point(r)
            expected = oracle.vector_angle((u.x, u.y), (v.x, v.y))
            assert abs(angle(u, v) - expected) <= 1e-9

            m, p = normalize(gen.random_line(r)), gen.random_point(r)
            expected = oracle.signed_point_line_distance((p.x, p.y), (m.a, m.b, m.c))
            assert abs(distance(m, p) - expected) <= 1e-9
            assert abs(distance(p, m) + expected) <= 1e-9

            u = gen.random_ideal_point(r)
            expected = oracle.vector_angle(oracle.line_direction((m.a, m.b, m.c)), (u.x, u.y))
            assert abs(angle(m, u) - expected) <= 1e-9


def _measure_all(points, lines, ideals):
    return (
        distance(points[0], points[1]),
        angle(lines[0], lines[1]),
        distance(lines[0], points[0]),
        angle(ideals[0], ideals[1]),
        angle(lines[0], ideals[0]),
    )


def test_criterion_6_isometry_suite():
    with report(6, "isometry suite: preservation, exp/log, series, glide"):
        r = gen.rng(104)
        # sandwiches preserve measurements
        for trial in range(200):
            odd = trial % 2 == 1
            versor = gen.random_odd_versor(r).normalized() if odd else gen.random_motor(r)
            points = [normalize(gen.random_point(r)) for _ in range(2)]
            lines = [normalize(x) for x in gen.random_intersecting_lines(r)]
            ideals = [gen.random_ideal_point(r, unit=True) for _ in range(2)]
            before = _measure_all(points, lines, ideals)
            flip = -1.0 if odd else 1.0
            points2 = [normalize(sandwich(versor, p)) for p in points]
            lines2 = [normalize(sandwich(versor, m)) for m in lines]
            ideals2 = []
            for u in ideals:
                img = sandwich(versor, u)
                ideals2.append(normalize(IdealPoint(flip * img.x, flip * img.y)))
            after = _measure_all(points2, lines2, ideals2)
            for i, (b, a) in enumerate(zip(before, after)):
                if odd and i == 2:
                    assert abs(abs(a) - abs(b)) <= 1e-9
                else:
                    assert abs(a - b) <= 1e-9
        # exp/log round trip over rotation magnitudes (0, pi - 0.1) and translators
        for _ in range(300):
            if r.uniform() < 0.5:
                theta = r.uniform(1e-4, math.pi - 0.1)
                sign = 1.0 if r.uniform() < 0.5 else -1.0
                b = normalize(gen.random_point(r)).mv().scaled(sign * theta / 2.0)
            else:
                b = gen.random_ideal_point(r).mv()
            assert log_motor(exp_bivector(b)).approx_eq(b, 1e-9)
        # closed form vs 24-term series
        for _ in range(200):
            scale = r.uniform(0.05, math.pi)
            b = (
                gen.random_point(r).mv().scaled(scale)
                if r.uniform() < 0.7
                else gen.random_ideal_point(r).mv().scaled(scale)
            )
            assert exp_bivector(b).mv().approx_eq(oracle.exp_series(b, 24), 1e-10)
        # glide expansion, term by term
        for _ in range(200):
            m = normalize(gen.random_line(r))
            lam = r.uniform(-2.0, 2.0)
            x = normalize(gen.random_line(r))
            swept = sandwich(OddVersor(m.a, m.b, m.c, lam), x).mv()
            correction = x.mv().dot(polar(m)).scaled(2.0 * lam)
            assert swept.approx_eq(reflect(m, x).mv() + correction, 1e-9)
            cos_alpha = (
                ideal_point_of(x).x * polar(m)[4] + ideal_point_of(x).y * polar(m)[5]
            )
            assert correction.approx_eq(e0.scaled(2.0 * lam * cos_alpha), 1e-9)


def test_criterion_7_projections():
    with report(7, "projections reconstruct inputs; foot matches analytic"):
        r = gen.rng(105)
        for _ in range(500):
            p = normalize(gen.random_point(r))
            q = normalize(gen.random_point(r))
            m = normalize(gen.random_line(r))
            n = normalize(gen.random_line(r))
            foot = project(p, m)
            assert (foot.mv() + reject(p, m).mv()).approx_eq(p.mv(), 1e-9)
            expected = oracle.foot_of_perpendicular((p.x, p.y), (m.a, m.b, m.c))
            assert abs(foot.x / foot.z - expected[0]) <= 1e-9
            assert abs(foot.y / foot.z - expected[1]) <= 1e-9
            for x, y in ((m, n), (m, p), (p, q)):
                assert (project(x, y).mv() + reject(x, y).mv()).approx_eq(x.mv(), 1e-9)


def test_criterion_8_transport_solver():
    with report(8, "500 random transports solved to 1e-9, under budget"):
        r = gen.rng(106)
        start = time.perf_counter()
        for i in range(500):
            g_true = gen.random_motor(r)
            a = normalize(gen.random_point(r))
            m = normalize(gen.random_line_through(r, a))
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
        assert time.perf_counter() - start < 30.0


def test_criterion_9_degenerate_metric_structure():
    with report(9, "ideal-bivector identities exact; point factorization 1e-12"):
        r = gen.rng(107)
        for _ in range(500):
            p = gen.random_point(r).mv()
            u = gen.random_ideal_point(r).mv()
            assert p.gp(u)[0] == 0.0  # exact
        for _ in range(500):
            p = gen.random_point(r).mv()
            q = gen.random_point(r).mv()
            p = p.scaled(1.0 / abs(p[6]))
            q = q.scaled(1.0 / abs(q[6]))
            wp, wq = e0.outer(p), e0.outer(q)
            assert wp == wq or wp == -wq  # exact
        for _ in range(500):
            p = normalize(gen.random_point(r))
            if r.uniform() < 0.5:
                p = Point(-p.x, -p.y, -p.z)
            m, n = factor_point(p)
            assert m.mv().gp(n.mv()).approx_eq(p.mv(), 1e-12)


def test_criterion_10_cli_golden_runs():
    with report(10, "golden scripts byte-identical (text and SVG) across runs"):
        for name in ("rotation_case", "translation_case", "dist345"):
            program = parse((SCRIPTS / f"{name}.pga").read_text())
            env1, text1 = evaluate(program)
            env2, text2 = evaluate(program)
            assert text1 == text2
            assert text1 == (SCRIPTS / f"{name}.expected.txt").read_text()
            assert build_svg(env1) == build_svg(env2)
        env, _ = evaluate(parse((SCRIPTS / "dist345.pga").read_text()))
        assert build_svg(env) == (SCRIPTS / "dist345.expected.svg").read_text()
