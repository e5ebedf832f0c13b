"""The unrolled kernel against a loop over the oracle's product table, and
the typed closed forms against the kernel products they replace.

The reference product walks the (sign, index) entries of
oracle.generate_cayley() row by row, skipping zero coefficients, and adds
each term into its output slot.  The kernel's unrolled products add their
terms in the same order, so the two agree exactly (==, not within a
tolerance), up to the sign of zero.  A typed form that keeps the kernel's
terms and drops only its zero ones agrees with it exactly too; the sandwich,
whose coefficients multiply the versor by itself first, agrees within a few
ulps of the operands' scale, and so does the foot of a perpendicular.  So
does symmetric_line, which sums fewer terms than the kernel; where the two
differ, the same table loop over Fractions gives the exact value of the
kernel's products on the same floats, and referees.

Only the algebra API (Multivector in or out, .mv() and from_mv) may use the
kernel; a lint below checks that of geometry, metric and isometry.
"""

import ast
import functools
import importlib
import itertools
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gen
import oracle
from pga2d.algebra import (
    exp_bivector,
    factor_motor,
    factor_point,
    interpolate,
    log_motor,
    perp_line_through,
    reject,
    symmetric_line,
    triple_lines,
    triple_points,
)
from pga2d.elements import IdealPoint, Line, Point, cross
from pga2d.errors import DomainError
from pga2d.geometry import angle, distance, join, meet, midline, project
from pga2d.isometry import (
    IDENTITY_MOTOR,
    Motor,
    OddVersor,
    reflect,
    rotor_from_lines,
    sandwich,
    solve_point_line_transport,
    translator_by,
)
from pga2d.metric import normalize
from pga2d.kernel import Multivector, blades, e1, one

CAYLEY = oracle.generate_cayley()
GRADES = tuple(len(blade) for blade in oracle.BLADES)


def _filtered(keep):
    return tuple(
        tuple(
            (s, k) if s and keep(GRADES[i], GRADES[j], GRADES[k]) else (0, 0)
            for j, (s, k) in enumerate(row)
        )
        for i, row in enumerate(CAYLEY)
    )


# outer keeps the grade k+m part of each blade product, dot the |k-m| part
OUTER = _filtered(lambda gi, gj, gk: gk == gi + gj)
DOT = _filtered(lambda gi, gj, gk: gk == abs(gi - gj))
DUAL = oracle.derive_dual_signs()


def tabled_product(u, v, table, zero=0.0):
    out = [zero] * 8
    for i, ui in enumerate(u):
        if ui == 0.0:
            continue
        row = table[i]
        for j, vj in enumerate(v):
            if vj == 0.0:
                continue
            s, k = row[j]
            if s:
                out[k] += s * ui * vj
    return tuple(out)


def ref_dual(u):
    out = [0.0] * 8
    for i, c in enumerate(u):
        s, k = DUAL[i]
        out[k] = s * c
    return tuple(out)


def ref_reverse(u):
    # reversing a product of g vectors takes g(g-1)/2 swaps
    return tuple(-c if GRADES[i] * (GRADES[i] - 1) // 2 % 2 else c for i, c in enumerate(u))


def ref_grade(u, k):
    return tuple(c if GRADES[i] == k else 0.0 for i, c in enumerate(u))


def ref_join(u, v):
    return ref_dual(tabled_product(ref_dual(u), ref_dual(v), OUTER))


def _assert_same(u, v):
    mu, mv = Multivector(u), Multivector(v)
    assert mu.gp(mv).coeffs == tabled_product(u, v, CAYLEY), (u, v)
    assert mu.outer(mv).coeffs == tabled_product(u, v, OUTER), (u, v)
    assert mu.dot(mv).coeffs == tabled_product(u, v, DOT), (u, v)
    assert mu.join(mv).coeffs == ref_join(u, v), (u, v)
    assert mu.dual().coeffs == ref_dual(u), u
    assert mu.reverse().coeffs == ref_reverse(u), u
    for k in range(4):
        assert mu.grade(k).coeffs == ref_grade(u, k), (u, k)


def test_basis_blade_pairs_match_table_loop():
    for a in blades.values():
        for b in blades.values():
            _assert_same(a.coeffs, b.coeffs)
            _assert_same(a.scaled(2.5).coeffs, b.scaled(-0.75).coeffs)


def _random_operand(r):
    """Dense or sparse (exact zeros), with magnitudes spread over 1e-6..1e6."""
    values = [
        v * 10.0**e for v, e in zip(r.uniform(-1.0, 1.0, size=8), r.uniform(-6.0, 6.0, size=8))
    ]
    if r.uniform() < 0.5:
        values = [0.0 if u < 0.6 else v for v, u in zip(values, r.uniform(size=8))]
    return tuple(values)


def test_random_operands_match_table_loop():
    r = gen.rng(41)
    operands = [_random_operand(r) for _ in range(1000)]
    assert sum(0.0 in u for u in operands) > 300  # the sparse ones are there
    for u, v in zip(operands, operands[1:] + operands[:1]):
        _assert_same(u, v)


def test_results_are_plain_float_tuples():
    u = Multivector((1, 2, 3, 4, 5, 6, 7, 8))
    for result in (u.gp(u), u.outer(u), u.dot(u), u.join(u), u + u, u - u, -u, u.scaled(2)):
        assert type(result.coeffs) is tuple
        assert all(type(c) is float for c in result.coeffs)


BIG = Multivector((1e300,) * 8)  # squares overflow
HUGE = Multivector((1.5e308,) * 8)  # doubles overflow


@pytest.mark.parametrize(
    "op",
    [
        lambda: BIG.gp(BIG),
        lambda: BIG.outer(BIG),
        lambda: BIG.dot(BIG),
        lambda: BIG.join(BIG),
        lambda: BIG.commutator(BIG.reverse()),
        lambda: HUGE + HUGE,
        lambda: HUGE - (-HUGE),
        lambda: BIG.scaled(1e10),
    ],
    ids=["gp", "outer", "dot", "join", "commutator", "add", "sub", "scaled"],
)
def test_overflow_raises_domain_error(op):
    with pytest.raises(DomainError, match="overflow"):
        op()


def test_finite_result_with_overflowing_sum_is_accepted():
    # every slot is finite although their plain sum is not
    u = Multivector((1e308,) * 8)
    assert u.gp(one).coeffs == u.coeffs
    assert (u - u.scaled(0.5)).coeffs == (5e307,) * 8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_public_constructor_rejects_non_finite(bad):
    for slot in (0, 7):
        coeffs = [0.0] * 8
        coeffs[slot] = bad
        with pytest.raises(DomainError):
            Multivector(tuple(coeffs))


# -- the typed closed forms ----------------------------------------------------------


def _spread(r, n):
    """n coefficients of random sign, magnitudes spread over 1e-3..1e3."""
    return [v * 10.0**e for v, e in zip(r.uniform(-1.0, 1.0, size=n), r.uniform(-3.0, 3.0, size=n))]


def _parallel(r, m):
    """A line parallel to m, of another norm and either orientation."""
    k = _spread(r, 1)[0]
    return Line(k * m.a, k * m.b, _spread(r, 1)[0])


def test_join_and_meet_are_the_kernel_products_exactly():
    r = gen.rng(90)
    for _ in range(500):
        p, q = Point(*_spread(r, 3)), Point(*_spread(r, 3))
        for v in (q, IdealPoint(q.x, q.y), Point(q.x, q.y, 0.0)):
            j = p.mv().join(v.mv()).coeffs
            assert cross((p.x, p.y, p.z), (v.x, v.y, v.z)) == (j[2], j[3], j[1])
            line = join(p, v)
            assert (line.a, line.b, line.c) == (j[2], j[3], j[1])
        m = Line(*_spread(r, 3))
        for n in (Line(*_spread(r, 3)), _parallel(r, m)):
            o = m.mv().outer(n.mv()).coeffs
            assert cross((m.a, m.b, m.c), (n.a, n.b, n.c)) == (o[4], o[5], o[6])
            point = meet(m, n)
            assert (point.x, point.y, point.z) == (o[4], o[5], o[6])


def test_measurements_are_the_kernel_products_exactly():
    r = gen.rng(91)
    for _ in range(500):
        p, q = Point(*_spread(r, 3)), Point(*_spread(r, 3))
        pn, qn = normalize(p).mv(), normalize(q).mv()
        j = pn.join(qn)
        assert distance(p, q) == math.hypot(j[2], j[3])
        m = Line(*_spread(r, 3))
        mn = normalize(m).mv()
        assert distance(m, p) == mn.outer(pn)[7]
        for n in (Line(*_spread(r, 3)), _parallel(r, m)):
            nn = normalize(n).mv()
            meet = mn.outer(nn)
            assert angle(m, n) == math.atan2(abs(meet[6]), mn.dot(nn)[0])
            if n.a * m.a + n.b * m.b > 0.0 or abs(meet[6]) > 1e-6:
                assert midline(m, n) == normalize(Line.from_mv(mn + nn))
            assert rotor_from_lines(m, n) == Motor.from_mv(nn.gp(mn))
            if abs(meet[6]) < 1e-9:
                assert distance(m, n) == math.hypot(meet[4], meet[5])
        for u in (IdealPoint(q.x, q.y), Point(q.x, q.y, 0.0)):
            un = normalize(u).mv()
            # the e012 part of m ^ u is the sine, the e0 part of m . u the cosine
            assert angle(m, u) == math.atan2(abs(mn.outer(un)[7]), mn.dot(un)[1])


def test_parallel_test_of_normalized_lines_is_the_outer_product_slot():
    """triple_lines and midline read m ^ n's e12 slot as m.a * n.b - m.b * n.a."""
    r = gen.rng(94)
    for _ in range(2000):
        m = normalize(Line(*_spread(r, 3)))
        for n in (Line(*_spread(r, 3)), _parallel(r, m)):
            n = normalize(n)
            assert abs(m.mv().outer(n.mv())[6]) == abs(m.a * n.b - m.b * n.a)


def test_solver_motor_is_the_kernel_product_of_turn_and_shift_exactly():
    r = gen.rng(92)
    for _ in range(300):
        a, a2 = (gen.random_point(r, 10.0 ** r.uniform(-3.0, 3.0)) for _ in range(2))
        m, m2 = gen.random_line_through(r, a), gen.random_line_through(r, a2)
        g = solve_point_line_transport(a, m, a2, m2)
        an, a2n = normalize(a), normalize(a2)
        # the turn about a2 has the motor's scalar and e12 parts
        turn = Motor(g.s, g.bz * a2n.x, g.bz * a2n.y, g.bz)
        shift = translator_by(a2n.x - an.x, a2n.y - an.y)
        assert g.mv() == turn.mv().gp(shift.mv())


ULPS = 8 * sys.float_info.epsilon


def test_sandwich_is_the_kernel_product_within_a_few_ulps():
    r = gen.rng(93)
    for _ in range(500):
        x, y, z = _spread(r, 3)
        operands = (Point(x, y, z), IdealPoint(x, y), Point(x, y, 0.0), Line(*_spread(r, 3)))
        versors = (Motor(*_spread(r, 4)), OddVersor(*_spread(r, 3), _spread(r, 1)[0]))
        mirror = Line(*_spread(r, 3))
        for v in versors:
            vm = v.mv()
            for e in operands + versors:
                got = sandwich(v, e)
                assert type(got) is type(e)
                want = vm.gp(e.mv().gp(vm.reverse()))
                assert (got.mv() - want).max_abs() <= ULPS * vm.max_abs() ** 2 * e.mv().max_abs()
        am = normalize(mirror).mv()
        for e in operands + versors:
            miss = (reflect(mirror, e).mv() - am.gp(e.mv().gp(am))).max_abs()
            assert miss <= ULPS * am.max_abs() ** 2 * e.mv().max_abs()


def kernel_project(x, onto):
    """The projection (x.y)y and rejection (x^y)y of the normalized operands
    as kernel products, each signed so that the two sum to the normalized x."""
    u, w = normalize(x).mv(), normalize(onto).mv()
    if isinstance(x, Line) and isinstance(onto, Line):
        return w.scaled(u.dot(w)[0]), u.outer(w).gp(w)
    if isinstance(x, Line):
        return u.dot(w).gp(w).scaled(-1.0), u.outer(w).gp(w).scaled(-1.0)
    if isinstance(onto, Line):
        return w.gp(w.dot(u)), w.gp(w.outer(u))
    return w.scaled(-w.dot(u)[0]), w.gp(w.commutator(u)).scaled(-1.0)


def _project_cases(r):
    """Random operands in all four cases, then the exactly zero parts:
    perpendicular lines, an element onto itself, incident points and lines."""
    for _ in range(500):
        m, n = Line(*_spread(r, 3)), Line(*_spread(r, 3))
        p, q = Point(*_spread(r, 3)), Point(*_spread(r, 3))
        yield from ((m, n), (m, _parallel(r, m)), (m, p), (p, m), (p, q))
    for _ in range(100):
        a, b, c, y = _spread(r, 4)
        m, p = Line(a, b, c), Point(a, y, 1.0)
        on_axis = Line(0.0, 1.0, -y)  # the horizontal line through p
        yield from ((m, Line(-b, a, y)), (m, m), (p, p), (p, on_axis), (on_axis, p))


def test_project_is_the_kernel_product():
    """project and reject, each exactly, grade by grade, where the closed
    form keeps the kernel's terms; within a few ulps of the operands' scale
    for the foot of a perpendicular (its weight is 1, the kernel's
    a^2 + b^2), and for the grades the kernel gets only as rounding noise of
    a zero incidence.  An exactly zero part is project's DomainError or
    reject's None."""
    r = gen.rng(95)
    zeros = 0
    for x, onto in _project_cases(r):
        try:
            parallel = project(x, onto)
        except DomainError as exc:
            assert str(exc) == "zero element is not a line", (x, onto)
            parallel = None
        grade = 1 if isinstance(x, Line) else 2
        scale = normalize(x).mv().max_abs() * normalize(onto).mv().max_abs() ** 2
        for part, want in zip((parallel, reject(x, onto)), kernel_project(x, onto)):
            noise = want - want.grade(grade)
            assert noise.max_abs() <= ULPS * scale, (x, onto)
            want = want.grade(grade)
            if part is None:
                assert want.max_abs() == 0.0, (x, onto)
                zeros += 1
            elif isinstance(x, Point) and isinstance(onto, Line) and part is parallel:
                assert part.z == 1.0
                assert (part.mv() - want).max_abs() <= ULPS * scale, (x, onto)
            else:
                assert part.mv().coeffs == want.coeffs, (x, onto)
    assert zeros == 500


# -- the library's closed forms ------------------------------------------------------


def kernel_perp_line_through(m, p):
    return Line.from_mv(m.mv().dot(normalize(p).mv()))


def kernel_factor_point(p):
    m = normalize(Line.from_mv(e1.dot(p.mv())))
    return m, Line.from_mv(m.mv().gp(p.mv()))


def kernel_factor_motor(g, p):
    """The second mirror of factor_motor, given its first one p."""
    return Line.from_mv(g.normalized().mv().gp(p.mv()).grade(1))


def kernel_interpolate(g, t):
    return exp_bivector(log_motor(g).scaled(t))


def kernel_triple(x, y, z):
    """The product x(yz) of the normalized operands."""
    return normalize(x).mv().gp(normalize(y).mv().gp(normalize(z).mv()))


def kernel_triple_points(a, b, c):
    return Point.from_mv(kernel_triple(a, b, c))


def kernel_symmetric_line(a, b, c):
    return Line.from_mv(functools.reduce(
        operator.add, itertools.starmap(kernel_triple, itertools.permutations((a, b, c)))
    ))


def test_the_typed_products_are_the_kernel_products_exactly():
    r = gen.rng(96)
    for _ in range(500):
        m, p = Line(*_spread(r, 3)), Point(*_spread(r, 3))
        assert perp_line_through(m, p) == kernel_perp_line_through(m, p)
        # weights of exactly +-1, and within the tolerance of it
        for z in (1.0, -1.0, 1.0 + 5e-10, -1.0 - 5e-10):
            p = Point(*_spread(r, 2), z)
            assert factor_point(p) == kernel_factor_point(p)
        # a rotation, a translation, and the identity
        for g in (Motor(*_spread(r, 4)), Motor(*_spread(r, 3), 0.0), IDENTITY_MOTOR):
            p, q = factor_motor(g)
            assert q == kernel_factor_motor(g, p)
            t = _spread(r, 1)[0]
            assert interpolate(g, t) == kernel_interpolate(g, t)
        lines = _lines(r)
        (got, _), want = triple_lines(*lines), kernel_triple(*lines)
        assert got == OddVersor.from_mv(want)
        points = _euclidean_points(r)
        assert triple_points(*points) == kernel_triple_points(*points)


def _euclidean_points(r):
    while True:
        points = [Point(*_spread(r, 3)) for _ in range(3)]
        if not any(p.is_ideal() for p in points):
            return points


def _lines(r):
    return [Line(*_spread(r, 3)) for _ in range(3)]


def _scale(operands):
    """The product of the normalized operands' largest coefficients."""
    return math.prod(normalize(x).mv().max_abs() for x in operands)


def _exact_symmetric_line(lines):
    """The kernel's sum of the six products x(yz) of the normalized lines, in Fractions."""
    exact = [tuple(map(Fraction, normalize(m).mv().coeffs)) for m in lines]
    total = [Fraction(0)] * 8
    for x, y, z in itertools.permutations(exact):
        product = tabled_product(x, tabled_product(y, z, CAYLEY, Fraction(0)), CAYLEY, Fraction(0))
        total = list(map(operator.add, total, product))
    return total


# The largest difference of symmetric_line from the kernel in 300,000 draws
# of _lines, in units of epsilon times the scale, and the draw that reaches it.
SYMMETRIC_LINE_BOUND = 10.49
SYMMETRIC_LINE_WORST = [
    Line(*map(float.fromhex, row)) for row in (
        ("0x1.0a4198092f64dp+2", "0x1.520e050c81876p+2", "-0x1.20a81f957a9efp-10"),
        ("-0x1.afa5426a20c77p+1", "0x1.3fc4c1b91bfcbp+4", "-0x1.8cdd25281f132p-3"),
        ("-0x1.3df47578ef273p-3", "-0x1.beda32d81fa31p-1", "0x1.232c4efbb0548p-2"),
    )
]


def _difference(lines) -> float:
    """The largest coefficient of symmetric_line minus the kernel's sum, in
    units of epsilon times the scale."""
    miss = symmetric_line(*lines).mv() - kernel_symmetric_line(*lines).mv()
    return miss.max_abs() / (sys.float_info.epsilon * _scale(lines))


def test_symmetric_line_is_within_a_few_ulps_of_the_kernel():
    assert SYMMETRIC_LINE_BOUND - 0.01 < _difference(SYMMETRIC_LINE_WORST) <= SYMMETRIC_LINE_BOUND
    r = gen.rng(97)
    for _ in range(2000):
        lines = _lines(r)
        assert _difference(lines) <= SYMMETRIC_LINE_BOUND, lines


def test_where_symmetric_line_differs_from_the_kernel_it_is_no_farther_from_the_exact_value():
    """On the coefficients where the two differ by more than epsilon times
    the scale, the closed form's worst and mean errors against the exact
    value are no larger than the kernel's."""
    r = gen.rng(98)
    errors = []
    for _ in range(1000):
        lines = _lines(r)
        unit = sys.float_info.epsilon * _scale(lines)
        got, want = symmetric_line(*lines).mv().coeffs, kernel_symmetric_line(*lines).mv().coeffs
        errors += [
            (abs(g - e) / unit, abs(w - e) / unit)
            for g, w, e in zip(got, want, _exact_symmetric_line(lines)) if abs(g - w) > unit
        ]
    closed, kernel = zip(*errors)
    assert len(errors) > 100
    assert max(closed) <= max(kernel) and sum(closed) <= sum(kernel)


# -- the kernel boundary -------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "pga2d"
# the functions that take or give a Multivector, and so may use the kernel; the
# package and the value base answer Multivector on first read, and the CLI
# prints the kernel's tables
ALGEBRA_API = {
    "__init__": {"__getattr__"},
    "multivector": {"__getattr__"},
    "cli": {"_tables"},
    # the one mv and from_mv of Line, Point, Pseudoscalar, Motor and OddVersor
    "elements": {"mv", "from_mv"},
    "geometry": set(),
    "metric": set(),
    "isometry": {"sandwich"},
    "algebra": {"polar", "exp_bivector", "log_motor"},
}


# the calls that reach the kernel: sandwich too, but only on an operand that is
# not a Line or a Point
KERNEL_CALLS = {"mv", "from_mv", "polar", "log_motor", "exp_bivector"}


def _kernel_uses(tree: ast.AST, api: set) -> list:
    """(owner, line) of each call in KERNEL_CALLS, each read of
    multivector.Multivector, and each import from or of the kernel or of
    Multivector, outside api."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            uses = name in KERNEL_CALLS
        elif isinstance(node, ast.Attribute):
            v = node.value
            uses = isinstance(v, ast.Name) and (v.id, node.attr) == ("multivector", "Multivector")
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            uses = node.module == "kernel" or (
                "kernel" in names if node.module is None else "Multivector" in names
            )
        else:
            uses = False
        if uses and owner not in api:
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return sorted(found)


def test_only_the_algebra_api_uses_the_kernel():
    for module, api in ALGEBRA_API.items():
        loaded = importlib.import_module("pga2d" if module == "__init__" else f"pga2d.{module}")
        for name in api:  # no exemption outlives its function
            functools.reduce(getattr, name.split("."), loaded)
    # every module but the kernel itself
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "kernel":
            api = ALGEBRA_API.get(path.stem, set())
            assert _kernel_uses(ast.parse(path.read_text()), api) == [], path.name


def test_the_kernel_lint_catches_each_use():
    planted = ast.parse(
        "from .multivector import DEFAULT_TOL, near_zero\n"
        "from .multivector import Multivector\n"
        "from .kernel import e1\n"
        "from . import kernel\n"
        "def perp(m, p):\n"
        "    return Line.from_mv(m.mv().dot(p.mv()))\n"
        "class Versor:\n"
        "    def mv(self):\n"
        "        return multivector.Multivector(multivector.DEFAULT_TOL)\n"
        "def polar(x):\n"
        "    from .kernel import e012\n"
        "    return e012.gp(x.mv())\n"
        "def interpolate(g, t):\n"
        "    return exp_bivector(log_motor(g).scaled(t))\n"
    )
    # the value base's own names are no road to the kernel
    uses = [("<module>", 2), ("<module>", 3), ("<module>", 4), ("Versor.mv", 9)]
    uses += [("interpolate", 14)] * 2 + [("perp", 6)] * 3
    assert _kernel_uses(planted, ALGEBRA_API["algebra"]) == sorted(uses)
    uses += [("polar", 11), ("polar", 12)]
    assert _kernel_uses(planted, ALGEBRA_API["geometry"]) == sorted(uses)
