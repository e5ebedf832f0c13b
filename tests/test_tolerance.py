"""The tolerance policy: one rule, near_zero(value, scale, tol), scaled by the
operands, so that results do not depend on where a figure sits or how big it
is (within the range the README states).

* pinned cases that the older absolute and floored-at-1 tests got wrong;
* bands pinned from both sides: a value just inside and one just outside;
* lints over src/pga2d that keep every tolerance product inside near_zero
  and name every near_zero call in README's "Tolerance policy" table;
* a metamorphic property: moving, turning and uniformly scaling a script's
  literals moves, turns and scales everything it computes;
* the benchmark's referee: a generated script prints and draws what
  bench/reference.py computes for it.
"""

import ast
import math
import re
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lints
from pga2d.algebra import factor_motor, factor_point, triple_lines
from pga2d.elements import Line, Point
from pga2d.errors import DomainError, EvaluationError, IncidenceError
from pga2d.geometry import join, meet
from pga2d.isometry import Motor, OddVersor, sandwich, solve_point_line_transport
from pga2d.metric import normalize
from pga2d.multivector import DEFAULT_TOL, near_zero
from pga2d.render import build_svg
from pga2d.script import evaluate, parse

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "tests" / "data" / "scripts"

sys.path.insert(0, str(ROOT / "bench"))  # generate.py imports its sibling reference.py
import generate  # noqa: E402
import reference  # noqa: E402

RIGHT_ANGLE = (
    "point A 0 0\npoint B 1 0\npoint C 0 1\n"
    "join m A B\njoin n A C\nmeet X m n\nangle a m n\ndist d B C\n"
)


# -- the rule ------------------------------------------------------------------


def test_near_zero_compares_against_the_scaled_tolerance():
    assert near_zero(1e-9, 1.0, 1e-9) and not near_zero(1.1e-9, 1.0, 1e-9)
    assert near_zero(-1e-3, 1e6, 1e-9) and not near_zero(-1e-3, 1e5, 1e-9)
    assert near_zero(0.0, 0.0, 1e-9) and not near_zero(5e-324, 1e300, 0.0)


# -- pinned cases ----------------------------------------------------------------


def test_meet_of_a_right_angle_with_micro_legs():
    env, out = evaluate(parse(RIGHT_ANGLE.replace(" 1", " 1e-6") + "print X\n"))
    assert out == "X = (0.000000, 0.000000)\n"
    assert env["a"] == pytest.approx(math.pi / 2, abs=1e-12)


def test_far_and_tiny_dist345_is_an_error_not_a_wrong_line():
    source = (SCRIPTS / "dist345.pga").read_text()
    source = source.replace("point A 0 0", "point A 1000 0")
    source = source.replace("point B 3 4", f"point B {1000 + 3e-12!r} 4e-12")
    lines = []
    with pytest.raises(EvaluationError) as err:
        evaluate(parse(source), emit=lines.append)
    assert err.value.lineno == 6 and "zero element" in str(err.value)
    assert "".join(lines) == "d = 0.000000\n"


@pytest.mark.parametrize("size", [1.0, 1e-6])
def test_solve_rejects_the_same_relative_incidence_defect_at_any_size(size):
    defect = 5e-4 * size
    with pytest.raises(IncidenceError):
        solve_point_line_transport(
            Point(size, 0, 1), Line(0, 1, -defect), Point(0, size, 1), Line(-1, 0, 0)
        )


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_solve_checks_incidence_at_a_floor_of_1e_9(tol):
    """The solver's checks use max(tol, 1e-9): a defect of 5e-8 at figure
    size 1 fails at the default tol and at tol = 0, one of 5e-10 passes."""
    a, m2 = Point(1, 0, 1), Line(0, 1, 0)
    with pytest.raises(IncidenceError):
        solve_point_line_transport(a, Line(0, 1, -5e-8), a, m2, tol)
    g = solve_point_line_transport(a, Line(0, 1, -5e-10), a, m2, tol)
    assert (g.s, g.bz) == (1.0, 0.0)


def test_a_scaled_motor_normalizes_like_the_unit_one():
    g, unit = Motor(1e-10, 0, 0, 1e-10).normalized(), Motor(1, 0, 0, 1).normalized()
    assert (g.s, g.bx, g.by, g.bz) == pytest.approx((unit.s, 0.0, 0.0, unit.bz), rel=1e-15)


def test_point_literal_beyond_the_range_is_an_error():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 0 0\npoint B 2e9 0\n"))
    assert err.value.lineno == 2 and "1e-3/tol = 1e+06" in str(err.value)
    evaluate(parse("point A 9.99e5 -9.99e5\n"))
    evaluate(parse("point B 2e9 0\n"), tol=0.0)  # no limit without a tolerance


# -- the bands, pinned from both sides ---------------------------------------------
#
# Each decision is near_zero(value, scale, tol).  A value 0.5 tol * scale from
# the band's centre is inside it and one 1.5 tol * scale away is outside, so a
# scale changed from 1 to 2 fails the pair at tol 1e-9.  At tol 0 only the
# centre is inside, and the floats next to it are outside.


def _inside_and_outside(centre: float, tol: float):
    """Values on both sides of centre, inside the band of scale 1 and outside it."""
    if tol:
        return (centre - 0.5 * tol, centre + 0.5 * tol), (centre - 1.5 * tol, centre + 1.5 * tol)
    return (centre,), (math.nextafter(centre, -math.inf), math.nextafter(centre, math.inf))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_factor_point_takes_a_weight_within_tol_of_one(tol):
    inside, outside = _inside_and_outside(1.0, tol)
    for w in inside:
        m, n = factor_point(Point(0.3, -0.2, w), tol)
        assert (m.a, m.b) == (0.0, 1.0)
    for w in outside:
        with pytest.raises(DomainError, match="must have weight"):
            factor_point(Point(0.3, -0.2, w), tol)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_triple_lines_flags_a_sine_within_tol_of_zero(tol):
    inside, outside = _inside_and_outside(0.0, tol)
    for sine in inside + outside:
        # y = 0, the line y = 1 turned by the sine, and x = 0: never concurrent,
        # and only the first two are near parallel
        _, degenerate = triple_lines(Line(0, 1, 0), Line(sine, 1, -1), Line(1, 0, 0), tol)
        assert degenerate is (sine in inside)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_triple_lines_flags_a_pseudoscalar_within_tol_of_zero(tol):
    inside, outside = _inside_and_outside(0.0, tol)
    for e in inside + outside:
        # x = 0, y = 0 and a unit line at distance e from their meet, the
        # origin: no two are near parallel, and lam is -e exactly
        versor, degenerate = triple_lines(Line(0.6, 0.8, -e), Line(1, 0, 0), Line(0, 1, 0), tol)
        assert versor.lam == -e
        assert degenerate is (e in inside)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_factor_motor_takes_an_ideal_part_within_tol_as_no_translation(tol):
    inside, outside = _inside_and_outside(0.0, tol)
    for by in inside:
        assert factor_motor(Motor(1, 0, by, 0), tol)[0] == Line(0, 1, 0)
    for by in outside:
        # a translation along y: the mirror p is perpendicular to it
        assert factor_motor(Motor(1, 0, by, 0), tol)[0] == Line(-math.copysign(1.0, by), 0, 0)


@pytest.mark.parametrize(
    "tol, null, weighty",
    [(DEFAULT_TOL, 0.5e-9, 1.5e-9), (DEFAULT_TOL, 1e-12, 1e-8), (0.0, 0.0, 1e-12)],
)
def test_a_motor_is_null_when_its_weight_is_within_tol_of_its_largest_part(tol, null, weighty):
    # the largest part is bx = 1; a scale of max(|s|, |bz|) would be the weight itself
    with pytest.raises(DomainError, match="is null"):
        Motor(null, 1, 0, 0).normalized(tol)
    assert Motor(weighty, 1, 0, 0).normalized(tol) == Motor(1, 1 / weighty, 0, 0)


def test_a_point_literal_is_in_range_within_1e_3_over_tol_of_the_origin():
    # at tol 1e-9 the limit is 1e6, for either coordinate
    evaluate(parse("point A 5e5 0\npoint B 0 -5e5\n"))
    for xy in ("1.5e6 0", "0 -1.5e6"):
        with pytest.raises(EvaluationError, match="out of range"):
            evaluate(parse(f"point A {xy}\n"))


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-6])
def test_a_line_literal_is_in_range_within_1e_3_over_tol_of_the_origin(tol):
    # the distance |c| / |(a, b)| from the origin, half the limit and 1.5 times it
    limit = 1e-3 / tol
    inside = f"line m 3 4 {-2.5 * limit!r}\nline n 0 -2 {limit!r}\n"
    evaluate(parse(inside + "line k 0 0 5\nline j -0.0 0 -1e300\n"), tol)  # the ideal line
    for abc in (f"3 4 {7.5 * limit!r}", f"0 -2 {-3 * limit!r}", "5e-324 0 1"):
        with pytest.raises(EvaluationError, match=re.escape(f"within 1e-3/tol = {limit:g} of")):
            evaluate(parse(f"line m {abc}\n"), tol)


def test_a_line_literal_far_from_the_origin_is_an_error_and_not_an_ideal_line():
    source = "line m 1 0 -2e9\nline n 0 1 0\nmeet P m n\nprint P\n"
    with pytest.raises(EvaluationError) as err:
        evaluate(parse(source))
    assert err.value.lineno == 1 and str(err.value) == (
        "line 1: line [1, 0, -2e+09] is out of range: "
        "it must pass within 1e-3/tol = 1e+06 of the origin"
    )
    # no limit without a tolerance
    assert evaluate(parse(source), tol=0.0)[1] == "P = (2000000000.000000, 0.000000)\n"
    evaluate(parse("line m 5e-324 0 1e308\n"), tol=0.0)


@pytest.mark.parametrize(
    "tol, dependent, independent", [(DEFAULT_TOL, 0.75e-9, 1.5e-9), (0.0, 0.0, 5e-324)]
)
@pytest.mark.parametrize(
    "source",
    ["point A 1 0\npoint B 1 {e!r}\njoin r A B\n", "line m 0 1 0\nline n {e!r} 1 0\nmeet r m n\n"],
    ids=["join", "meet"],
)
def test_a_join_or_meet_is_zero_within_tol_of_its_operands_scale(
    source, tol, dependent, independent
):
    # the result's largest coefficient is e, against a scale of 1 * 1
    with pytest.raises(EvaluationError, match=r"is the zero element \(dependent arguments\?\)"):
        evaluate(parse(source.format(e=dependent)), tol)
    assert isinstance(evaluate(parse(source.format(e=independent)), tol)[0]["r"], (Line, Point))


@pytest.mark.parametrize(
    "tol, dependent, independent", [(DEFAULT_TOL, 0.75e-9, 1.5e-9), (0.0, 0.0, 5e-324)]
)
@pytest.mark.parametrize(
    "product",
    [
        lambda e, tol: join(Point(1, 0, 1), Point(1, e, 1), tol),
        lambda e, tol: meet(Line(0, 1, 0), Line(e, 1, 0), tol),
    ],
    ids=["join", "meet"],
)
def test_the_library_join_or_meet_is_zero_within_tol_of_its_operands_scale(
    product, tol, dependent, independent
):
    # the script pins above, called directly
    with pytest.raises(DomainError, match=r"is the zero element \(dependent arguments\?\)"):
        product(dependent, tol)
    assert isinstance(product(independent, tol), (Line, Point))


# -- the policy, as a lint ---------------------------------------------------------

# where a comparison keeps its own convention: approx_eq's absolute semantics
# carry the test suite's acceptance tolerances, _sinc/_inv_sinc switch to a
# series, which is not a tolerance decision, and the CLI's range check of --tol
# in _main bounds user input; it is not a tolerance decision either
EXEMPT = {"near_zero", "approx_eq", "_sinc", "_inv_sinc", "_main"}
TOLERANCE_NAME = re.compile(r"(^|_)(tol|eps)($|_)")


def _is_tolerance(node: ast.AST) -> bool:
    """A tolerance by its name: a bare name, or an attribute such as self.tol."""
    if isinstance(node, ast.Attribute):
        return TOLERANCE_NAME.search(node.attr) is not None
    return isinstance(node, ast.Name) and TOLERANCE_NAME.search(node.id) is not None


def _has_tolerance(node: ast.AST) -> bool:
    """A tolerance name in an expression, outside the arguments of a call
    (such as u.grades(tol), which decides through near_zero itself)."""
    in_calls = {n for call in ast.walk(node) if isinstance(call, ast.Call) for n in ast.walk(call)}
    return any(_is_tolerance(n) for n in ast.walk(node) if n not in in_calls)


def _violations(tree: ast.AST):
    for node, scopes in lints.scoped(tree):
        if lints.owner(scopes).rpartition(".")[2] in EXEMPT:
            continue
        if isinstance(node, ast.Constant) and node.value == 1e-15:
            yield node.lineno, "the literal 1e-15"
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            if any(_is_tolerance(side) for side in (node.left, node.right)):
                yield node.lineno, "a tolerance product outside near_zero"
        if isinstance(node, ast.Compare):
            for side in (node.left, *node.comparators):
                if _has_tolerance(side):
                    yield node.lineno, "a tolerance comparison outside near_zero"
                if isinstance(side, ast.Constant) and isinstance(side.value, float):
                    if 0.0 < abs(side.value) < 1e-3:
                        yield node.lineno, f"a comparison with the threshold {side.value!r}"


def test_every_tolerance_decision_goes_through_near_zero():
    assert lints.report(lambda tree, _: _violations(tree)) == []


def test_the_lint_catches_each_older_convention():
    older = (
        "def f(u, tol):\n"
        "    if u.max_abs() <= tol:\n"
        "        return tol * max(1.0, u.max_abs())\n"
        "    return abs(u[2]) > 1e-15 or 1e-9 * u[3] > check_tol * 2\n"
        "eps = 1e-9 * 4.0\n"
        "inside = 0.0 - eps <= 0.5\n"
        "if not 0.0 <= args.tol < 1.0 or abs(u[0]) > self.check_tol:\n"
        "    width = 2.0 * self.tol\n"
        "settings = (args.tol, self.tol)\n"
    )
    assert sorted(_violations(ast.parse(older))) == [
        (2, "a tolerance comparison outside near_zero"),
        (3, "a tolerance product outside near_zero"),
        (4, "a comparison with the threshold 1e-15"),
        (4, "a tolerance comparison outside near_zero"),
        (4, "a tolerance product outside near_zero"),
        (4, "the literal 1e-15"),
        (6, "a tolerance comparison outside near_zero"),
        (7, "a tolerance comparison outside near_zero"),
        (7, "a tolerance comparison outside near_zero"),
        (8, "a tolerance product outside near_zero"),
    ]


def _takes_tol(node: ast.AST) -> bool:
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return False
    params = (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
    return any(p.arg == "tol" for p in params)


def _dropped_tol(trees: dict[str, ast.AST]):
    """(file, line, callee) of each call, inside a function or lambda that
    takes tol, to a function of these modules that takes tol, where no
    argument passes a tolerance on (tol, or one derived from it such as
    check_tol): the callee then decides at its default."""
    takers = {
        node.name
        for tree in trees.values()
        for node, _ in lints.scoped(tree)
        if _takes_tol(node) and not isinstance(node, ast.Lambda)
    }
    for name, tree in trees.items():
        for node, scopes in lints.scoped(tree):
            # the innermost function or lambda decides
            inner = next((s for s in reversed(scopes) if not isinstance(s, ast.ClassDef)), None)
            if not isinstance(node, ast.Call) or not _takes_tol(inner):
                continue
            # a method of a str literal, such as "".join(parts), is no function here
            f = node.func
            on_literal = isinstance(f, ast.Attribute) and isinstance(f.value, ast.Constant)
            if on_literal and isinstance(f.value.value, str):
                continue
            passed = (*node.args, *(k.value for k in node.keywords))
            if lints.called(node) in takers and not any(map(_has_tolerance, passed)):
                yield name, node.lineno, lints.called(node)


def test_every_call_passes_its_callers_tol_on():
    assert sorted(_dropped_tol(lints.trees())) == []


def test_the_tol_lint_catches_a_dropped_tol():
    source = (
        "def unit(x, tol=1e-9):\n"
        "    return x\n"
        "def f(x, y, tol):\n"
        "    a = unit(x)\n"
        "    b = m.unit(y, tol=tol) + unit(y, check_tol)\n"
        "    c = unit(max(x, tol))\n"
        "    g = lambda z, tol: unit(z)\n"
        "    def h(z):\n"
        "        return unit(z)\n"
        '    s = geometry.join(x, y) + "".join(x) + ", ".join(y) + sep.join(x, tol)\n'
        "    return obj.unit(unit(x, tol))\n"
        "def k(x):\n"
        "    return unit(x)\n"
        "def join(p, q, tol=1e-9):\n"
        "    return p\n"
    )
    assert sorted(_dropped_tol({"f.py": ast.parse(source)})) == [
        ("f.py", 4, "unit"),
        ("f.py", 6, "unit"),
        ("f.py", 7, "unit"),
        ("f.py", 10, "join"),
        ("f.py", 11, "unit"),
    ]


# -- every near_zero site, named in README ------------------------------------------
#
# Each near_zero call, by the function around it, and the number of calls there.
# README's "Tolerance policy" table names each function, or for a private
# helper a public caller of it in its module (geometry._cross through join
# and meet), with or without the module.
NEAR_ZERO_SITES = {
    "algebra.triple_lines": 1, "algebra.factor_point": 1, "algebra.factor_motor": 2,
    "elements.Line.is_ideal": 1, "elements.Point.is_ideal": 1,
    "geometry.distance": 1, "geometry._cross": 1, "geometry.midline": 1,
    "isometry.Motor.normalized": 1, "isometry.OddVersor.normalized": 1,
    "isometry.solve_point_line_transport": 2, "kernel.Multivector.grades": 1,
    "render._clip_line": 7, "script._point": 1, "script._line": 1,
}


def _near_zero_sites(trees: dict[str, ast.AST]) -> Counter:
    """module.owner -> the number of near_zero calls in it."""
    return Counter(
        f"{module}.{lints.owner(scopes)}"
        for module, tree in trees.items()
        for node, scopes in lints.scoped(tree)
        if isinstance(node, ast.Call) and lints.called(node) == "near_zero"
    )


def _unnamed(trees: dict[str, ast.AST], listed: set[str]) -> tuple[list, list]:
    """(each site that no name of listed covers, each name of listed that
    covers no site)."""
    covers = {}
    for site in _near_zero_sites(trees):
        module, owner = site.split(".", 1)
        names = {owner}
        if owner.startswith("_"):
            names |= lints.public_callers([trees[module]], {owner})
        covers[site] = names | {f"{module}.{name}" for name in names}
    unnamed = sorted(site for site, names in covers.items() if not names & listed)
    return unnamed, sorted(listed - set().union(*covers.values()))


def test_every_near_zero_site_is_named_in_the_readme_tolerance_table():
    assert _near_zero_sites(lints.trees()) == NEAR_ZERO_SITES
    listed = lints.table_names((ROOT / "README.md").read_text(), "### Tolerance policy")
    assert _unnamed(lints.trees(), listed) == ([], [])


def test_the_site_lint_catches_an_unnamed_site_and_a_stale_name():
    planted = {
        "m": ast.parse(
            "def is_ideal(x, tol):\n"
            "    return near_zero(x.z, 1.0, tol)\n"
            "class Motor:\n"
            "    def normalized(self, tol):\n"
            "        return [near_zero(w, 1.0, tol) for w in self.weights]\n"
            "def _cross(u, v, tol):\n"
            "    return base.near_zero(u, v, tol) or near_zero(v, u, tol)\n"
            "def join(p, q, tol):\n"
            "    return _cross(p, q, tol)\n"
            "def angle(u, v):\n"
            "    return near(u, v)\n"
        )
    }
    assert _near_zero_sites(planted) == {"m.is_ideal": 1, "m.Motor.normalized": 1, "m._cross": 2}
    readme = (
        "### Tolerance policy\n\n| function | decision |\n| -------- | -------- |\n"
        "| `m.join`, `is_ideal` | a zero product; a point is ideal |\n"
        "| `angle` | parallel lines |\n## Next\n| `Motor.normalized` | a null motor |\n"
    )
    listed = lints.table_names(readme, "### Tolerance policy")
    assert _unnamed(planted, listed) == (["m.Motor.normalized"], ["angle"])


# -- the metamorphic property ----------------------------------------------------

SCALES = (1e-6, 1e6)  # the uniform scales drawn, before the range below clips them
# The README's range at the default tol: coordinates within 1e6 of the origin,
# and figures at least 1e-6 across and 1e-6 of their distance from the origin
LIMIT = 1e6
SMALLEST = 1e-6
SHIFT = 1e3  # the largest shift, in figure sizes
BOUND = 1e-6  # every comparison, relative to the figure size or to the value

SOURCES = ["right-angle", "dist345", "rotation_case", "translation_case"] + [
    f"{workload}/{seed}" for workload in ("script-euclid", "script-ideal") for seed in (1, 2)
]


@lru_cache(maxsize=None)
def _source(name: str):
    """(program, figure size, original environment) of a script.

    The figure size is the smallest figure the script draws: a golden
    script's extent, or for a generated one the smallest figure size the
    generator draws (bench/generate.py SCALE).
    """
    if name == "right-angle":
        text, size = RIGHT_ANGLE, 1.0
    elif "/" in name:
        workload, seed = name.split("/")
        text = generate.generate(workload, int(seed), 0).text
        size = 10.0 ** generate.SCALE[workload][0]
    else:
        text, size = (SCRIPTS / f"{name}.pga").read_text(), {"dist345": 5.0}.get(name, 1.0)
    program = parse(text)
    return program, size, evaluate(program)[0]


def _largest_coordinate(env) -> float:
    sizes = [1.0]
    for value in env.values():
        if isinstance(value, (Point, Line)) and not value.is_ideal():
            n = normalize(value)
            sizes += [abs(n.x), abs(n.y)] if isinstance(n, Point) else [abs(n.c)]
    return max(sizes)


class Similarity:
    """x -> s * R(theta) x + t, a direct motion and a uniform scale."""

    def __init__(self, theta: float, s: float, t: tuple[float, float]):
        self.c, self.sn, self.s, self.t = math.cos(theta), math.sin(theta), s, t

    def turn(self, u: float, v: float) -> tuple[float, float]:
        return self.c * u - self.sn * v, self.sn * u + self.c * v

    def point(self, x: float, y: float) -> tuple[float, float]:
        u, v = self.turn(x, y)
        return self.s * u + self.t[0], self.s * v + self.t[1]

    def line(self, a: float, b: float, c: float) -> tuple[float, float, float]:
        a2, b2 = self.turn(a, b)
        return a2, b2, self.s * c - (a2 * self.t[0] + b2 * self.t[1])

    def program(self, program: tuple[tuple, ...]) -> tuple[tuple, ...]:
        statements = []
        for lineno, verb, result, args in program:
            if verb == "point":
                args = self.point(*args)
            elif verb == "ideal":
                args = self.turn(*args)
            elif verb == "line":
                args = self.line(*args)
            elif verb == "translator":
                args = (args[0], self.s * args[1])
            statements.append((lineno, verb, result, args))
        return tuple(statements)


def _outcome(program: tuple[tuple, ...]):
    try:
        return evaluate(program)[0], None
    except EvaluationError as exc:
        return None, (exc.lineno, type(exc.__cause__))


def _kind(x) -> tuple[bool, bool]:
    return isinstance(x, Line), x.is_ideal()


def _check_point(got: Point, want: Point, sim: Similarity, size: float, what: str):
    assert _kind(got) == _kind(want), what
    g, w = normalize(got), normalize(want)
    if want.is_ideal():
        u, v = sim.turn(w.x, w.y)
        assert math.hypot(g.x - u, g.y - v) <= BOUND, what
        return
    x, y = sim.point(w.x, w.y)
    assert math.hypot(g.x - x, g.y - y) <= BOUND * sim.s * max(size, abs(w.x), abs(w.y)), what


def _check_line(got: Line, want: Line, sim: Similarity, size: float, what: str):
    assert _kind(got) == _kind(want), what
    g, w = normalize(got), normalize(want)
    a, b = sim.turn(w.a, w.b)
    assert math.hypot(g.a - a, g.b - b) <= BOUND, what
    # the foot of the original origin on the line, moved, lies on the image
    x, y = sim.point(-w.c * w.a, -w.c * w.b)
    assert abs(g.a * x + g.b * y + g.c) <= BOUND * sim.s * max(size, abs(w.c)), what


def _check_motion(got, want, sim: Similarity, size: float, what: str):
    probes = (Point(0, 0, 1), Point(size, 0, 1), Point(0, size, 1))
    for p in probes:
        q = Point(*sim.point(p.x, p.y), 1.0)
        _check_point(sandwich(got, q), sandwich(want, p), sim, size, what)
    m = Line(0, 1, 0)
    _check_line(sandwich(got, Line(*sim.line(m.a, m.b, m.c))), sandwich(want, m), sim, size, what)


@settings(max_examples=40, deadline=None)
@given(
    source=st.sampled_from(SOURCES),
    theta=st.floats(-math.pi, math.pi),
    scale=st.floats(0.0, 1.0),
    shift=st.floats(0.0, 1.0),
    heading=st.floats(-math.pi, math.pi),
)
@example(source="right-angle", theta=0.0, scale=0.0, shift=0.0, heading=0.0)
def test_moving_turning_and_scaling_a_script_moves_turns_and_scales_its_values(
    source, theta, scale, shift, heading
):
    """scale and shift are fractions of the range: the scale runs
    log-uniformly from the smallest to the largest that keeps the figure in
    the README's range, and the shift up to SHIFT figure sizes."""
    program, size, env = _source(source)
    lo = max(SCALES[0], SMALLEST / size)
    hi = min(SCALES[1], LIMIT / (_largest_coordinate(env) + SHIFT * size))
    s = lo * (hi / lo) ** scale
    t = SHIFT * s * size * shift
    sim = Similarity(theta, s, (t * math.cos(heading), t * math.sin(heading)))

    moved, failure = _outcome(sim.program(program))
    assert failure is None, f"{source} fails after the move: {failure}"
    assert moved.keys() == env.keys()
    verbs = {result: verb for _, verb, result, _ in program}
    for name, want in env.items():
        got = moved[name]
        what = f"{source}: {verbs[name]} {name}"
        assert type(got) is type(want), what
        if isinstance(want, float):
            if verbs[name] == "dist":
                assert abs(got - s * want) <= BOUND * s * max(size, abs(want)), what
            else:
                assert abs(got - want) <= BOUND, what
        elif isinstance(want, Point):
            _check_point(got, want, sim, size, what)
        elif isinstance(want, Line):
            _check_line(got, want, sim, size, what)
        else:
            assert isinstance(want, (Motor, OddVersor)), what
            _check_motion(got, want, sim, size, what)


@pytest.mark.parametrize("source", ["right-angle", "dist345"])
@pytest.mark.parametrize("s", [SMALLEST, 1.0, 100.0])
def test_a_failure_fails_alike_after_the_move(source, s):
    """A script that fails (here: a point joined with itself) fails at the
    same statement with the same error class wherever the figure is."""
    program, size, _ = _source(source)
    broken = (*program, (program[-1][0] + 1, "join", "z", ("A", "A")))
    sim = Similarity(0.5, s, (SHIFT * s * size, 0.0))
    failure = _outcome(broken)[1]
    assert failure is not None and _outcome(sim.program(broken))[1] == failure


# -- the benchmark's referee ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(generate.MIXES)), st.integers(1, 10**6), st.integers(0, 99))
def test_a_generated_script_prints_and_draws_what_the_reference_computes(workload, seed, index):
    # bench/reference.py computes each printed value with classical coordinate
    # geometry, and counts the shapes the SVG must hold
    script = generate.generate(workload, seed, index)
    env, out = evaluate(parse(script.text))
    assert reference.check_output(out, script.expected) == []
    svg = build_svg(env)
    assert reference.check_svg(svg, script.circles, script.arrows, script.lines) == []
