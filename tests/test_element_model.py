"""One element model: an ideal point is the Point (u, v, 0), and one grade test.

IdealPoint(u, v) builds the Point (u, v, 0), so an ideal point made that way
and one computed go through the same code: every operation that needs a
euclidean point rejects both alike, and a script gives the same output
whichever way its ideal point was made.
"""

import ast
import inspect
import itertools
import math
import pickle
import random
from pathlib import Path

import pytest

import pga2d
from pga2d.algebra import (
    exp_bivector,
    factor_motor,
    factor_point,
    ideal_norm,
    ideal_point_of,
    interpolate,
    log_motor,
    norm,
    perp_line_through,
    polar,
    reject,
    symmetric_line,
    triple_lines,
    triple_points,
)
from pga2d.cli import main
from pga2d.elements import IdealPoint, Line, Point, Pseudoscalar
from pga2d.errors import (
    AlgebraError, ClassificationError, DomainError, OperandError, RenderError, ScriptError,
)
from pga2d.geometry import angle, distance, midline, midpoint, project
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
)
from pga2d.metric import is_ideal, normalize
from pga2d.kernel import Multivector
from pga2d.script import evaluate, parse

# -- the contract ----------------------------------------------------------------


def test_ideal_point_is_the_point_with_zero_weight():
    u = IdealPoint(3, 4)
    assert type(u) is Point
    assert (u.x, u.y, u.z) == (3.0, 4.0, 0.0)
    assert u == Point(3, 4, 0) == Point(3, 4, -0.0)
    assert hash(u) == hash(Point(3, 4, 0)) == hash(Point(3, 4, -0.0))
    assert len({u, Point(3, 4, 0), Point(3, 4, -0.0)}) == 1
    assert repr(u) == "Point(3, 4, 0)"
    assert u.is_ideal(0.0)
    assert Point.from_mv(u.mv()) == u
    # nothing that returns a point makes another class
    for image in (pickle.loads(pickle.dumps(u)), normalize(u), reflect(Line(1, 0, 0), u)):
        assert type(image) is Point
    assert sandwich(IDENTITY_MOTOR, u) == u
    assert normalize(u) == IdealPoint(0.6, 0.8)


# -- both forms of an ideal point get one outcome ---------------------------------

_A, _B = Point(1, 2, 1), Point(-1, 0.5, 1)
_M = Line(0, 1, -2)  # through _A

WITH_AN_IDEAL_POINT = {
    "midpoint": lambda v: midpoint(v, _A),
    "rotator": lambda v: rotator(v, 0.5),
    "perp_line_through": lambda v: perp_line_through(_M, v),
    "factor_point": lambda v: factor_point(v),
    "solve_point_line_transport": lambda v: solve_point_line_transport(v, _M, _A, _M),
    "triple_points": lambda v: triple_points(_A, v, _B),
    "distance": lambda v: distance(v, _A),
    "distance_line_point": lambda v: distance(_M, v),
    "project": lambda v: project(v, _M),
    "project_onto": lambda v: project(_M, v),
    "reject": lambda v: reject(v, _M),
    "reject_from": lambda v: reject(_M, v),
}
# what a free vector gives where the closed form covers it; the others refuse it:
# (1, 0) runs along _M, so it projects onto itself and leaves nothing to reject,
# and the exponential of an ideal point is the translator's
IDEAL_RESULTS = {
    "project": IdealPoint(1, 0),
    "reject": None,
    "rotator": translator(IdealPoint(1, 0), 0.5),
}


@pytest.mark.parametrize("name", sorted(WITH_AN_IDEAL_POINT))
def test_ideal_point_forms_are_rejected_alike(name):
    call = WITH_AN_IDEAL_POINT[name]
    outcomes = []
    for v in (IdealPoint(1, 0), Point(1, 0, 0)):
        if name in IDEAL_RESULTS:
            outcomes.append(call(v))
            continue
        with pytest.raises(ClassificationError) as err:
            call(v)
        outcomes.append(str(err.value))
    assert outcomes[0] == outcomes[1]
    if name in IDEAL_RESULTS:
        assert outcomes[0] == IDEAL_RESULTS[name]


def test_reject_rejects_ideal_operands_with_the_texts_of_project():
    # onto an ideal point both refuse, with one text
    for v in (IdealPoint(1, 0), Point(1, 0, 0)):
        texts = []
        for name in ("reject_from", "project_onto"):
            with pytest.raises(ClassificationError) as err:
                WITH_AN_IDEAL_POINT[name](v)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
    # a free vector onto a line: its parts along the line and along the normal
    for v in (IdealPoint(3, 4), Point(3, 4, 0)):
        assert project(v, _M) == IdealPoint(0.6, 0.0)
        assert reject(v, _M) == IdealPoint(0.0, 0.8)


# -- scripts: `ideal V ...` and a computed ideal V behave alike ----------------------

# both define p, q and V, so the two environments draw the same lines
_MADE = "line p 0 1 0\nline q 0 1 -2\nideal V -2 0\n"
_MET = "line p 0 1 0\nline q 0 1 -2\nmeet V p q\n"
_FIGURE = "point A 1 2\npoint C -1 0.5\nline m 1 1 0\nline n 0 1 -2\n"

SCRIPT_BODIES = {
    "succeeds": (
        "join j A V\nprint j\nangle t m V\nprint t\nideal W 1 1\nangle s V W\nprint s\n"
        "reflect R m V\nprint R\ntranslator T V 1.5\napply B T A\nprint B\n"
        "rotator g A 0.3\napply U g V\nprint U\nprint V\nsvg {svg}\n"
    ),
    "dist_point": "dist d V A\n",
    "dist_line": "dist d n V\n",
    "project": "project P V m\nprint P\n",
    "project_onto": "project P m V\n",
    "rotator": "rotator g V 1\nprint g\n",
    "midpoint": "midpoint M A V\n",
    "solve": "solve g V n A n\n",
    "solve_target": "solve g A n V n\n",
}

# a free vector projects onto a line, and its exponential is the translator's
SCRIPT_RESULTS = {
    "project": "P = ideal (-0.707107, 0.707107)\n",
    "rotator": "g = motor(1.000000, -0.500000, 0.000000, 0.000000)\n",
}


def _run(tmp_path, tag, prefix, body, capsys):
    svg = tmp_path / f"{tag}.svg"
    script = tmp_path / f"{tag}.pga"
    script.write_text(prefix + _FIGURE + body.format(svg=svg))
    code = main(["run", str(script)])
    captured = capsys.readouterr()
    value = evaluate(parse(prefix))[0]["V"]
    err = captured.err.replace(repr(value), "<V>")
    return code, captured.out, err, svg.read_bytes() if svg.exists() else None


@pytest.mark.parametrize("name", sorted(SCRIPT_BODIES))
def test_script_treats_made_and_computed_ideal_points_alike(name, tmp_path, capsys):
    body = SCRIPT_BODIES[name]
    made = _run(tmp_path, "made", _MADE, body, capsys)
    met = _run(tmp_path, "met", _MET, body, capsys)
    assert made == met
    code, out, err, svg = made
    if name == "succeeds":
        assert (code, err) == (0, "") and svg.startswith(b"<?xml")
        assert "V = ideal (-1.000000, 0.000000)\n" in out
    elif name in SCRIPT_RESULTS:
        assert (code, out, err) == (0, SCRIPT_RESULTS[name], "")
    else:
        assert code == 2 and err.startswith("error: line 8: ") and err.count("\n") == 1


# -- one grade test ----------------------------------------------------------------


def _sizes(u: Multivector) -> list[float]:
    c = [abs(x) for x in u.coeffs]
    return [c[0], max(c[1:4]), max(c[4:7]), c[7]]


def _residue_rejects(u: Multivector, own: set[int], tol: float) -> bool:
    """The pure-element check as each from_mv wrote it out before grades(),
    with its cutoff scaled by the operand's own size (no floor at 1)."""
    g = _sizes(u)
    residue = max(g[k] for k in range(4) if k not in own)
    return residue > tol * max(*(g[k] for k in own), residue)


def _operands(n: int):
    r = random.Random(20240605)
    for i in range(n):
        coeffs = [
            0.0 if r.random() < 0.3 else r.choice((-1, 1)) * 10.0 ** r.uniform(-14, 4)
            for _ in range(8)
        ]
        tol = r.choice((1e-9, 1e-6, 1e-3, 0.0))
        if i % 2:
            # put one slot at the cutoff of the others, or one float either side
            slot = r.randrange(8)
            coeffs[slot] = 0.0
            cutoff = tol * max(map(abs, coeffs))
            coeffs[slot] = r.choice(
                (cutoff, math.nextafter(cutoff, math.inf), math.nextafter(cutoff, 0.0))
            )
        yield Multivector(coeffs), tol


def test_grades_matches_the_residue_checks_it_replaces():
    owners = ({1}, {2}, {3}, {0, 2}, {1, 3})
    for u, tol in _operands(1000):
        grades = u.grades(tol)
        g = _sizes(u)
        assert grades == {k for k in range(4) if g[k] > tol * max(g)}
        for own in owners:
            assert bool(grades - own) == _residue_rejects(u, own, tol)
        # exp_bivector's form: everything outside grade 2 against the whole
        bivector = u.grade(2)
        assert bool(grades - {2}) == ((u - bivector).max_abs() > tol * u.max_abs())


# each is its class's element plus a scalar part of the same size
@pytest.mark.parametrize(
    "cls, coeffs, message",
    [
        (Line, (1, 0, 1, 0, 0, 0, 0, 0), "not a pure line"),
        (Point, (1, 0, 0, 0, 0, 0, 1, 0), "not a pure point"),
        (Motor, (1, 0, 1, 0, 0, 0, 1, 0), "not an even element"),
        (OddVersor, (1, 0, 1, 0, 0, 0, 0, 1), "not an odd element"),
    ],
    ids=["Line", "Point", "Motor", "OddVersor"],
)
def test_from_mv_rejects_a_part_of_another_grade(cls, coeffs, message):
    with pytest.raises(DomainError, match=f"^{message}: "):
        cls.from_mv(Multivector(coeffs))


# the layout that each class's own mv() wrote out before they shared one: the
# referee of the shared mv and from_mv
OLD_LAYOUT = {
    Line: lambda m: (0.0, m.c, m.a, m.b, 0.0, 0.0, 0.0, 0.0),
    Point: lambda p: (0.0, 0.0, 0.0, 0.0, p.x, p.y, p.z, 0.0),
    Pseudoscalar: lambda q: (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, q.s),
    Motor: lambda g: (g.s, 0.0, 0.0, 0.0, g.bx, g.by, g.bz, 0.0),
    OddVersor: lambda v: (0.0, v.c, v.a, v.b, 0.0, 0.0, 0.0, v.lam),
}


def _bridge_values():
    """Values of every class with an mv(), each field distinct, some of
    them signed zeros and subnormals."""
    r = random.Random(30)
    fields = [-0.0, 5e-324, -2.5e-310, 1e300, 1.5, -7.25]
    for cls in (Line, Point, Motor, OddVersor):
        n = len(cls.__slots__)
        for _ in range(20):
            yield cls(*r.sample(fields, n))
        yield cls(*range(1, n + 1))
    for s in fields:
        yield Pseudoscalar(s)


def test_mv_puts_each_field_in_its_old_blade_and_from_mv_reads_it_back():
    for x in _bridge_values():
        got = x.mv().coeffs
        assert repr(got) == repr(OLD_LAYOUT[type(x)](x)), x
        if not isinstance(x, Pseudoscalar):
            back = type(x).from_mv(x.mv())
            assert back == x and repr(back._key()) == repr(x._key()), x
    assert not hasattr(Pseudoscalar, "from_mv") and not hasattr(Multivector, "from_mv")


# -- euclidean-only and ideal-only operations classify each operand once -------------


def _assert_classified_once(monkeypatch, cases):
    """Each call tests is_ideal on each of its listed operands exactly once."""
    seen = []
    for cls in (Line, Point):

        def counted(self, tol=1e-9, is_ideal=cls.is_ideal):
            seen.append(self)
            return is_ideal(self, tol)

        monkeypatch.setattr(cls, "is_ideal", counted)
    for call, operands in cases:
        seen.clear()
        call()
        assert [sum(x is op for x in seen) for op in operands] == [1] * len(operands)


def test_each_euclidean_only_operand_is_classified_once(monkeypatch):
    a, b, m, n = _A, _B, _M, Line(1, 1, 0)
    m2 = Line(0, 2, 3)  # parallel to m
    a2 = Point(-2, 2, 2)  # on n
    cases = [
        (lambda: distance(a, b), [a, b]),
        (lambda: distance(m, b), [m, b]),
        (lambda: distance(m, m2), [m, m2]),
        (lambda: angle(m, n), [m, n]),
        (lambda: midpoint(a, b), [a, b]),
        (lambda: midline(m, n), [m, n]),
        (lambda: rotator(a, 0.5), [a]),
        (lambda: rotor_from_lines(m, n), [m, n]),
        (lambda: reflect(m, b), [m]),
        (lambda: solve_point_line_transport(a, m, a2, n), [a, m, a2, n]),
    ]
    _assert_classified_once(monkeypatch, cases)


def test_each_ideal_only_operand_is_classified_once(monkeypatch):
    v, w, m = IdealPoint(1, 2), Point(-3, 1, 0), _M
    cases = [
        (lambda: angle(v, w), [v, w]),
        (lambda: angle(m, v), [m, v]),
        (lambda: translator(v, 2.0), [v]),
    ]
    _assert_classified_once(monkeypatch, cases)


def test_each_norm_and_normalize_operand_is_classified_once(monkeypatch):
    v, w, m, z = IdealPoint(1, 2), Point(-3, 1, 0), _M, Line(0, 0, -2)
    cases = [
        (lambda: normalize(_A), [_A]),
        (lambda: normalize(v), [v]),
        (lambda: normalize(w), [w]),
        (lambda: normalize(m), [m]),
        (lambda: normalize(z), [z]),
        (lambda: norm(_A), [_A]),
        (lambda: norm(m), [m]),
        (lambda: ideal_norm(v), [v]),
        (lambda: ideal_norm(w), [w]),
        (lambda: ideal_norm(z), [z]),
        (lambda: is_ideal(_A), [_A]),
        (lambda: is_ideal(z), [z]),
    ]
    _assert_classified_once(monkeypatch, cases)


# -- the two gates, as a lint --------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "pga2d"
# metric.euclidean and metric.ideal gate every operand; algebra's norm and
# ideal_norm reject the kind whose norm they do not measure
GATES = {
    ("metric", "euclidean"), ("metric", "ideal"), ("algebra", "norm"), ("algebra", "ideal_norm"),
}


def _kind_raises(tree: ast.AST, module: str):
    """(line, function) of each ClassificationError raised outside the gates."""

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name == "ClassificationError" and (module, owner) not in GATES:
                yield node.lineno, owner

    yield from walk(tree, None)


def test_every_kind_rejection_is_raised_by_a_gate():
    found = [
        f"{path.name}:{lineno} in {owner}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, owner in _kind_raises(ast.parse(path.read_text(), str(path)), path.stem)
    ]
    assert found == []


# each operand of the other class, or of no element class, is refused by its
# gate, or by its function's own class check, before a field is read; before,
# each either computed on the other class's fields or failed on a missing one
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: midpoint(Line(1, 0, 0), Line(0, 1, -2)), "point must be a Point, not Line"),
        (lambda: translator(Line(0, 0, 1), 1), "translation direction must be a Point, not Line"),
        (lambda: rotator(Line(1, 0, 0), 1.0), "rotation center must be a Point, not Line"),
        (
            lambda: perp_line_through(Point(1, 2, 1), Line(1, 0, 0)),
            "line must be a Line, not Point",
        ),
        (lambda: factor_point(Line(1, 2, 3)), "point must be a Point, not Line"),
        (lambda: ideal_point_of(Point(1, 2, 1)), "line must be a Line, not Point"),
        (
            lambda: solve_point_line_transport(
                Point(0, 0, 1), Point(1, 0, 1), Point(1, 1, 1), Line(0, 1, -1)
            ),
            "line m must be a Line, not Point",
        ),
        (
            lambda: solve_point_line_transport(
                Line(0, 1, -1), Point(0, 0, 1), Line(0, 1, 0), Point(1, 1, 1)
            ),
            "point a must be a Point, not Line",
        ),
        (lambda: midline(Point(0, 0, 1), Point(1, 0, 1)), "line must be a Line, not Point"),
        (lambda: reflect(Point(1, 2, 1), Point(0, 0, 1)), "mirror must be a Line, not Point"),
        (
            lambda: rotor_from_lines(Point(0, 0, 1), Point(1, 0, 1)),
            "mirror must be a Line, not Point",
        ),
        (
            lambda: triple_points(Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 1)),
            "point must be a Point, not Line",
        ),
        (
            lambda: triple_lines(Point(1, 0, 1), Point(0, 1, 1), Point(1, 1, 1)),
            "line must be a Line, not Point",
        ),
        (
            lambda: symmetric_line(Point(1, 0, 1), Point(0, 1, 1), Point(1, 1, 1)),
            "line must be a Line, not Point",
        ),
        (lambda: midpoint(IDENTITY_MOTOR, Point(0, 0, 1)), "point must be a Point, not Motor"),
        (lambda: translator(object(), 1), "translation direction must be a Point, not object"),
        # the motor functions and those of any multivector check the class themselves
        (lambda: factor_motor(Point(1, 2, 1)), "factored motor must be a Motor, not Point"),
        (lambda: log_motor(Line(1, 0, 0)), "motor must be a Motor, not Line"),
        (lambda: interpolate(Point(1, 2, 1), 0.5), "motor must be a Motor, not Point"),
        (lambda: exp_bivector(2.0), "exponential argument must be a bivector, not float"),
        (lambda: polar(2.0), "polar operand must be a multivector, not float"),
    ],
    ids=[
        "midpoint", "translator", "rotator", "perp_line_through", "factor_point",
        "ideal_point_of", "solve", "solve-both-swapped", "midline", "reflect",
        "rotor_from_lines", "triple_points", "triple_lines", "symmetric_line",
        "midpoint-motor", "translator-object",
        "factor_motor", "log_motor", "interpolate", "exp_bivector", "polar",
    ],
)
def test_a_gate_refuses_an_operand_of_the_wrong_class(call, message):
    with pytest.raises(OperandError, match=f"^{message}$"):
        call()


# a value of each class that an export may be handed, and a float
PROBES = (
    Line(1, 2, 3), Point(1, 2, 1), Point(1, 2, 0), Motor(0.8, 0.3, -0.2, 0.6),
    OddVersor(1, 2, 3, 0.5), Pseudoscalar(2.0), 2.0, Multivector((1, 2, 3, 4, 5, 6, 7, 8)),
)


def _exports():
    """(name, function or class) of each callable that pga2d exports, eager
    or loaded on first read, but the error classes."""
    for name in sorted({n for n in vars(pga2d) if not n.startswith("_")} | set(pga2d._LAZY)):
        value = getattr(pga2d, name)
        if callable(value) and not (isinstance(value, type) and issubclass(value, Exception)):
            yield name, value


def test_every_export_returns_or_refuses_each_combination_of_values():
    # an operand of another class is refused before a field it lacks is read
    found = []
    for name, f in _exports():
        required = [
            p for p in inspect.signature(f).parameters.values()
            if p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        ]
        for args in itertools.product(PROBES, repeat=len(required)):
            try:
                got = f(*args)
            except AttributeError as exc:
                found.append(f"{name}{args}: AttributeError: {exc}")
            except (TypeError, AlgebraError, ScriptError, RenderError):
                pass
            else:
                # the conjugate of a typed versor is a value of its class
                if name in ("sandwich", "reflect") and isinstance(args[1], (Motor, OddVersor)):
                    if type(got) is not type(args[1]):
                        found.append(f"{name}{args} gave a {type(got).__name__}")
    assert found == []


def test_the_gate_lint_catches_the_inline_checks():
    inline = (
        "def _require_ideal(p, tol):\n"
        "    if not p.is_ideal(tol):\n"
        "        raise ClassificationError(f'{p!r} is euclidean, not an ideal point')\n"
        "def solve(a, m, tol):\n"
        "    for x, name in ((a, 'point a'), (m, 'line m')):\n"
        "        if x.is_ideal(tol):\n"
        "            raise errors.ClassificationError(f'{name} must be euclidean')\n"
        "def euclidean(x, tol, what):\n"
        "    raise ClassificationError\n"
    )
    assert list(_kind_raises(ast.parse(inline), "geometry")) == [
        (3, "_require_ideal"),
        (7, "solve"),
        (9, "euclidean"),
    ]
    assert list(_kind_raises(ast.parse(inline), "metric")) == [(3, "_require_ideal"), (7, "solve")]


# -- one view of what is shown, as a lint ---------------------------------------------

# the value base's overflow check, the kernel's unchecked wrapper, and the
# two script-path helpers that the algebra reuses (project's operand check
# and the motor exponential) are the only private names one module takes
# from another, by import or as an attribute
SHARED_PRIVATE = {
    ("multivector", "_finite"), ("kernel", "_unchecked"),
    ("geometry", "_operands"), ("isometry", "_exp"),
}
MODULES = {path.stem for path in SRC.glob("*.py")}
# print and the SVG classify and scale each point and line through metric.view
SHOWN_BY_VIEW = {"is_ideal", "unit_direction", "normalize", "_unit"}


def _view_bypasses(tree: ast.AST, module: str):
    """(line, name) of each private name imported from another pga2d module and,
    in script and render, of each call that classifies or scales outside view."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if not source.startswith("pga2d."):
                    continue
                source = source[len("pga2d."):]
            for alias in node.names:
                private = alias.name.startswith("_") and source != module
                if private and (source, alias.name) not in SHARED_PRIVATE:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            source = node.value.id
            private = node.attr.startswith("_") and source in MODULES and source != module
            if private and (source, node.attr) not in SHARED_PRIVATE:
                yield node.lineno, node.attr
        elif isinstance(node, ast.Call) and module in ("script", "render"):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in SHOWN_BY_VIEW:
                yield node.lineno, name


def test_print_and_the_svg_read_points_and_lines_through_the_view():
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, name in _view_bypasses(ast.parse(path.read_text(), str(path)), path.stem)
    ]
    assert found == []


def test_the_view_lint_catches_the_inline_views():
    inline = (
        "from .metric import _unit, unit_direction\n"
        "from .multivector import DEFAULT_TOL, _finite, _set, _unchecked, near_zero\n"
        "from pga2d.elements import _private\n"
        "def _gather(env, tol):\n"
        "    for name, value in env.items():\n"
        "        if value.is_ideal(tol):\n"
        "            yield unit_direction(value.x, value.y)[:2]\n"
        "        elif isinstance(value, Line):\n"
        "            yield metric.normalize(value, tol)\n"
        "        else:\n"
        "            yield _unit(value)\n"
        "    return kernel._unchecked, multivector._unchecked, metric._unit\n"
    )
    assert sorted(_view_bypasses(ast.parse(inline), "render")) == [
        (1, "_unit"),
        (2, "_set"),
        (2, "_unchecked"),
        (3, "_private"),
        (6, "is_ideal"),
        (7, "unit_direction"),
        (9, "normalize"),
        (11, "_unit"),
        (12, "_unchecked"),
        (12, "_unit"),
    ]
    # elsewhere only the private names taken from other modules are flagged
    assert sorted(_view_bypasses(ast.parse(inline), "geometry")) == [
        (1, "_unit"),
        (2, "_set"),
        (2, "_unchecked"),
        (3, "_private"),
        (12, "_unchecked"),
        (12, "_unit"),
    ]


# -- one overflow check, as a lint ----------------------------------------------------

# the calls that check their fields themselves: the value constructors, the
# translator that builds a Motor, and algebra._part's kind
CHECKING = {"Line", "Point", "Motor", "OddVersor", "translator_by", "kind"}
# the constructors that test the sum of their fields inline, then defer to _finite
SUM_TESTS = {"Line.__init__", "Point.__init__", "Motor.__init__", "OddVersor.__init__"}


def _named(node) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _overflow_checks(tree: ast.AST):
    """(line, name) of each checking call with a _finite(...) argument, starred
    or not, and of each isfinite outside _finite and the inline sum tests."""

    def walk(node, owner, sum_test):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call) and _named(node.func) in CHECKING:
            args = [a.value if isinstance(a, (ast.Starred, ast.Subscript)) else a for a in node.args]
            if any(isinstance(a, ast.Call) and _named(a.func) == "_finite" for a in args):
                yield node.lineno, _named(node.func)
        elif _named(node) == "isfinite" and owner != "_finite" and not sum_test:
            yield node.lineno, "isfinite"
        for child in ast.iter_child_nodes(node):
            # the callee of a constructor's isfinite(x + y + ...)
            sum_test = (
                isinstance(node, ast.Call) and child is node.func and owner in SUM_TESTS
                and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
            )
            yield from walk(child, owner, sum_test)

    yield from walk(tree, None, False)


def test_only_finite_decides_that_a_value_is_not_finite():
    found = [
        f"{path.name}:{lineno} {name}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, name in _overflow_checks(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_the_overflow_lint_catches_the_pre_checks():
    inline = (
        "class Point(Frozen):\n"
        "    def __init__(self, x, y, z):\n"
        "        if not math.isfinite(x + y + z) and not all(map(math.isfinite, (x, y, z))):\n"
        "            raise DomainError('non-finite point coordinates')\n"
        "class Pseudoscalar(Frozen):\n"
        "    def __init__(self, s):\n"
        "        if not math.isfinite(s):\n"
        "            raise DomainError('non-finite pseudoscalar')\n"
        "def _finite(values):\n"
        "    if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):\n"
        "        raise DomainError('result is not finite')\n"
        "def _part(kind, fields):\n"
        "    return kind(*_finite(fields)) if any(fields) else None\n"
        "def solve(a2x, ax, a2y, ay, line, lam):\n"
        "    t = translator_by(*_finite((a2x - ax, a2y - ay)))\n"
        "    return OddVersor(*line, _finite((lam,))[0]), Line(_finite(line)[0], 1, isfinite(1))\n"
    )
    assert sorted(_overflow_checks(ast.parse(inline))) == [
        (3, "isfinite"),
        (7, "isfinite"),
        (13, "kind"),
        (15, "translator_by"),
        (16, "Line"),
        (16, "OddVersor"),
        (16, "isfinite"),
    ]
