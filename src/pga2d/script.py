"""Line-oriented construction language: parser, static checks, evaluator.

One statement per line (a line ends at \\n, \\r\\n or \\r); '#' comments out
the rest of its line.  Every defining verb names its result first; names are
single-assignment and must be defined before use (checked while parsing).
Values are points, ideal points, lines, motors or plain numbers.  A verb is
defined in one place, its row of _VERBS: its argument kinds and its result.
A row hands its operands to the library as they are; the library refuses a
class it does not take with OperandError, and evaluate's error for that or
any other library failure names each operand.  Every verb computes on the
fields of its operands; only the conjugate of a motor operand (reflect or
apply of a motor) multiplies 8-slot multivectors.  parse gives each
statement as a plain tuple (lineno, verb, result, args), and evaluate takes
a tuple of them.
The rows read geometry and isometry through the package, which loads each
on its first read, and svg imports the renderer on the first drawing.
"""

import math
import sys

from .elements import IdealPoint, Line, Point
from .errors import AlgebraError, DomainError, EvaluationError, ParseError, RenderError
from .metric import view
from .multivector import DEFAULT_TOL, near_zero


# the package, whose __getattr__ loads geometry and isometry on their first read
pga2d = sys.modules[__package__]


def parse(source: str) -> tuple[tuple[int, str, str | None, tuple], ...]:
    """Parse and statically check a script: verbs, arity, literals, names.

    Returns one plain tuple (lineno, verb, result, args) per statement:
    result is the new name, or None for print and svg; args holds the
    referenced names, numbers (as floats) and path in source order.  A
    rejected line raises ParseError for its first fault in token order."""
    statements = []
    defined: set[str] = set()
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        verb = tokens[0]
        try:
            size, new, numbers, refs = _SHAPES[verb]
        except KeyError:
            raise ParseError(f"unknown verb {verb!r}", lineno) from None
        if len(tokens) != size:
            raise ParseError(f"{verb} takes {size - 1} argument(s), got {len(tokens) - 1}", lineno)
        result = tokens[1] if new else None
        if new:
            # an ASCII letter or _, then ASCII letters, digits or _
            if not (result.isascii() and result.isidentifier()):
                raise ParseError(f"invalid name {result!r}", lineno)
            if result in defined:
                raise ParseError(f"name {result!r} is already defined", lineno)
        names = tokens[1 + new:numbers]
        if refs and not defined.issuperset(names):
            undefined = next(name for name in names if name not in defined)
            raise ParseError(f"undefined name {undefined!r}", lineno)
        try:
            args = (*names, *map(float, tokens[numbers:])) if numbers < size else tuple(names)
        except ValueError:
            for token in tokens[numbers:]:
                try:
                    float(token)
                except ValueError:
                    raise ParseError(f"expected a number, got {token!r}", lineno) from None
        if new:
            defined.add(result)
        statements.append((lineno, verb, result, args))
    return tuple(statements)


def format_value(value, tol: float = DEFAULT_TOL) -> str:
    """Render an environment value with fixed 6-decimal formatting."""
    if isinstance(value, Point):
        ideal, (x, y, _) = view(value, tol)
        text = ("ideal (%.6f, %.6f)" if ideal else "(%.6f, %.6f)") % (x, y)
    elif isinstance(value, Line):
        text = "[%.6f, %.6f, %.6f]" % view(value, tol)[1]
    elif isinstance(value, float):
        text = "%.6f" % value
    elif isinstance(value, pga2d.isometry.Motor):
        text = "motor(%.6f, %.6f, %.6f, %.6f)" % (value.s, value.bx, value.by, value.bz)
    else:
        raise TypeError(f"cannot format {type(value).__name__}")
    # every number has six decimals, so only a negative zero reads -0.000000
    return text.replace("-0.000000", "0.000000")


def _point(env, a, tol):
    x, y = a
    # the weight 1 must stay a thousand times above the ideal cutoff
    if near_zero(1e-3, max(abs(x), abs(y)), tol):
        raise DomainError(
            f"point ({x:g}, {y:g}) is out of range: coordinates must stay within "
            f"1e-3/tol = {1e-3 / tol:g} of the origin"
        )
    return Point(x, y, 1.0)


def _line(env, a, tol):
    m = Line(*a)
    # its distance from the origin is held to a point literal's range; the
    # ideal line (a = b = 0) has none
    if (m.a or m.b) and near_zero(1e-3, abs(m.c) / math.hypot(m.a, m.b), tol):
        raise DomainError(
            f"line [{m.a:g}, {m.b:g}, {m.c:g}] is out of range: it must pass within "
            f"1e-3/tol = {1e-3 / tol:g} of the origin"
        )
    return m


# verb -> (argument kinds after the verb token, the result from env, args and
# tol: the new name's value, print's line or svg's None); a row calls library
# functions through their modules, so a tracer that rebinds one sees them
_VERBS = {
    "point": ("new num num", _point),
    "ideal": ("new num num", lambda env, a, tol: IdealPoint(*a)),
    "line": ("new num num num", _line),
    "join": ("new ref ref", lambda env, a, tol: pga2d.geometry.join(env[a[0]], env[a[1]], tol)),
    "meet": ("new ref ref", lambda env, a, tol: pga2d.geometry.meet(env[a[0]], env[a[1]], tol)),
    "dist": ("new ref ref", lambda env, a, tol: pga2d.geometry.distance(env[a[0]], env[a[1]], tol)),
    "angle": ("new ref ref", lambda env, a, tol: pga2d.geometry.angle(env[a[0]], env[a[1]], tol)),
    "reflect": ("new ref ref", lambda env, a, tol: pga2d.isometry.reflect(
        env[a[0]], env[a[1]], tol)),
    "rotor": ("new ref ref", lambda env, a, tol: pga2d.isometry.rotor_from_lines(
        env[a[0]], env[a[1]], tol)),
    "rotator": ("new ref num", lambda env, a, tol: pga2d.isometry.rotator(env[a[0]], a[1], tol)),
    "translator": ("new ref num", lambda env, a, tol: pga2d.isometry.translator(
        env[a[0]], a[1], tol)),
    "apply": ("new ref ref", lambda env, a, tol: pga2d.isometry.sandwich(env[a[0]], env[a[1]])),
    "solve": ("new ref ref ref ref", lambda env, a, tol: pga2d.isometry.solve_point_line_transport(
        env[a[0]], env[a[1]], env[a[2]], env[a[3]], tol)),
    "project": ("new ref ref", lambda env, a, tol: pga2d.geometry.project(
        env[a[0]], env[a[1]], tol)),
    "midpoint": ("new ref ref", lambda env, a, tol: pga2d.geometry.midpoint(
        env[a[0]], env[a[1]], tol)),
    "midline": ("new ref ref", lambda env, a, tol: pga2d.geometry.midline(
        env[a[0]], env[a[1]], tol)),
    "print": ("ref", lambda env, a, tol: f"{a[0]} = {format_value(env[a[0]], tol)}\n"),
    "svg": ("path", lambda env, a, tol: render_svg(env, a[0], tol)),
}
_SIGNATURES = {verb: tuple(kinds.split()) for verb, (kinds, _) in _VERBS.items()}
# verb -> (token count, new name first, index of the first number, names are refs)
_SHAPES = {
    verb: (len(sig) + 1, sig[0] == "new", len(sig) + 1 - sig.count("num"), "ref" in sig)
    for verb, sig in _SIGNATURES.items()
}


def evaluate(
    statements: tuple[tuple[int, str, str | None, tuple], ...], tol: float = DEFAULT_TOL, emit=None
) -> tuple[dict, str]:
    """Run parsed statements; returns the final environment and printed text.

    Each printed line goes to emit(line) as its statement runs; with no emit,
    the lines make up the returned text, which is empty when emit is given.
    The first failing statement stops the run with an EvaluationError that
    carries its line number and the library's text, followed by the name,
    class and defining line of each operand, if the statement names any
    (svg's path is no operand); an exception from emit propagates unchanged.
    """
    env: dict[str, object] = {}
    out: list[str] = []
    emit = emit or out.append
    for lineno, verb, result, args in statements:
        try:
            value = _VERBS[verb][1](env, args, tol)
        except (AlgebraError, RenderError, OSError) as exc:
            # each operand's class and defining line, looked up only here; the
            # names before the numbers are operands when the verb takes refs
            _, new, numbers, refs = _SHAPES[verb]
            made = {name: line for line, _, name, _ in statements}
            names = dict.fromkeys(args[:numbers - 1 - new] if refs else ())
            operands = "; ".join(f"{n}: {type(env[n]).__name__}, line {made[n]}" for n in names)
            raise EvaluationError(f"{exc} ({operands})" if names else str(exc), lineno) from exc
        if result is not None:
            env[result] = value
        elif value is not None:
            emit(value)
    return env, "".join(out)


def render_svg(env: dict, path, tol: float = DEFAULT_TOL) -> None:
    """render.render_svg, importing the renderer on the first drawing."""
    from .render import render_svg

    render_svg(env, path, tol)

