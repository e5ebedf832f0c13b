"""Line-oriented construction language: parser, static checks, evaluator.

One statement per line (a line ends at \\n, \\r\\n or \\r); '#' comments out
the rest of its line.  Every defining verb names its result first; names are
single-assignment and must be defined before use (checked while parsing).
Values are points, ideal points, lines, motors or plain numbers.  Each verb's
result type is fixed by the verb, and only project multiplies 8-slot
multivectors.
"""

from __future__ import annotations

from . import geometry, isometry
from .elements import IdealPoint, Line, Point, cross
from .errors import AlgebraError, DomainError, EvaluationError, ParseError, RenderError
from .isometry import Motor
from .metric import view
from .multivector import DEFAULT_TOL, Frozen, _set, near_zero

# verb -> argument kinds after the verb token
_SIGNATURES = {
    verb: tuple(kinds.split())
    for kinds, verbs in {
        "new num num": "point ideal",
        "new num num num": "line",
        "new ref ref": "join meet dist angle reflect rotor apply project midpoint midline",
        "new ref num": "rotator translator",
        "new ref ref ref ref": "solve",
        "ref": "print",
        "path": "svg",
    }.items()
    for verb in verbs.split()
}
# verb -> (token count, new name first, index of the first number, names are refs)
_SHAPES = {
    verb: (len(sig) + 1, sig[0] == "new", len(sig) + 1 - sig.count("num"), "ref" in sig)
    for verb, sig in _SIGNATURES.items()
}


class Statement(Frozen):
    __slots__ = ("lineno", "verb", "result", "args")

    def __init__(self, lineno: int, verb: str, result: str | None, args: tuple):
        _lineno(self, lineno)
        _verb(self, verb)
        _result(self, result)
        _args(self, args)

    def _key(self) -> tuple:
        # the line number is diagnostic provenance, not program content
        return self.verb, self.result, self.args


# Statement.__init__ sets each field through its slot, faster than _set
_lineno, _verb, _result, _args = (getattr(Statement, f).__set__ for f in Statement.__slots__)


class Program(Frozen):
    __slots__ = ("statements",)

    def __init__(self, statements: tuple[Statement, ...]):
        _set(self, "statements", statements)


def parse(source: str) -> Program:
    """Parse and statically check a script: verbs, arity, literals, names."""
    statements = []
    defined: set[str] = set()
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        verb = tokens[0]
        # an unknown verb fails the token count
        size, new, numbers, refs = _SHAPES.get(verb, (0, 0, 0, 0))
        try:
            if len(tokens) != size:
                raise ValueError
            result = tokens[1] if new else None
            names = tokens[1 + new:numbers]
            args = (*names, *map(float, tokens[numbers:])) if numbers < size else tuple(names)
            # a new name is an ASCII letter or _, then ASCII letters, digits or _
            if new and not (result.isascii() and result.isidentifier()) or (
                result in defined or refs and not defined.issuperset(names)
            ):
                raise ValueError
        except ValueError:
            raise ParseError(_fault(tokens, defined), lineno) from None
        if new:
            defined.add(result)
        statements.append(Statement(lineno, verb, result, args))
    return Program(tuple(statements))


def _fault(tokens: list[str], defined: set[str]) -> str:
    """The first fault, in token order, of a line that parse rejects."""
    verb, *given = tokens
    sig = _SIGNATURES.get(verb)
    if sig is None:
        return f"unknown verb {verb!r}"
    if len(given) != len(sig):
        return f"{verb} takes {len(sig)} argument(s), got {len(given)}"
    for kind, token in zip(sig, given):
        if kind == "new" and not (token.isascii() and token.isidentifier()):
            return f"invalid name {token!r}"
        if kind == "new" and token in defined:
            return f"name {token!r} is already defined"
        if kind == "ref" and token not in defined:
            return f"undefined name {token!r}"
        if kind == "num":
            try:
                float(token)
            except ValueError:
                return f"expected a number, got {token!r}"


def format_program(program: Program) -> str:
    """Canonical text form; parsing it back gives an identical Program."""
    lines = []
    for st in program.statements:
        tokens = [st.verb]
        if st.result is not None:
            tokens.append(st.result)
        tokens.extend(repr(a) if isinstance(a, float) else str(a) for a in st.args)
        lines.append(" ".join(tokens))
    return "\n".join(lines) + ("\n" if lines else "")


def format_value(value, tol: float = DEFAULT_TOL) -> str:
    """Render an environment value with fixed 6-decimal formatting."""
    if isinstance(value, float):
        form, numbers = "{:.6f}", (value,)
    elif isinstance(value, Line):
        form, numbers = "[{:.6f}, {:.6f}, {:.6f}]", view(value, tol)[1]
    elif isinstance(value, Point):
        ideal, numbers = view(value, tol)
        form = "ideal ({:.6f}, {:.6f})" if ideal else "({:.6f}, {:.6f})"
    elif isinstance(value, Motor):
        form = "motor({:.6f}, {:.6f}, {:.6f}, {:.6f})"
        numbers = value.s, value.bx, value.by, value.bz
    else:
        raise TypeError(f"cannot format {type(value).__name__}")
    # every number has six decimals, so only a negative zero reads -0.000000
    return form.format(*numbers).replace("-0.000000", "0.000000")


def _cross(u: tuple, v: tuple, tol: float) -> tuple[float, float, float]:
    """The join of two points or meet of two lines, unless it is near_zero
    against the product of their largest coefficients (divided by one of
    them: the product can overflow, and then every result reads as zero)."""
    w = cross(u, v)
    if near_zero(max(map(abs, w)) / max(map(abs, u)), max(map(abs, v)), tol):
        raise DomainError("result is the zero element (dependent arguments?)")
    return w


def _want(env, name: str, types, what: str):
    value = env[name]
    if not isinstance(value, types):
        raise DomainError(
            f"{what} must be {_type_names(types)}, but {name!r} is {type(value).__name__}"
        )
    return value


def _type_names(types) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def evaluate(program: Program, tol: float = DEFAULT_TOL) -> tuple[dict, str]:
    """Run a parsed program; returns the final environment and printed text.

    Execution stops at the first failing statement, re-raised as an
    EvaluationError carrying the line number and the text printed before it.
    """
    env: dict[str, object] = {}
    out: list[str] = []
    for st in program.statements:
        try:
            _execute(st, env, out, tol)
        except (AlgebraError, RenderError, OSError) as exc:
            raise EvaluationError(str(exc), st.lineno, _joined(out)) from exc
    return env, _joined(out)


def _joined(lines: list[str]) -> str:
    return "".join(f"{line}\n" for line in lines)


def _execute(st: Statement, env: dict, out: list[str], tol: float) -> None:
    verb, args = st.verb, st.args
    if verb == "point":
        x, y = args
        # the weight 1 must stay a thousand times above the ideal cutoff
        if near_zero(1e-3, max(abs(x), abs(y)), tol):
            raise DomainError(
                f"point ({x:g}, {y:g}) is out of range: coordinates must stay within "
                f"1e-3/tol = {1e-3 / tol:g} of the origin"
            )
        env[st.result] = Point(x, y, 1.0)
    elif verb == "ideal":
        env[st.result] = IdealPoint(args[0], args[1])
    elif verb == "line":
        env[st.result] = Line(args[0], args[1], args[2])
    elif verb == "join":
        p = _want(env, args[0], Point, "join argument")
        q = _want(env, args[1], Point, "join argument")
        env[st.result] = Line(*_cross((p.x, p.y, p.z), (q.x, q.y, q.z), tol))
    elif verb == "meet":
        m = _want(env, args[0], Line, "meet argument")
        n = _want(env, args[1], Line, "meet argument")
        env[st.result] = Point(*_cross((m.a, m.b, m.c), (n.a, n.b, n.c), tol))
    elif verb == "dist":
        x = _want(env, args[0], (Point, Line), "dist argument")
        y = _want(env, args[1], (Point, Line), "dist argument")
        env[st.result] = geometry.distance(x, y, tol).value
    elif verb == "angle":
        x = _want(env, args[0], (Point, Line), "angle argument")
        y = _want(env, args[1], (Point, Line), "angle argument")
        env[st.result] = geometry.angle(x, y, tol).value
    elif verb == "reflect":
        m = _want(env, args[0], Line, "mirror")
        x = _want(env, args[1], (Point, Line), "reflect operand")
        env[st.result] = isometry.reflect(m, x, tol)
    elif verb == "rotor":
        a = _want(env, args[0], Line, "mirror")
        b = _want(env, args[1], Line, "mirror")
        env[st.result] = isometry.rotor_from_lines(a, b, tol)
    elif verb == "rotator":
        p = _want(env, args[0], Point, "rotation center")
        env[st.result] = isometry.rotator(p, args[1], tol)
    elif verb == "translator":
        v = _want(env, args[0], Point, "translation direction")
        env[st.result] = isometry.translator(v, args[1], tol)
    elif verb == "apply":
        g = _want(env, args[0], Motor, "versor")
        x = _want(env, args[1], (Point, Line), "apply operand")
        env[st.result] = isometry.sandwich(g, x)
    elif verb == "solve":
        a = _want(env, args[0], Point, "point")
        m = _want(env, args[1], Line, "line")
        a2 = _want(env, args[2], Point, "point")
        m2 = _want(env, args[3], Line, "line")
        env[st.result] = isometry.solve_point_line_transport(a, m, a2, m2, tol)
    elif verb == "project":
        x = _want(env, args[0], (Point, Line), "project argument")
        y = _want(env, args[1], (Point, Line), "project target")
        # the parallel part of a line is a line, of a point a point
        c = geometry.project(x, y, tol).parallel_part.coeffs
        env[st.result] = Line(c[2], c[3], c[1]) if isinstance(x, Line) else Point(*c[4:7])
    elif verb == "midpoint":
        p = _want(env, args[0], Point, "point")
        q = _want(env, args[1], Point, "point")
        env[st.result] = geometry.midpoint(p, q, tol)
    elif verb == "midline":
        m = _want(env, args[0], Line, "line")
        n = _want(env, args[1], Line, "line")
        env[st.result] = geometry.midline(m, n, tol)
    elif verb == "print":
        out.append(f"{args[0]} = {format_value(env[args[0]], tol)}")
    elif verb == "svg":
        from .render import render_svg

        render_svg(env, args[0], tol)
    else:  # pragma: no cover - parser rejects unknown verbs
        raise DomainError(f"unhandled verb {verb!r}")
