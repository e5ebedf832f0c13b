"""Construction language: parsing, evaluation, golden runs, SVG, CLI."""

import ast
import gc
import inspect
import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path
from unittest import mock
from xml.dom import minidom

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cases
import lints
import pga2d
from pga2d import isometry, metric, render
from pga2d.cli import _parse_args, _read, main
from pga2d.errors import DomainError, EvaluationError, OperandError, ParseError, RenderError
from pga2d.elements import Line, Point
from pga2d.geometry import angle
from pga2d.isometry import Motor, translator
from pga2d.metric import normalize, view
from pga2d.multivector import DEFAULT_TOL, near_zero
from pga2d.render import (
    _ARROW_LEN, _CIRCLE, _HEAD, _LABEL, _LINE, VIEW, _clip_line, _world_window, build_svg,
)
from pga2d.script import _SIGNATURES, evaluate, format_value, parse

SCRIPTS = Path(__file__).parent / "data" / "scripts"
# the CLI's edge cases, each with its recorded exit code, stdout and stderr
CASES = cases.load()


# -- parsing -------------------------------------------------------------------


def test_parse_simple_statements():
    program = parse("point A 0 0\ndist d A A  # comment\n\n# full comment line\n")
    assert [verb for _, verb, _, _ in program] == ["point", "dist"]
    (_, _, result, args), (_, _, _, refs) = program
    assert result == "A"
    assert args == (0.0, 0.0)
    assert refs == ("A", "A")


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse("point A 0 0\nmeet P\n")
    assert err.value.lineno == 2
    assert "meet takes 3" in str(err.value)


def test_parse_rejects_unknown_verb():
    with pytest.raises(ParseError) as err:
        parse("frobnicate X 1 2")
    assert "unknown verb" in str(err.value)
    assert err.value.lineno == 1


def test_parse_rejects_undefined_reference():
    with pytest.raises(ParseError) as err:
        parse("print X")
    assert "undefined name 'X'" in str(err.value)


def test_parse_rejects_reassignment():
    with pytest.raises(ParseError) as err:
        parse("point A 0 0\npoint A 1 1\n")
    assert "already defined" in str(err.value)
    assert err.value.lineno == 2


def test_parse_rejects_bad_literal():
    with pytest.raises(ParseError) as err:
        parse("point A zero 0")
    assert "expected a number" in str(err.value)


def test_parse_rejects_bad_result_name():
    with pytest.raises(ParseError):
        parse("point 3x 0 0")


# the name rule as a regular expression, the parser's rule before it used
# str.isidentifier; kept here as the oracle
_OLD_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
# tokens come from str.split, so they hold no whitespace; '#' starts a comment
_NAME_CHARS = st.one_of(
    st.sampled_from("azAZ_09éßıﬁＡｚ０٣\u212a²"),
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"), blacklist_characters="#"),
)


@settings(max_examples=300)
@given(token=st.text(_NAME_CHARS, min_size=1, max_size=6))
@example(token="Ａ")  # fullwidth A
@example(token="é")
@example(token="3x")
@example(token="x\u00b2")
def test_parse_accepts_the_names_the_old_regex_accepted(token):
    source = f"point {token} 0 0"
    if _OLD_NAME_RE.match(token):
        ((_, _, result, _),) = parse(source)
        assert result == token
    else:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == f"line 1: invalid name {token!r}"


def _old_parse(source: str) -> tuple[tuple[int, str, str | None, tuple], ...]:
    """The parser before it checked each line in one pass, kept as the oracle
    for statements and error messages (it split lines with str.splitlines)."""
    statements = []
    defined: set[str] = set()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        verb = tokens[0]
        sig = _SIGNATURES.get(verb)
        if sig is None:
            raise ParseError(f"unknown verb {verb!r}", lineno)
        if len(tokens) - 1 != len(sig):
            raise ParseError(
                f"{verb} takes {len(sig)} argument(s), got {len(tokens) - 1}", lineno
            )
        result: str | None = None
        args: list = []
        for kind, token in zip(sig, tokens[1:]):
            if kind == "new":
                # an ASCII letter or _, then ASCII letters, digits or _
                if not (token.isascii() and token.isidentifier()):
                    raise ParseError(f"invalid name {token!r}", lineno)
                if token in defined:
                    raise ParseError(f"name {token!r} is already defined", lineno)
                result = token
            elif kind == "ref":
                if token not in defined:
                    raise ParseError(f"undefined name {token!r}", lineno)
                args.append(token)
            elif kind == "num":
                try:
                    args.append(float(token))
                except ValueError:
                    raise ParseError(f"expected a number, got {token!r}", lineno) from None
            else:  # path
                args.append(token)
        if result is not None:
            defined.add(result)
        statements.append((lineno, verb, result, tuple(args)))
    return tuple(statements)


# A, B, m and n are defined by a preamble that most drawn scripts start with
_PREAMBLE = ["point A 0 0", "point B 1 1", "line m 1 0 0", "line n 0 1 0"]
# float() takes underscores, nan, inf and non-ASCII digits
_TOKENS = {
    "new": st.sampled_from(["C", "P1", "_x", "g", "h", "k", "A"]),
    "ref": st.sampled_from(["A", "B", "m", "n"] * 3 + ["C", "P1"]),
    "num": st.sampled_from(["0", "-1.5", "1e3", "-0", "nan", "-inf", "1_0", "٣", "１"]),
    "path": st.sampled_from(["out.svg", "A"]),
}
_BAD_TOKENS = st.sampled_from(
    ["3x", "é", "Ａ", "x-y", "ﬁ", "a.b", "x²", "\u212a", "0x10", "1e", "zero", "1__0"]
)


@st.composite
def _parse_lines(draw):
    """A line of a script: a statement of a known or unknown verb with the
    right or a wrong number of tokens of its kinds or of others, a comment or
    a blank; spaces and tabs only, so that both parsers see the same lines."""
    pad, gap = st.sampled_from(["", " ", "\t"]), st.sampled_from([" ", "\t", " \t "])
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(["", "   ", "# a comment", "\t# x # y"]))
    verb = draw(st.sampled_from(sorted(_SIGNATURES)))
    if draw(st.integers(0, 15)) == 0:
        verb = draw(st.sampled_from(["frob", "Point", "#print", "print#"]))
    kinds = list(_SIGNATURES.get(verb, ("ref",)))
    if draw(st.integers(0, 9)) == 0:
        kinds = kinds[:-1] if draw(st.booleans()) else kinds + ["num"]
    tokens = [verb] + [
        draw(_BAD_TOKENS if draw(st.integers(0, 15)) == 0 else _TOKENS[kind]) for kind in kinds
    ]
    comment = draw(st.sampled_from(["", " # note", "#", " # point Z 1 2"]))
    return draw(pad) + draw(gap).join(tokens) + comment


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_parse_lines(), max_size=12), preamble=st.integers(0, 3))
@example(lines=["point A 1 2", "point A 3 4"], preamble=0)
@example(lines=["join A A A"], preamble=0)
@example(lines=["point é nan 1_0"], preamble=0)
@example(lines=["line m 1 ٣ 0", "print m # done"], preamble=0)
def test_parse_matches_the_old_parser(lines, preamble):
    """The same statements with the same line numbers, or the same error."""

    def outcome(parser):
        try:
            program = parser(source)
        except ParseError as exc:
            return str(exc), exc.lineno
        # repr tells nan and -0.0 apart; == would not
        return type(program), [(type(st), st[:3], repr(st[3:])) for st in program]

    source = "\n".join((_PREAMBLE if preamble else []) + lines)
    assert outcome(parse) == outcome(_old_parse)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_lines_end_at_newline_crlf_or_cr(end):
    program = parse(end.join(["point A 1 2", "", "point B 3 4\x0b\x1c", "print B", ""]))
    assert [(lineno, verb) for lineno, verb, _, _ in program] == [
        (1, "point"), (3, "point"), (4, "print")
    ]


def test_parse_returns_plain_tuples_that_evaluate_runs():
    program = parse("point A 0 0\n\npoint B 3 4\ndist d A B\nprint d\nsvg out.svg\n")
    assert type(program) is tuple
    for st in program:
        assert type(st) is tuple and len(st) == 4
        lineno, verb, result, args = st
        assert type(lineno) is int and type(verb) is str and type(args) is tuple
        assert result is None or type(result) is str
    assert program == (
        (1, "point", "A", (0.0, 0.0)),
        (3, "point", "B", (3.0, 4.0)),
        (4, "dist", "d", ("A", "B")),
        (5, "print", None, ("d",)),
        (6, "svg", None, ("out.svg",)),
    )
    # a program built by hand runs like a parsed one, and its line numbers
    # are the ones an error reports
    built = ((7, "point", "A", (0.0, 0.0)), (8, "point", "B", (3.0, 4.0)),
             (9, "dist", "d", ("A", "B")), (10, "print", None, ("d",)))
    assert evaluate(built)[1] == "d = 5.000000\n"
    lines = []
    with pytest.raises(EvaluationError) as err:
        evaluate(built + ((12, "join", "m", ("A", "A")),), emit=lines.append)
    assert err.value.lineno == 12 and "".join(lines) == "d = 5.000000\n"


# -- evaluation ----------------------------------------------------------------


def test_evaluate_distance_script():
    _, output = evaluate(parse("point A 0 0\npoint B 3 4\ndist d A B\nprint d\n"))
    assert output == "d = 5.000000\n"


def test_evaluate_meet_script():
    _, output = evaluate(parse("line m 1 0 0\nline n 0 1 0\nmeet P m n\nprint P\n"))
    assert output == "P = (0.000000, 0.000000)\n"


def test_evaluate_meet_of_parallels_is_ideal():
    _, output = evaluate(parse("line m 1 0 0\nline n 1 0 -2\nmeet P m n\nprint P\n"))
    assert output == "P = ideal (0.000000, 1.000000)\n"


def test_evaluate_ideal_and_translator():
    env, output = evaluate(
        parse("ideal V 0 1\ntranslator t V 1\npoint O 0 0\napply P t O\nprint P\n")
    )
    assert output == "P = (-1.000000, 0.000000)\n"
    assert isinstance(env["t"], Motor)


def test_evaluate_projection_binds_parallel_part():
    env, output = evaluate(
        parse("point P 1 1\nline m 0 1 0\nproject F P m\nprint F\n")
    )
    assert output == "F = (1.000000, 0.000000)\n"
    assert isinstance(env["F"], Point)


def test_evaluate_projection_builds_no_rejection():
    # the rejection of m from n overflows at tol 0; the verb never builds it
    env, _ = evaluate(
        parse("line m 0.6 0.8 1.5e308\nline n 0.8 0.6 -1.5e308\nproject p m n\n"), tol=0.0
    )
    assert env["p"] == Line(0.768, 0.576, -1.44e308)


def test_evaluate_reports_line_number_on_failure():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 0 0\njoin l A A\n"))
    assert err.value.lineno == 2
    assert "zero element" in str(err.value)


def test_evaluate_type_errors_are_evaluation_errors():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 0 0\npoint B 1 0\nrotor g A B\n"))
    assert err.value.lineno == 3
    assert "mirror" in str(err.value)


def test_evaluate_keeps_output_printed_before_the_failure():
    lines = []
    with pytest.raises(EvaluationError) as err:
        evaluate(parse(CASES["failing"].source.decode()), emit=lines.append)
    assert err.value.lineno == 5
    assert "".join(lines) == "A = (1.000000, 2.000000)\n"


def test_the_sink_runs_at_its_statement_outside_the_error_wrap(tmp_path):
    svg = tmp_path / "out.svg"
    program = (
        (1, "point", "A", (1.0, 2.0)), (2, "print", None, ("A",)), (3, "svg", None, (str(svg),)),
    )
    lines = []
    evaluate(program, emit=lines.append)
    assert lines == ["A = (1.000000, 2.000000)\n"] and svg.exists()
    svg.unlink()

    def closed(line):  # a sink whose first write fails, as on a closed stdout
        raise BrokenPipeError(32, "Broken pipe")

    # the sink's own error, not an EvaluationError, and the run stops at it
    with pytest.raises(BrokenPipeError):
        evaluate(program, emit=closed)
    assert not svg.exists()


@pytest.mark.parametrize(
    "source, printed",
    [
        ("ideal v 1.7e308 1.7e308\nprint v\n", "v = ideal (0.707107, 0.707107)\n"),
        ("line m 1.7e308 1.7e308 0\nprint m\n", "m = [0.707107, 0.707107, 0.000000]\n"),
        ("line m 5e-324 5e-324 0\nprint m\n", "m = [0.707107, 0.707107, 0.000000]\n"),
    ],
)
def test_evaluate_unit_directions_of_huge_coordinates(source, printed):
    _, output = evaluate(parse(source))
    assert output == printed


def test_subnormal_ideal_point_acts_like_its_unit_direction():
    body = (
        "ideal W 3 4\nangle a V W\npoint O 0 0\ntranslator t V 1\napply P t O\n"
        "print a\nprint P\nprint V\n"
    )
    _, tiny = evaluate(parse("ideal V 5e-324 5e-324\n" + body))
    _, unit = evaluate(parse("ideal V 1 1\n" + body))
    assert tiny == unit == (
        "a = 0.141897\nP = (-0.707107, 0.707107)\nV = ideal (0.707107, 0.707107)\n"
    )


@pytest.mark.parametrize(
    "failing, message",
    [
        ("rotor g A A", "line 3: mirror must be a Line, not Point (A: Point, line 1)"),
        # any other failure names the operands too, a repeated one once
        (
            "join l A A",
            "line 3: result is the zero element (dependent arguments?) (A: Point, line 1)",
        ),
        (
            "point B 2e9 0",
            "line 3: point (2e+09, 0) is out of range: coordinates must stay within "
            "1e-3/tol = 1e+06 of the origin",
        ),
        # one wrong class per operand role, refused by the library and named
        # with each operand's class and defining line
        (
            "line m 0 1 0\njoin l A m",
            "line 4: no join of Point and Line (A: Point, line 1; m: Line, line 3)",
        ),
        ("meet P A A", "line 3: no meet of Point and Point (A: Point, line 1)"),
        (
            "rotator r A 1\ndist d A r",
            "line 4: no distance between Point and Motor (A: Point, line 1; r: Motor, line 3)",
        ),
        (
            "rotator r A 1\nangle t r A",
            "line 4: no angle between Motor and Point (r: Motor, line 3; A: Point, line 1)",
        ),
        # a motor is reflected and applied (see the motor-operand test); a number is not
        (
            "line m 0 1 0\ndist d A A\nreflect Q m d",
            "line 5: cannot apply a versor to float (m: Line, line 3; d: float, line 4)",
        ),
        (
            "line m 0 1 0\nrotator h m 1",
            "line 4: rotation center must be a Point, not Line (m: Line, line 3)",
        ),
        (
            "line m 0 1 0\ntranslator t m 1",
            "line 4: translation direction must be a Point, not Line (m: Line, line 3)",
        ),
        ("apply P A A", "line 3: cannot use Point as a versor (A: Point, line 1)"),
        (
            "rotator r A 1\ndist d A A\napply P r d",
            "line 5: cannot apply a versor to float (r: Motor, line 3; d: float, line 4)",
        ),
        (
            "line m 0 1 0\nmidpoint M A m",
            "line 4: point must be a Point, not Line (A: Point, line 1; m: Line, line 3)",
        ),
        ("midline b A A", "line 3: line must be a Line, not Point (A: Point, line 1)"),
        # the solver gates its operands in argument order, so the class of m
        # is refused before the kind of a2
        (
            "point P 1 2\nideal V 3 4\nsolve R P P V P",
            "line 5: line m must be a Line, not Point (P: Point, line 3; V: Point, line 4)",
        ),
        (
            "rotator r A 1\nproject p r A",
            "line 4: cannot project Motor onto Point (r: Motor, line 3; A: Point, line 1)",
        ),
        (
            "rotator r A 1\nproject p A r",
            "line 4: cannot project Point onto Motor (A: Point, line 1; r: Motor, line 3)",
        ),
        (
            "line m 1 0 0\nline n 0 1 0\nproject p m n",
            "line 5: zero element is not a line (m: Line, line 3; n: Line, line 4)",
        ),
    ],
)
def test_statement_errors_carry_their_line_and_the_output_before_them(failing, message):
    lines = []
    with pytest.raises(EvaluationError) as err:
        evaluate(parse(f"point A 1 2\nprint A\n{failing}\nprint A\n"), emit=lines.append)
    assert str(err.value) == message
    assert err.value.lineno == 3 + failing.count("\n")
    assert "".join(lines) == "A = (1.000000, 2.000000)\n"


# module -> (function name, a script whose last verb calls it) pairs
_LIBRARY_CALLS = {
    "geometry": (
        ("distance", "point A 0 0\npoint B 3 4\ndist d A B"),
        ("angle", "line m 1 0 0\nline n 0 1 0\nangle t m n"),
        ("midpoint", "point A 0 0\npoint B 3 4\nmidpoint M A B"),
        ("midline", "line m 1 0 0\nline n 0 1 0\nmidline b m n"),
        ("project", "point A 3 4\nline m 1 0 0\nproject p A m"),
    ),
    "isometry": (
        ("reflect", "line m 1 0 0\npoint A 3 4\nreflect Q m A"),
        ("rotor_from_lines", "line m 1 0 0\nline n 0 1 0\nrotor g m n"),
        ("rotator", "point A 3 4\nrotator g A 1"),
        ("translator", "ideal V 1 0\ntranslator t V 2"),
        ("sandwich", "point A 3 4\nrotator g A 1\napply P g A"),
        (
            "solve_point_line_transport",
            "point A 0 0\nline m 1 0 0\npoint B 1 1\nline n 0 1 -1\nsolve g A m B n",
        ),
    ),
}


@pytest.mark.parametrize(
    "module, name, source",
    [
        pytest.param(module, name, source, id=f"{module}.{name}")
        for module, calls in _LIBRARY_CALLS.items()
        for name, source in calls
    ],
)
def test_each_verb_calls_the_library_through_its_module(monkeypatch, module, name, source):
    # bench/spans.py traces a function by rebinding its module attribute: a
    # verb that held the function object would drop out of the trace
    owner = sys.modules[f"pga2d.{module}"]
    original = getattr(owner, name)
    callers = []

    def recording(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    evaluate(parse(source))
    assert "pga2d.script" in callers


# reflect and apply hand a motor operand to the library, which conjugates it:
# a reflection reverses the turn and moves the centre, and g commutes with g
@pytest.mark.parametrize(
    "source, conjugate, printed",
    [
        (
            "line m 1 1 -1\nreflect Q m g",
            lambda env: isometry.sandwich(
                isometry.OddVersor(*view(env["m"], DEFAULT_TOL)[1], 0.0), env["g"]
            ),
            "Q = motor(0.877583, 0.479426, 0.000000, -0.479426)\n",
        ),
        (
            "apply Q g g",
            lambda env: isometry.sandwich(env["g"], env["g"]),
            "Q = motor(0.877583, 0.479426, 0.958851, 0.479426)\n",
        ),
    ],
    ids=["reflect", "apply"],
)
def test_a_motor_operand_gives_the_library_conjugate(source, conjugate, printed):
    env, out = evaluate(parse(f"point A 1 2\nrotator g A 1\n{source}\nprint Q\n"))
    assert type(env["Q"]) is Motor and env["Q"] == conjugate(env)
    assert out == printed


# a value of each class that a script can hold, one per line: a point, an
# ideal point, a line, a motor and a number
_HELD = {
    "P": ("point P 1 2", "Point"),
    "V": ("ideal V 3 4", "Point"),
    "m": ("line m 1 1 -1", "Line"),
    "g": ("rotator g P 1", "Motor"),
    "d": ("dist d P P", "float"),
}
_DEFINED = "".join(f"{line}\n" for line, _ in _HELD.values())
_ELEMENT = {"Point", "Line"}
# verb -> the classes that each of its operands may have
_ACCEPTS = {
    "join": ({"Point"}, {"Point"}),
    "meet": ({"Line"}, {"Line"}),
    "dist": (_ELEMENT, _ELEMENT),
    "angle": (_ELEMENT, _ELEMENT),
    "reflect": ({"Line"}, {"Point", "Line", "Motor"}),
    "rotor": ({"Line"}, {"Line"}),
    "rotator": ({"Point"},),
    "translator": ({"Point"},),
    "apply": ({"Motor"}, {"Point", "Line", "Motor"}),
    "solve": ({"Point"}, {"Line"}, {"Point"}, {"Line"}),
    "project": (_ELEMENT, _ELEMENT),
    "midpoint": ({"Point"}, {"Point"}),
    "midline": ({"Line"}, {"Line"}),
}


def test_every_verb_gives_a_result_or_names_the_operands_it_refuses():
    # every verb that takes a name, print aside, over every combination of
    # the held values: only the classes it accepts give a value, and only the
    # others an OperandError; a refusal of one operand's kind or value may
    # come before that of another's class, and each is reported with each operand
    assert _ACCEPTS.keys() == {v for v, sig in _SIGNATURES.items() if "ref" in sig} - {"print"}
    for verb, classes in _ACCEPTS.items():
        nums = ["1"] * _SIGNATURES[verb].count("num")
        for names in product(_HELD, repeat=len(classes)):
            statement = " ".join((verb, "R", *names, *nums))
            accepted = all(_HELD[n][1] in c for n, c in zip(names, classes))
            try:
                env, _ = evaluate(parse(_DEFINED + statement))
            except EvaluationError as exc:
                cause = exc.__cause__
                operands = "; ".join(
                    f"{n}: {_HELD[n][1]}, line {list(_HELD).index(n) + 1}"
                    for n in dict.fromkeys(names)
                )
                assert str(exc) == f"line 6: {cause} ({operands})", statement
                if isinstance(cause, OperandError):
                    assert not accepted, statement
                else:
                    assert isinstance(cause, DomainError), statement
            else:
                assert accepted, statement
                format_value(env["R"])  # a value that a script can hold


def test_an_svg_path_that_spells_a_defined_name_is_no_operand(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A").mkdir()
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 0 0\nsvg A\n"))
    assert str(err.value) == "line 2: [Errno 21] Is a directory: 'A'"


def test_a_plain_type_error_from_the_library_is_not_wrapped(monkeypatch):
    # a bug in the library ends in a traceback, where a fuzzer sees it
    def broken(*args):
        raise TypeError("a bug")

    monkeypatch.setattr(pga2d.geometry, "join", broken)
    with pytest.raises(TypeError) as info:
        evaluate(parse("point A 0 0\npoint B 1 1\njoin l A B\n"))
    assert type(info.value) is TypeError and str(info.value) == "a bug"


def test_the_output_referee_passes_only_a_listed_migration(monkeypatch):
    # tests/same_output.py: a listed stderr text, or a record's error class
    # or its text with the other unchanged, changed as listed, is a
    # migration; any other change is a difference
    import same_output

    listed = {("old\n", "new\n"), ("TypeError", "OperandError"), ("no join", "no join of A")}
    monkeypatch.setattr(same_output, "MIGRATIONS", listed)
    migration = same_output._migration
    assert migration("stderr", "old\n", "new\n") == ("old\n", "new\n")
    assert migration("stderr", b"old\n", b"new\n") == ("old\n", "new\n")
    assert migration("stderr", "new\n", "old\n") is None
    assert migration("stdout", "old\n", "new\n") is None
    raised = ["raised", "TypeError", "no join"]
    moved = ["raised", "OperandError", raised[2]]
    assert migration("library", raised, moved) == ("TypeError", "OperandError")
    assert migration("library", raised, [*moved[:2], "another text"]) is None
    assert migration("library", raised, ["Line", "1.0", "0.0", "0.0"]) is None
    reworded = ["raised", "TypeError", "no join of A"]
    assert migration("library", raised, reworded) == ("no join", "no join of A")
    assert migration("library", raised, [*moved[:2], reworded[2]]) is None
    assert migration("library", raised, [*raised[:2], "no meet"]) is None


def test_the_output_referee_passes_a_listed_record_pair_or_a_move_within_a_bound(monkeypatch):
    # tests/same_output.py: two whole records, not both raised, as listed; or
    # a record of a listed function that keeps its class and field count,
    # each float moving by at most the bound in eps of the largest |field|
    import same_output

    zero = ["Multivector", ["0.0"] * 8]
    refused = ["raised", "ValueError", "basis index must be in 0..7, got 8"]
    listed = {(json.dumps(zero), json.dumps(refused)), ("sandwich", 5)}
    monkeypatch.setattr(same_output, "MIGRATIONS", listed)
    migration = same_output._migration
    assert migration("library", zero, refused, "basis(8)") == (json.dumps(zero), json.dumps(refused))
    assert migration("library", refused, zero, "basis(8)") is None
    eps = sys.float_info.epsilon
    old = ["Motor", "2.0", "-1.0", "0.0", "0.5"]
    moved = ["Motor", repr(2.0 + 8 * eps), "-1.0", repr(-5e-16), "0.5"]  # 4 and 1.1 eps of 2
    label = "sandwich(Motor(0, 1, 0, 0), Motor(2, -1, 0, 0.5))"
    assert migration("library", old, moved, label) == ("sandwich", 5)
    assert migration("library", old, moved, "interpolate(Motor(2, -1, 0, 0.5), 0.5)") is None
    assert migration("library", old, ["Motor", repr(2.0 + 12 * eps), *old[2:]], label) is None
    assert migration("library", old, ["OddVersor", *moved[1:]], label) is None
    assert migration("library", old, moved[:-1], label) is None
    assert migration("library", old, ["raised", "DomainError", "text"], label) is None
    # a signed zero moves by nothing
    null = ["Motor", "0.0", "0.0", "0.0", "0.0"]
    assert migration("library", null, ["Motor", "-0.0", *null[2:]], label) == ("sandwich", 5)
    differences, _ = same_output._compare(
        {"cli": [], "process": [], "library": []}, {"cli": [], "process": [], "library": []}, [], []
    )
    assert "migration 'sandwich' within 5 eps explains no difference" in differences


def test_the_output_referee_reports_a_stale_migration_as_a_difference(monkeypatch):
    # _compare counts a listed stderr text as a migration, and reports an
    # entry that explains no difference, and an unlisted change, as differences
    import same_output

    listed = {("error: old\n", "error: new\n"), ("error: gone\n", "error: here\n")}
    monkeypatch.setattr(same_output, "MIGRATIONS", listed)
    base = {
        "cli": [["", "error: old\n", 2, None], ["A = 1\n", "", 0, None]],
        "process": [[b"", b"error: old\n", 2, None]],
        "library": [["norm(m)", "1.0"]],
    }
    this = {
        "cli": [["", "error: new\n", 2, None], ["A = 2\n", "", 0, None]],
        "process": [[b"", b"error: new\n", 2, None]],
        "library": [["norm(m)", "1.0"]],
    }
    cases, processes = [["run", "a.pga"], ["run", "b.pga"]], [["run", "a.pga"]]
    differences, migrations = same_output._compare(base, this, cases, processes)
    assert differences == [
        "run b.pga: stdout differs",
        "migration 'error: gone\\n' -> 'error: here\\n' explains no difference",
    ]
    assert migrations == {("error: old\n", "error: new\n"): 2}
    monkeypatch.setattr(same_output, "MIGRATIONS", set())
    assert same_output._compare(base, base, cases, processes) == ([], {})


def test_the_output_referee_records_a_crash_as_that_cases_outcome(monkeypatch, tmp_path, capsys):
    # tests/same_output.py: an exception from main is the case's exit code,
    # the run goes on, and a crash in one tree is one difference
    import same_output

    def main(argv):
        print("partial")
        if argv == ["crash"]:
            raise ZeroDivisionError("planted")
        return 0

    monkeypatch.setattr(pga2d.cli, "main", main)
    monkeypatch.setattr(same_output, "_library", list)
    monkeypatch.setattr(same_output, "MIGRATIONS", set())  # no listed pair is stale here
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cases.json").write_text(json.dumps([["crash"], ["fine"]]))
    same_output._child(str(tmp_path))
    crashed = ["partial\n", "", ["raised", "ZeroDivisionError", "planted"], None]
    this = {"cli": json.loads(capsys.readouterr().out)["cli"], "process": [], "library": []}
    assert this["cli"] == [crashed, ["partial\n", "", 0, None]]
    base = {**this, "cli": [["A = 1\n", "", 0, "<svg/>"], this["cli"][1]]}
    assert same_output._compare(base, this, [["crash"], ["fine"]], []) == ([
        'crash: exit code 0 became ["raised", "ZeroDivisionError", "planted"]'
    ], {})
    assert same_output._compare(this, this, [["crash"], ["fine"]], []) == ([], {})


def test_the_output_referee_calls_every_exported_function(monkeypatch):
    # tests/same_output.py: each function of pga2d.__all__ has a call in the
    # library corpus; classes, error types and constants are exempt
    import same_output

    called, running = set(), []

    def recorded(name, f):
        def call(*args, **kwargs):
            if running:
                called.add(name)
            return f(*args, **kwargs)

        return call

    functions = [n for n in pga2d.__all__ if inspect.isfunction(getattr(pga2d, n))]
    assert {"IdealPoint", "join", "translator_by", "factor_motor"} <= set(functions)
    for name in functions:
        monkeypatch.setattr(pga2d, name, recorded(name, getattr(pga2d, name)))
    for _, call in same_output._library_calls():  # a corpus call, not its setup
        running.append(call)
        same_output._record(call)
        running.pop()
    assert sorted(set(functions) - called) == []


def test_the_output_referee_calls_every_kernel_function_and_method():
    # tests/same_output.py: each public function of pga2d.kernel, and each
    # public method and arithmetic operator of Multivector, is a corpus call
    import same_output
    from pga2d import kernel

    callees = {call.func for _, call in same_output._library_calls()}
    functions = [
        f for name, f in vars(kernel).items()
        if inspect.isfunction(f) and f.__module__ == kernel.__name__ and not name.startswith("_")
    ]
    operators = ("__add__", "__sub__", "__neg__")
    methods = [
        f for name, f in vars(kernel.Multivector).items()
        if inspect.isfunction(f) and (not name.startswith("_") or name in operators)
    ]
    names = {f.__name__ for f in functions + methods}
    assert {"basis", "cayley_table", "join", "approx_eq", "__neg__"} <= names
    assert sorted(f.__qualname__ for f in functions + methods if f not in callees) == []


# a fresh interpreter: every sandwich of a script is a closed form
@pytest.mark.parametrize(
    "source",
    [
        "line m 1 1 -1\nreflect Q m g",
        "apply Q g g",
        "line m 1 1 -1\nreflect Q m A\nreflect R m m",
        "line m 1 1 -1\napply Q g A\napply R g m",
    ],
    ids=["reflect-motor", "apply-motor", "reflect", "apply"],
)
def test_no_verb_loads_the_kernel(source):
    script = f"point A 1 2\nrotator g A 1\n{source}\n"
    probe = (
        f"import sys\nfrom pga2d.script import evaluate, parse\nevaluate(parse({script!r}))\n"
        "print('pga2d.kernel' in sys.modules)"
    )
    assert _fresh(probe) == "False\n"


def test_format_value_of_huge_ideal_point():
    assert format_value(Point(1.7e308, -1.7e308, 0.0)) == "ideal (0.707107, -0.707107)"


def test_format_value_of_a_point_prints_two_of_its_three_fields():
    # the view gives three fields; the template takes exactly two of them
    assert format_value(Point(2, 4, 2)) == "(1.000000, 2.000000)"
    assert format_value(Point(3, 4, 0)) == "ideal (0.600000, 0.800000)"


# the SVG's numbers have two decimals and print's have six; % and format()
# both round the exact binary value half to even, so they give the same text
@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(0.005)
@example(-0.004999)
@example(2.675)
@example(5e-324)
@example(1.7976931348623157e308)
def test_percent_templates_format_floats_as_format_does(v):
    assert "%.2f" % v == format(v, ".2f")
    assert "%.6f" % v == format(v, ".6f")


def test_format_value_rejects_a_value_that_is_not_a_script_value():
    with pytest.raises(TypeError, match="^cannot format str$"):
        format_value("x")


def test_a_script_error_without_a_line_is_its_message():
    assert str(ParseError("bad input")) == "bad input"
    assert str(ParseError("bad input", 3)) == "line 3: bad input"


# at a tol of 1 or more a unit normal or a weight 1 counts as zero, so the
# origin and the line x = 0 are ideal, and there is nothing to divide by
@pytest.mark.parametrize(
    "value, message",
    [
        (Line(1, 0, 0), "cannot normalize a zero line"),
        (Point(0, 0, 1), "cannot normalize a zero point"),
    ],
    ids=["line", "point"],
)
def test_shown_values_without_a_unit_form_fail_as_domain_errors(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        format_value(value, 1.0)
    with pytest.raises(RenderError, match=f"^{re.escape('cannot draw the figure: ' + message)}$"):
        build_svg({"x": value}, 1.0)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        normalize(value, 1.0)


# at tol 1 this point is ideal, and its weight over the length of (x, y)
# would overflow; every reader sees the weight 0 of its normal form
_HUGE_WEIGHT_IDEAL_POINT = Point(1e-300, 0, 1e300)


def test_an_ideal_point_of_huge_weight_gives_one_unit_direction_wherever_normalized():
    p, unit = _HUGE_WEIGHT_IDEAL_POINT, Point(1, 0, 0)
    assert view(p, 1.0) == view(unit, 1.0) == (True, (1.0, 0.0, 0.0))
    assert format_value(p, 1.0) == format_value(unit, 1.0) == "ideal (1.000000, 0.000000)"
    assert normalize(p, 1.0) == unit
    assert metric.ideal(p, 1.0, "point") == (1.0, 0.0, 0.0)
    assert translator(p, 1.0, 1.0) == translator(unit, 1.0, 1.0)
    assert angle(p, p, 1.0) == 0.0
    assert build_svg({"V": p}, 1.0) == build_svg({"V": unit}, 1.0)


def test_an_ideal_line_of_tiny_c_is_e0_wherever_it_is_normalized():
    # at tol 1 this line is ideal, and a/c would overflow
    m, e0 = Line(1, 0, 1e-320), Line(0, 0, 1)
    assert view(m, 1.0) == view(e0, 1.0) == (True, (0.0, 0.0, 1.0))
    assert format_value(m, 1.0) == "[0.000000, 0.000000, 1.000000]"
    assert normalize(m, 1.0) == e0
    # an ideal line is not drawn, so an arrow makes the figure
    v = Point(1, 0, 0)
    assert build_svg({"V": v, "m": m}, 1.0) == build_svg({"V": v, "m": e0}, 1.0)


def test_printing_a_value_without_a_unit_form_is_an_evaluation_error():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("line m 1 0 0\nprint m\n"), 1.0)
    assert str(err.value) == "line 2: cannot normalize a zero line (m: Line, line 1)"


def test_evaluate_rejects_midline_of_antiparallel():
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("line m 1 0 0\nline n -1 0 -2\nmidline b m n\n"))
    assert "anti-parallel" in str(err.value)


def test_evaluate_reflect_and_rotator_verbs():
    _, output = evaluate(
        parse(
            "line m 1 0 0\npoint P 1 1\nreflect Q m P\nprint Q\n"
            "point O 0 0\nrotator g O 3.141592653589793\napply R g P\nprint R\n"
        )
    )
    lines = output.splitlines()
    assert lines[0] == "Q = (-1.000000, 1.000000)"
    assert lines[1] == "R = (-1.000000, -1.000000)"


def test_evaluate_midline_and_midpoint_verbs():
    _, output = evaluate(
        parse(
            "line m 1 0 0\nline n 1 0 -4\nmidline b m n\nprint b\n"
            "point P 0 0\npoint Q 4 2\nmidpoint M P Q\nprint M\n"
        )
    )
    lines = output.splitlines()
    assert lines[0] == "b = [1.000000, 0.000000, -2.000000]"
    assert lines[1] == "M = (2.000000, 1.000000)"


def test_evaluate_angle_with_ideal_point():
    _, output = evaluate(
        parse("line m 0 1 0\nideal V 0 1\nangle t m V\nprint t\n")
    )
    assert output == "t = 1.570796\n"


def test_evaluate_svg_statement_error_carries_lineno(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 0 0\nsvg missing_dir/out.svg\n"))
    assert err.value.lineno == 2


def test_evaluate_rotor_and_angle():
    _, output = evaluate(
        parse(
            "line m 1 0 0\nline n 0 1 0\nangle t m n\nprint t\n"
            "rotor g m n\napply P g m\nprint P\n"
        )
    )
    lines = output.splitlines()
    assert lines[0] == "t = 1.570796"
    assert lines[1] == "P = [-1.000000, 0.000000, 0.000000]"


# -- golden scripts --------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["rotation_case", "translation_case", "dist345"]
)
def test_golden_scripts_are_stable(name):
    source = (SCRIPTS / f"{name}.pga").read_text()
    program = parse(source)
    _, first = evaluate(program)
    _, second = evaluate(program)
    assert first == second  # byte-identical across consecutive runs
    assert first == (SCRIPTS / f"{name}.expected.txt").read_text()


def test_rotation_golden_transport_verified():
    source = (SCRIPTS / "rotation_case.pga").read_text()
    env, _ = evaluate(parse(source))
    # the applied images reproduce the requested targets
    b, n = env["B"], env["n"]
    assert (b.x / b.z, b.y / b.z) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert (n.a, n.b, n.c) == pytest.approx((-1.0, 0.0, 0.0), abs=1e-12)


def test_translation_golden_transport_verified():
    source = (SCRIPTS / "translation_case.pga").read_text()
    env, _ = evaluate(parse(source))
    g = env["g"]
    assert (g.s, g.bx, g.by, g.bz) == pytest.approx((1.0, 0.0, -0.5, 0.0), abs=1e-12)


# -- SVG --------------------------------------------------------------------------


def test_svg_structure_two_points_and_join():
    env, _ = evaluate(parse("point A 0 0\npoint B 3 4\njoin l A B\n"))
    svg = build_svg(env)
    assert svg.count("<circle") == 2
    assert svg.count("<line ") == 1
    assert svg.count("<text") == 3
    assert svg.startswith('<?xml version="1.0"')


def test_svg_ideal_points_become_arrows():
    env, _ = evaluate(parse("point A 0 0\nideal V 1 1\n"))
    svg = build_svg(env)
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 1


def test_svg_arrow_of_huge_ideal_point_matches_unit_one():
    huge, _ = evaluate(parse("ideal v 1.7e308 1.7e308\n"))
    unit, _ = evaluate(parse("ideal v 1 1\n"))
    assert build_svg(huge) == build_svg(unit)


@pytest.mark.parametrize(
    "source",
    ["point A 1e300 0\n", "point A 1.7e308 0\n", "line m 0 2.775124969067914e-14 1e300\n"],
)
def test_svg_of_a_figure_too_far_to_draw_is_a_render_error(source):
    env, _ = evaluate(parse(source), tol=0.0)
    with pytest.raises(RenderError):
        build_svg(env, tol=0.0)


_R = 0.7071067811865475  # 1/sqrt(2)
_W = (0.0, 10.0, 0.0, 10.0)
# (line, window, tol, ends): the ends as recorded from the renderer that
# still searched every pair of crossings for the farthest
_CLIPS = {
    # a diagonal through two corners: four crossings
    "diagonal": ((_R, -_R, 0.0), _W, 1e-9, ((0.0, 0.0), (10.0, 10.0))),
    "anti-diagonal": ((_R, _R, -7.071067811865475), _W, 1e-9, ((0.0, 10.0), (10.0, -0.0))),
    # through one corner: three crossings, of which the corner twice
    "corner": (
        (0.4472135954999579, -0.8944271909999159, 0.0), _W, 1e-9, ((0.0, 0.0), (10.0, 5.0))
    ),
    "corner-far": (
        (0.5734623443633283, -0.8192319205190405, 2.4576957615571215), _W, 1e-9,
        ((0.0, 3.0), (10.0, 10.0)),
    ),
    # here the two crossings at the corner differ by one ulp, and which one
    # is kept decides the order of the ends
    "corner-ulp": (
        (0.9528905139886873, -0.30331447105335285, -6.495760429353345), _W, 1e-9,
        ((10.0, 10.000000000000002), (6.816901138162094, 0.0)),
    ),
    "corner-ulp-tol0": (
        (0.9528905139886873, -0.30331447105335285, -6.495760429353345), _W, 0.0,
        ((6.816901138162094, 0.0), (10.0, 10.0)),
    ),
    # the corner and a crossing of the top border: the farthest pair is not
    # the first two crossings
    "steep-corner": (
        (0.9486832980505138, -0.31622776601683794, 0.0), _W, 1e-9,
        ((0.0, 0.0), (3.3333333333333335, 10.0)),
    ),
    "steep-corner-ulp": (
        (0.9385078997951388, 0.34525776171161965, -9.385078997951387), _W, 1e-9,
        ((10.0, -5.145016380208049e-15), (6.321205588285577, 10.0)),
    ),
    "steep-corner-ulp-tol0": (
        (0.9385078997951388, 0.34525776171161965, -9.385078997951387), _W, 0.0,
        ((9.999999999999998, 0.0), (6.321205588285577, 10.0)),
    ),
    # only a corner on the line: the two crossings coincide
    "touch-corner": ((_R, _R, 0.0), _W, 1e-9, None),
    "touch-corner-outside": ((_R, _R, 5e-9), _W, 1e-9, None),
    # along a border
    "border-bottom": ((0.0, 1.0, 0.0), _W, 1e-9, ((0.0, -0.0), (10.0, -0.0))),
    "border-right": ((1.0, 0.0, -10.0), _W, 1e-9, ((10.0, 0.0), (10.0, 10.0))),
    "border-right-tol0": ((-1.0, 0.0, 10.0), _W, 0.0, ((10.0, 0.0), (10.0, 10.0))),
    # just outside a border: within tol * span, or at tol 0 not at all
    "outside": ((0.0, 1.0, 5e-9), _W, 1e-9, ((0.0, -5e-9), (10.0, -5e-9))),
    "outside-tol0": ((0.0, 1.0, 5e-9), _W, 0.0, None),
    "outside-beyond-tol": ((0.0, 1.0, 2e-8), _W, 1e-9, None),
    "outside-slant": (
        (0.4472135954999579, 0.8944271909999159, -4.472135950527443), _W, 1e-9,
        ((0.0, 4.999999995), (10.0, -5.000000541071719e-09)),
    ),
    "outside-slant-tol0": (
        (0.4472135954999579, 0.8944271909999159, -4.472135950527443), _W, 0.0,
        ((0.0, 4.999999995), (9.99999999, 0.0)),
    ),
    # normal components equal to tol count as zero, above it they do not
    "a-is-tol": ((1e-9, 1.0, -5.0), _W, 1e-9, ((0.0, 5.0), (10.0, 4.99999999))),
    "b-is-tol": ((1.0, 1e-9, -5.0), _W, 1e-9, ((5.0, 0.0), (4.99999999, 10.0))),
    "a-above-tol": ((1e-9, 1.0, -5.0), _W, 1e-10, ((0.0, 5.0), (10.0, 4.99999999))),
    "b-subnormal-tol0": ((1.0, 5e-324, -5.0), _W, 0.0, ((5.0, 0.0), (5.0, 10.0))),
    # misses the window
    "miss": ((_R, _R, -100.0), _W, 1e-9, None),
    "miss-tol0": ((_R, _R, -100.0), _W, 0.0, None),
    "window": (
        (0.8944271909999159, 0.4472135954999579, 1.3416407864998738), (-7.25, 1.5, -4.0, 4.75),
        1e-9, ((0.49999999999999994, -4.0), (-3.875, 4.75)),
    ),
}


@pytest.mark.parametrize("line, window, tol, ends", _CLIPS.values(), ids=_CLIPS)
def test_clipping_keeps_the_crossings_and_their_order(line, window, tol, ends):
    clip = _clip_line(*line, window, tol)
    # repr tells -0.0 from 0.0
    assert repr(None if clip is None else tuple(clip)) == repr(ends)


# m lies 5e-9 left of the window, within tol * span: drawn at x = -2.1e-7 px;
# h's label sits 0.001 px above the top
_MINUS_ZERO = {
    "A": Point(0, 0, 1), "B": Point(10, 10, 1), "m": Line(1, 0, 1.000000005),
    "h": Line(0, 1, -10.8594),
}


def test_pixel_coordinates_that_round_to_negative_zero_read_zero():
    source = "point A 0 0\npoint B 10 10\nline m 1 0 1.000000005\nline h 0 1 -10.8594\n"
    env, _ = evaluate(parse(source))
    assert env == _MINUS_ZERO
    svg = build_svg(env)
    assert svg.splitlines()[5:7] + svg.splitlines()[-2:] == [
        '<line x1="0.00" y1="512.00" x2="0.00" y2="0.00" stroke="#333333" stroke-width="1.5"/>',
        '<line x1="0.00" y1="6.00" x2="512.00" y2="6.00" stroke="#333333" stroke-width="1.5"/>',
        '<text x="134.00" y="0.00" font-family="monospace" font-size="12" fill="#111111">h</text>',
        "</svg>",
    ]
    # a label is the caller's text, kept as it is
    env["h-0.00"] = env.pop("h")
    assert '"0.00" font-family="monospace" font-size="12" fill="#111111">h-0.00</text>' in build_svg(env)


def test_svg_is_deterministic(tmp_path):
    env, _ = evaluate(parse("point A 0 0\npoint B 3 4\njoin l A B\n"))
    first = build_svg(env)
    second = build_svg(env)
    assert first == second
    target = tmp_path / "out.svg"
    from pga2d.render import render_svg

    render_svg(env, target)
    assert target.read_text() == first


# the environments of the two golden SVGs, as their scripts bind them
_DIST345 = {
    "A": Point(0, 0, 1), "B": Point(3, 4, 1), "d": 5.0, "h": Line(-4, 3, 0),
    "M": Point(1.5, 2, 1),
}
_IDEAL_ONLY = {"V": Point(1, 1, 0), "m": Line(1, 2, 0.5)}
# arrows only, all from the window's centre
_ARROWS_ONLY = {"U": Point(1, 0, 0), "V": Point(0, -2, 0), "W": Point(-3, 4, 0), "X": Point(1, 1, 0)}
# V's tip lies 0.003 px left of the viewport, so its x reads -0.00 before the
# minus-zero pass; X shares the anchor
_TIP_AT_MINUS_ZERO = {
    **{f"P{i}": Point(0, 0, 1) for i in range(8)}, "Q": Point(10, 0, 1),
    "V": Point(-0.9774, -math.sqrt(1 - 0.9774**2), 0), "X": Point(0, 1, 0),
}
# at tol 0, coordinates a few ulps apart: the pad is lost, the anchor sits on
# the viewport's corner (0.00, 512.00), and V's tip x reads -0.00
_ANCHOR_AT_THE_BORDER = {
    "A": Point(-176331827366127.75, -740617628314100.6, 1),
    "B": Point(-176331827366127.72, -740617628314100.6, 1),
    "C": Point(-176331827366127.75, -740617628314100.6, 1),
    "V": Point(-1e-5, -1, 0), "W": Point(1, 0, 0),
}
# at tol 0, coordinates an ulp apart, drawn off the viewport before the renderer
# checked its window: rounding leaves the squared-up window shorter than the
# points' height (circles, the arrow and labels at y = -256; in the second the
# anchor stays inside), puts the anchor, the points' centroid, an ulp right of
# them (the arrow at x = 1024), or leaves a window of subnormal width, whose
# scale overflows (every number nan or inf)
_WINDOW_TOO_SHORT = {
    "A": Point(132315163695548.2, 37465092012605.836, 1),
    "B": Point(132315163695548.19, 37465092012605.81, 1),
    "C": Point(132315163695548.19, 37465092012605.836, 1),
    "V": Point(1, 0, 0),
}
_POINT_ABOVE = {
    "A": Point(30208806216.58303, 28811941893.818386, 1),
    "B": Point(30208806216.58303, 28811941893.818398, 1),
    "C": Point(30208806216.58304, 28811941893.818398, 1),
    "V": Point(1, 0, 0),
}
_ANCHOR_OUTSIDE = {
    "A": Point(13461221376.143618, 44992.98498930217, 1),
    "B": Point(13461221376.14362, 44992.98498930218, 1),
    "C": Point(13461221376.14362, 44992.98498930216, 1),
    "V": Point(0, 1, 0),
}
_SUBNORMAL_WINDOW = {"A": Point(0, 0, 1), "B": Point(0, 1e-323, 1), "V": Point(0, 1, 0)}


def test_svg_golden_file():
    source = (SCRIPTS / "dist345.pga").read_text()
    env, _ = evaluate(parse(source))
    assert env == _DIST345
    assert build_svg(env) == (SCRIPTS / "dist345.expected.svg").read_text()


def test_svg_of_a_figure_with_no_euclidean_point_is_centred_on_the_origin():
    env, _ = evaluate(parse("ideal V 1 1\nline m 1 2 0.5\n"))
    assert env == _IDEAL_ONLY
    assert build_svg(env) == (SCRIPTS / "ideal_only.expected.svg").read_text()


def test_svg_nothing_to_render():
    env, _ = evaluate(parse("point A 0 0\npoint B 1 0\ndist d A B\n"))
    with pytest.raises(RenderError, match="nothing to render"):
        build_svg({"d": env["d"]})


# the arrow template and the clip before the anchor was formatted once and
# the clip's loops were unrolled
_OLD_ARROW = (
    '<path d="M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f M %.2f %.2f L %.2f %.2f" '
    'stroke="#d62728" fill="none" stroke-width="1.5"/>\n'
)


def _old_clip_line(a: float, b: float, c: float, window, tol: float):
    x0, x1, y0, y1 = window
    span = max(x1 - x0, y1 - y0)
    ends = []
    if not near_zero(b, 1.0, tol):
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 <= y <= y1 or near_zero(max(y0 - y, y - y1), span, tol):
                ends.append((x, y))
    if not near_zero(a, 1.0, tol):
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 <= x <= x1 or near_zero(max(x0 - x, x - x1), span, tol):
                ends.append((x, y))
    if len(ends) > 2:
        ends = max(combinations(ends, 2), key=lambda pair: math.dist(*pair))
    return None if len(ends) < 2 or near_zero(math.dist(*ends), span, tol) else ends


def _old_gather(env: dict, tol: float):
    """Insertion-ordered drawables: (kind, name, payload)."""
    drawables = []
    for name, value in env.items():
        if isinstance(value, (Point, Line)):
            ideal, shown = view(value, tol)
            if isinstance(value, Point):
                drawables.append(("arrow" if ideal else "point", name, shown[:2]))
            elif not ideal:
                drawables.append(("line", name, shown))
    return drawables


def _old_build_svg(env: dict, tol: float = DEFAULT_TOL) -> str:
    """The renderer before it drew in one pass, kept as the oracle for the
    SVG text and the render errors (it escaped no name)."""
    try:
        drawables = _old_gather(env, tol)
    except DomainError as exc:  # a shown element overflows or has no unit form
        raise RenderError(f"cannot draw the figure: {exc}") from exc
    if not drawables:
        raise RenderError("nothing to render")
    xs, ys = zip(*([p for kind, _, p in drawables if kind == "point"] or [(0.0, 0.0)]))
    window = _world_window(xs, ys)
    x0, x1, y0, _ = window
    width = x1 - x0  # 0 when the unit pad is lost next to a huge coordinate
    if not 0.0 < width < math.inf:
        raise RenderError("the figure is too large to fit the viewport")
    scale = VIEW / width
    ax = (sum(xs) / len(xs) - x0) * scale
    ay = VIEW - (sum(ys) / len(ys) - y0) * scale
    shapes, labels = [], []
    for kind, name, payload in drawables:
        if kind == "point":
            px, py = (payload[0] - x0) * scale, VIEW - (payload[1] - y0) * scale
            shapes.append(_CIRCLE % (px, py))
        elif kind == "line":
            clip = _old_clip_line(*payload, window, tol)
            if clip is None:
                continue
            (wx1, wy1), (wx2, wy2) = clip
            px1, py1 = (wx1 - x0) * scale, VIEW - (wy1 - y0) * scale
            px2, py2 = (wx2 - x0) * scale, VIEW - (wy2 - y0) * scale
            shapes.append(_LINE % (px1, py1, px2, py2))
            px, py = 0.75 * px1 + 0.25 * px2, 0.75 * py1 + 0.25 * py2
        else:  # arrow from the anchor; head: two barbs splayed back from the tip
            ux, uy = payload
            px, py = ax + _ARROW_LEN * ux, ay - _ARROW_LEN * uy
            lx, ly = px + 8.0 * (-ux - 0.5 * uy), py + 8.0 * (uy - 0.5 * ux)
            rx, ry = px + 8.0 * (0.5 * uy - ux), py + 8.0 * (uy + 0.5 * ux)
            # the shaft, then each barb from the tip
            shapes.append(_OLD_ARROW % (ax, ay, px, py, px, py, lx, ly, px, py, rx, ry))
        text = (_LABEL % (px + 6.0, py - 6.0)).replace("-0.00", "0.00")
        labels.append(f"{text}{name}</text>\n")
    body = "".join(shapes).replace("-0.00", "0.00")
    return f"{_HEAD}{body}{''.join(labels)}</svg>\n"


def _escaped(name: str) -> str:
    return name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _off_the_viewport(svg: str) -> bool:
    """Whether a circle or the arrows' anchor lies outside [0, 512], or is not a number."""
    at = re.findall(r'<circle cx="(\S+)" cy="(\S+)"', svg)
    at += re.findall(r'<path d="M (\S+) (\S+) ', svg)
    return not all(0.0 <= float(v) <= VIEW for pair in at for v in pair)


_COORD = st.floats(-100.0, 100.0)
_NONZERO_PAIR = st.tuples(_COORD, _COORD).filter(lambda pair: pair != (0.0, 0.0))
_SVG_VALUES = st.one_of(
    st.builds(lambda x, y: Point(x, y, 1.0), _COORD, _COORD),
    _NONZERO_PAIR.map(lambda uv: Point(*uv, 0.0)),
    st.builds(lambda ab, c: Line(*ab, c), _NONZERO_PAIR, st.floats(-300.0, 300.0)),
    st.floats(0.5, 100.0).map(lambda c: Line(0.0, 0.0, c)),
    st.sampled_from([
        _HUGE_WEIGHT_IDEAL_POINT,  # ideal at tol 1, weight over length overflows
        Point(1e300, 0.0, 1e-300),  # overflows at tol 0
        Line(5e-324, 0.0, 1.0),  # overflows at tol 0
        1.5, Motor(1.0, 0.0, 0.0, 0.0), translator(Point(1.0, 0.0, 0.0), 2.0),
    ]),
)
_SVG_NAMES = st.sampled_from(["A", "m", "h-0.00", "%", "%s", "%.2f", "a<b&c", ">", "&amp;"])


@st.composite
def _svg_envs(draw):
    """An env mixing every kind of value, and lines through the corners of
    its window, which normalizing leaves within ulps of the corner."""
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.0]))
    items = draw(st.lists(st.tuples(_SVG_NAMES | st.text(max_size=3), _SVG_VALUES), max_size=8))
    shown = [(v.x, v.y) for _, v in items if isinstance(v, Point) and v.z == 1.0]
    x0, x1, y0, y1 = _world_window(*zip(*(shown or [(0.0, 0.0)])))
    for _ in range(draw(st.integers(0, 2))):
        cx, cy = draw(st.sampled_from([(x0, y0), (x0, y1), (x1, y0), (x1, y1)]))
        turn = draw(st.floats(0.0, 2 * math.pi))
        a, b = math.cos(turn), math.sin(turn)
        items.append((draw(_SVG_NAMES), Line(a, b, -(a * cx + b * cy))))
    return dict(items), tol


@settings(max_examples=150)
@given(case=_svg_envs())
@example(case=(_DIST345, 1e-9))
@example(case=(_IDEAL_ONLY, 1e-9))
@example(case=(_MINUS_ZERO, 1e-9))
@example(case=(_ARROWS_ONLY, 1e-9))
@example(case=(_TIP_AT_MINUS_ZERO, 1e-9))
@example(case=(_ANCHOR_AT_THE_BORDER, 0.0))
@example(case=(_SUBNORMAL_WINDOW, 0.0))
@example(case=({"A": Point(0.0, 0.0, 1.0), "V": _HUGE_WEIGHT_IDEAL_POINT}, 1.0))
@example(case=({"A": Point(1e300, 0.0, 1.0)}, 0.0))
def test_build_svg_matches_the_old_renderer(case):
    """The same text, or the same error, as the two-pass renderer given the
    escaped names; and each point or line is viewed once."""
    env, tol = case

    def outcome(draw, env):
        try:
            return draw(env, tol)
        except RenderError as exc:
            return f"error: {exc}"

    with mock.patch.object(render, "view", wraps=view) as spy:
        new = outcome(build_svg, env)
    old = outcome(_old_build_svg, {_escaped(k): v for k, v in env.items()})
    if new == "error: the figure is too large to fit the viewport" and not old.startswith("error"):
        assert _off_the_viewport(old)  # refused since: it drew off the viewport
    else:
        assert new == old
    if not new.startswith("error: cannot draw"):
        assert spy.call_count == sum(isinstance(v, (Point, Line)) for v in env.values())


def _ulps(value: float, steps: int) -> float:
    """value moved steps floats up (or down, for negative steps)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def _ulp_clusters(draw):
    """Up to four points a few ulps apart, anywhere up to 1e16 from the origin,
    and an ideal point drawn from their centroid."""
    x, y = draw(st.floats(-1e16, 1e16)), draw(st.floats(-1e16, 1e16))
    step = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    steps = draw(st.lists(step, min_size=1, max_size=4))
    env = {f"P{k}": Point(_ulps(x, i), _ulps(y, j), 1) for k, (i, j) in enumerate(steps)}
    env["V"] = Point(*draw(_NONZERO_PAIR), 0)
    return env


@settings(max_examples=150)
@given(env=_ulp_clusters())
@example(env=_WINDOW_TOO_SHORT)
@example(env=_POINT_ABOVE)
@example(env=_ANCHOR_OUTSIDE)
@example(env=_SUBNORMAL_WINDOW)
@example(env=_ANCHOR_AT_THE_BORDER)
def test_the_svg_refuses_exactly_the_figures_it_would_draw_off_the_viewport(env):
    """A figure that the renderer before the window check drew with a circle
    or the anchor outside the viewport, or not a number, is a RenderError, and
    only such a one."""
    try:
        old = _old_build_svg(env, 0.0)
    except RenderError:
        old = None
    try:
        new = build_svg(env, 0.0)
    except RenderError as exc:
        assert str(exc) == "the figure is too large to fit the viewport"
        assert old is None or _off_the_viewport(old)
    else:
        assert new == old and not _off_the_viewport(new)


def test_label_names_are_escaped_and_read_back():
    env = {
        "a<b&c": Point(1, 2, 1), "x>y": Line(1, 0, -1), "&amp;": Point(0, 1, 0),
        "A": Point(3, 4, 1),
    }
    texts = minidom.parseString(build_svg(env)).getElementsByTagName("text")
    assert [t.firstChild.data for t in texts] == list(env)


def test_svg_statement_writes_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    evaluate(parse("point A 0 0\npoint B 1 2\nsvg picture.svg\n"))
    assert (tmp_path / "picture.svg").exists()


# -- CLI --------------------------------------------------------------------------


def test_cli_run_success(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\npoint B 3 4\ndist d A B\nprint d\n")
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "d = 5.000000\n"


def test_cli_tol_flag(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\nprint A\n")
    assert main(["run", str(script), "--tol", "1e-6"]) == 0


def test_cli_accepts_zero_tol(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 1 0\nprint A\n")
    assert main(["run", str(script), "--tol", "0"]) == 0
    assert capsys.readouterr().out == "A = (1.000000, 0.000000)\n"


def test_cli_prints_an_ideal_line_at_a_coarse_tol_in_coordinate_order(tmp_path, capsys):
    # at tol 1e-3 the line's normal (a, b) is small enough to be ideal, and
    # print shows its normal form e0, [0, 0, 1]; a literal that far from the
    # origin is out of range, so the line [1, 2, 0] is moved out to c = 1e4
    script = tmp_path / "s.pga"
    script.write_text(
        "line m 1 2 0\nideal V -2 1\ntranslator t V 4472.13595499958\napply k t m\nprint k\n"
    )
    assert main(["run", str(script), "--tol", "1e-3"]) == 0
    assert capsys.readouterr().out == "k = [0.000000, 0.000000, 1.000000]\n"
    script.write_text("line m 1e-4 2e-4 1\nprint m\n")
    assert main(["run", str(script), "--tol", "1e-3"]) == 2
    assert "out of range" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["run", "/no/such/script.pga"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_svg_flag(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\npoint B 1 1\n")
    out = tmp_path / "fig.svg"
    assert main(["run", str(script), "--svg", str(out)]) == 0
    assert out.exists()


def test_cli_golden_run_with_tol_before_svg(tmp_path, capsys):
    out = tmp_path / "fig.svg"
    argv = ["run", str(SCRIPTS / "dist345.pga"), "--tol", "1e-9", "--svg", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr() == ((SCRIPTS / "dist345.expected.txt").read_text(), "")
    assert out.read_text() == (SCRIPTS / "dist345.expected.svg").read_text()


@pytest.mark.parametrize("name", CASES)
def test_cli_case(tmp_path, monkeypatch, capsys, name):
    """Each case of tests/data/cases exits and prints as recorded, run in a
    directory that holds only its script; its stderr is one error line
    exactly when the exit code is not 0, and a failed run writes no file."""
    case = CASES[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / case.script).write_bytes(case.source)
    assert main(case.argv) == case.exit
    assert capsys.readouterr() == (case.stdout, case.stderr)
    assert case.stderr.count("\n") == (case.exit != 0)
    if case.exit:
        assert os.listdir(tmp_path) == [case.script]


def test_the_cases_run_alike_through_the_process_entry(monkeypatch):
    # the loop of CI's installed-script step, on three cases and on a wrong record
    monkeypatch.setenv("PYTHONPATH", _child_env()["PYTHONPATH"])
    command = [sys.executable, "-m", "pga2d.cli"]
    shown = {name: CASES[name] for name in ("failing", "svg-nul-path", "byte-order-mark")}
    assert cases.check(command, shown) == []
    assert len(cases.check(command, {"wrong": CASES["failing"]._replace(exit=1)})) == 1


def test_every_error_line_the_readme_quotes_is_a_recorded_stderr():
    stderrs = [case.stderr for case in CASES.values()]
    assert lints.stale_quotes(lints.README.read_text(), stderrs) == []


def test_the_readme_quote_lint_catches_a_stale_quote():
    readme = (
        "ends in `error: line\n3: zero  element` as\n  ```\n  $ pga2d run a.pga\n"
        "  error: line 2: old text (A: Point, line 1)\n  ```\nand `error: ...`\n"
    )
    stderrs = ["error: line 3: zero element\n", "error: line 2: new text\n"]
    assert lints.stale_quotes(readme, stderrs) == ["error: line 2: old text (A: Point, line 1)"]


# argv lists that the CLI reads without argparse: each must read as argparse
# reads it (float is argparse's type=float, so it takes nan, spaces and "_")
COMMON_ARGV = [
    ["tables"], ["run", "x.pga"], ["run", "x.pga", "--svg", "a.svg"],
    ["run", "x.pga", "--tol", "1e-3"], ["run", "x.pga", "--svg", "a.svg", "--tol", "0"],
    ["run", "x.pga", "--tol", "0", "--svg", "a.svg"], ["run", "x.pga", "--tol", "nan"],
    ["run", "x.pga", "--tol", " 1e-3"], ["run", "x.pga", "--tol", "1_0"],
    ["run", "x.pga", "--tol", " -1"], ["run", "x.pga", "--svg", ""],
    ["run", "", "--svg", "a.svg"], ["run", "run"], ["run", "tables", "--svg", "run"],
]
# and argv lists that it leaves to argparse: help, usage errors, and options
# that argparse reads although they are not the common shape
OTHER_ARGV = [
    [], ["run"], ["tables", "extra"], ["run", "a", "b"], ["Run", "x.pga"], ["-h"], ["--help"],
    ["run", "-h"], ["run", "x.pga", "--help"], ["tables", "-h"], ["run", "x.pga", "--svg"],
    ["run", "x.pga", "--bogus"], ["run", "x.pga", "--bogus", "v"],
    ["run", "x.pga", "--svg=out.svg"], ["run", "x.pga", "--sv", "out.svg"],
    ["run", "--tol", "0.001", "x.pga"], ["run", "x.pga", "--tol", "abc"],
    ["run", "x.pga", "--tol", ""], ["run", "x.pga", "--tol", "-0"], ["run", "-1"],
    ["run", "x.pga", "--svg", "-"], ["run", "x.pga", "--svg", "a.svg", "--svg", "b.svg"],
    ["run", "x.pga", "--tol", "0", "--tol", "0"], ["run", "x.pga", "--", "--svg"],
    ["run", "--", "x.pga"], ["run", "x.pga", "--svg", "a.svg", "--tol"],
]


@pytest.mark.parametrize("argv", COMMON_ARGV, ids=repr)
def test_the_common_argv_reads_as_argparse_reads_it(argv):
    # repr, so that a nan tol compares equal to itself
    assert _read(argv) is not None and repr(_read(argv)) == repr(_parse_args(argv))


@pytest.mark.parametrize("argv", OTHER_ARGV, ids=repr)
def test_every_other_argv_is_left_to_argparse(argv):
    assert _read(argv) is None


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "1"])
def test_cli_rejects_bad_tol(tmp_path, capsys, tol):
    # at a tol of 1 every point is ideal, and the origin has no direction
    script = tmp_path / "s.pga"
    for source in ("point A 1 0\nprint A\n", "point A 0 0\nprint A\n"):
        script.write_text(source)
        for svg in ([], ["--svg", str(tmp_path / "fig.svg")]):
            assert main(["run", str(script), "--tol", tol, *svg]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --tol") and captured.err.count("\n") == 1


def test_meet_of_lines_whose_size_product_overflows():
    # max|u| * max|v| = 1e316 overflows; the meet's true zero-test ratio is 1e-8
    source = "line m 1e158 1e150 0\nline n 1e158 0 1e150\nmeet P m n\nprint P\n"
    assert evaluate(parse(source))[1] == "P = (0.000000, 1.000000)\n"
    # lines 1e-200 apart: their meet is the zero element at the default tol
    with pytest.raises(EvaluationError, match="zero element"):
        evaluate(parse("line m 1e200 0 1\nline n 1e200 0 2\nmeet P m n\n"))


def _child_env() -> dict:
    """The environment of a child interpreter that imports this pga2d."""
    env = dict(os.environ)
    src = str(Path(pga2d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter without site's preloads, as
    on a clean install."""
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=_child_env(), capture_output=True, text=True, check=True,
    ).stdout


def test_cold_cli_start_skips_dataclasses_and_runs_a_golden_script():
    env = _child_env()
    probe = "import sys, pga2d.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert loaded.stdout == "[]\n"
    run = subprocess.run(
        [sys.executable, "-m", "pga2d.cli", "run", str(SCRIPTS / "rotation_case.pga")],
        env=env, capture_output=True, text=True,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (SCRIPTS / "rotation_case.expected.txt").read_text()


# prints A, then fails on line 5
_FAILING = CASES["failing"]
# the argv of each way main returns: 0, an evaluation error, an argparse usage error
_EXITS = {
    "ok": (["run", "dist345.pga", "--svg", "out.svg"], 0),
    "evaluation-error": (_FAILING.argv, 2),
    "usage-error": (["run"], 2),
}


def _exits_folder(folder: Path) -> Path:
    (folder / "dist345.pga").write_text((SCRIPTS / "dist345.pga").read_text())
    (folder / _FAILING.script).write_bytes(_FAILING.source)
    return folder


def _with_handler(code: str, cwd: Path) -> subprocess.CompletedProcess:
    """code run in a fresh `python -S` in cwd, after an atexit handler that
    prints "atexit" is registered and pga2d.cli is imported."""
    code = "import atexit, sys\natexit.register(print, 'atexit')\nimport pga2d.cli\n" + code
    return subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=cwd, env=_child_env(),
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("argv, code", _EXITS.values(), ids=_EXITS)
def test_the_process_entry_ends_the_process_after_the_atexit_handlers_and_the_flush(
    tmp_path, argv, code
):
    """main() with no argv reads sys.argv and, whether it returns or argparse
    exits, ends the process: with main(argv)'s code and output, the atexit
    handler run once after that output, and no line after main() run.
    main(argv) returns."""
    _exits_folder(tmp_path)
    entry = _with_handler(
        f"sys.argv = ['pga2d', *{argv!r}]\npga2d.cli.main()\nprint('returned')\n", tmp_path
    )
    if code == 0:  # drawn and closed before the process ended
        golden = (SCRIPTS / "dist345.expected.svg").read_bytes()
        assert (tmp_path / "out.svg").read_bytes() == golden
    library = _with_handler(
        f"try:\n    code = pga2d.cli.main({argv!r})\n"
        "except SystemExit as exc:  # argparse\n    code = exc.code\n"
        "print('returned', code)\n",
        tmp_path,
    )
    out, returned = library.stdout.rsplit("returned", 1)
    assert (library.returncode, returned) == (0, f" {code}\natexit\n")
    expected = (code, out + "atexit\n", library.stderr)
    assert (entry.returncode, entry.stdout, entry.stderr) == expected


# what still needs the interpreter after main(): (set up before it, undone after it)
_WATCHERS = {
    "tracer": ("sys.settrace(lambda *args: None)", "sys.settrace(None)"),
    "profiler": ("sys.setprofile(lambda *args: None)", "sys.setprofile(None)"),
    "thread": (
        "import threading\ndone = threading.Event()\n"
        "threading.Thread(target=done.wait, args=(60,)).start()",
        "done.set()",
    ),
}


@pytest.mark.parametrize("before, after", _WATCHERS.values(), ids=_WATCHERS)
def test_the_process_entry_returns_under_a_tracer_a_profiler_or_beside_a_thread(
    tmp_path, before, after
):
    """Then the interpreter ends the process, and runs the handler once."""
    _exits_folder(tmp_path)
    run = _with_handler(
        f"{before}\nsys.argv = ['pga2d', 'run', 'dist345.pga']\n"
        f"print('returned', pga2d.cli.main())\n{after}\n",
        tmp_path,
    )
    golden = (SCRIPTS / "dist345.expected.txt").read_text()
    assert (run.returncode, run.stdout, run.stderr) == (0, golden + "returned 0\natexit\n", "")


def test_a_run_under_cprofile_prints_its_output_then_the_profile():
    run = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "pga2d.cli", "run",
         str(SCRIPTS / "rotation_case.pga")],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    golden = (SCRIPTS / "rotation_case.expected.txt").read_text()
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith(golden) and " function calls " in run.stdout[len(golden):]


@pytest.mark.parametrize(
    "argv, code", [*_EXITS.values(), (["run", "missing.pga"], 1)], ids=[*_EXITS, "missing"]
)
def test_main_called_with_argv_returns_its_code_in_process(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(_exits_folder(tmp_path))
    before = gc.get_freeze_count()
    try:
        returned = main(argv)
    except SystemExit as exc:  # argparse
        returned = exc.code
    assert (returned, gc.get_freeze_count()) == (code, before)


# project in its four operand cases, each result printed
PROJECTS = (
    "point A 1 2\npoint B -3 0.5\nline m 1 1 -1\nline n 2 -1 3\n"
    "project a A m\nproject b m A\nproject c A B\nproject d m n\n"
    "print a\nprint b\nprint c\nprint d\n"
)


@pytest.mark.parametrize("module", ["pga2d.cli", "pga2d", "pga2d.script", "pga2d.cli run"])
def test_a_cold_import_loads_neither_the_kernel_nor_the_renderer(module, tmp_path):
    probe = f"import sys, {module}\n"
    if module == "pga2d.cli run":
        script = tmp_path / "projects.pga"
        script.write_text(PROJECTS)
        probe = f"import sys, pga2d.cli\npga2d.cli.main(['run', {str(script)!r}])\n"
    probe += (
        "loaded = {'pga2d.algebra', 'pga2d.kernel', 'pga2d.render'} & set(sys.modules)\n"
        "print(sorted(loaded), 'Multivector' in vars(sys.modules['pga2d.multivector']))"
    )
    *printed, last = _fresh(probe).splitlines()
    assert last == "[] False" and len(printed) == (4 if module.endswith("run") else 0)


@pytest.mark.parametrize(
    "script, loaded",
    [
        (None, []),
        ("dist345", ["pga2d.geometry"]),
        ("translation_case", ["pga2d.isometry"]),
        ("rotation_case", ["pga2d.geometry", "pga2d.isometry"]),
    ],
)
def test_a_run_loads_geometry_and_isometry_only_for_a_statement_that_needs_them(
    script, loaded
):
    probe = "import sys, pga2d.cli\n"
    if script is not None:
        probe += f"pga2d.cli.main(['run', {str(SCRIPTS / f'{script}.pga')!r}])\n"
    probe += "print(*sorted({'pga2d.geometry', 'pga2d.isometry'} & set(sys.modules)))"
    assert _fresh(probe).splitlines()[-1].split() == loaded


def test_the_package_loads_geometry_and_isometry_on_the_first_read_of_them_or_their_names():
    probe = """
import sys
import pga2d
assert not {'pga2d.geometry', 'pga2d.isometry'} & set(sys.modules)
assert pga2d.join is pga2d.geometry.join is sys.modules['pga2d.geometry'].join
assert 'pga2d.isometry' not in sys.modules
assert pga2d.isometry is sys.modules['pga2d.isometry'] and pga2d.Motor is pga2d.isometry.Motor
print('ok')
"""
    assert _fresh(probe) == "ok\n"


@pytest.mark.parametrize(
    "code, loaded",
    [
        (
            f"import pga2d.cli; pga2d.cli.main(['run', {str(SCRIPTS / 'rotation_case.pga')!r}])",
            {"pga2d.geometry", "pga2d.isometry"},
        ),
        ("import pga2d; pga2d.triple_lines", {"pga2d.algebra"}),
    ],
    ids=["rotation_case", "triple_lines"],
)
def test_a_module_loaded_on_first_use_is_reported_by_importtime(code, loaded):
    # bench/run.py reads each module's import time from these lines
    err = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-c", code],
        env=_child_env(), capture_output=True, text=True, check=True,
    ).stderr
    reported = {line.rpartition("|")[2].strip() for line in err.splitlines()}
    assert loaded <= reported


def test_the_typed_library_functions_leave_the_kernel_unloaded():
    probe = """
import sys
from pga2d import Line, Motor, OddVersor, Point, sandwich
from pga2d.algebra import (
    factor_motor, factor_point, interpolate, log_motor, perp_line_through, symmetric_line,
    triple_lines, triple_points,
)
a, b, c = Line(1, 2, 3), Line(-2, 1, 0.5), Line(0.3, -1, 2)
p, q = Point(1, 2, 1), Point(-1, 0.5, 2)
rotation, translation = Motor(0.8, 0.3, -0.2, 0.6), Motor(1, 0.3, -0.2, 0)
results = (
    perp_line_through(a, q), triple_points(p, q, p), triple_lines(a, b, c),
    symmetric_line(a, b, c), factor_point(p), factor_motor(rotation),
    factor_motor(translation), interpolate(rotation, 0.3),
)
# a versor on a versor is a closed form too
glide = OddVersor(1, 2, 3, 0.5)
images = [sandwich(v, x) for v in (rotation, glide) for x in (translation, glide)]
# log_motor refuses an operand of another class before it loads the kernel
try:
    log_motor(a)
except TypeError:
    pass
print(len(results) + len(images), 'pga2d.kernel' in sys.modules)
"""
    assert _fresh(probe) == "12 False\n"


# the names that pga2d reads from pga2d.algebra, which no script verb reaches
ALGEBRA_NAMES = (
    "perp_line_through", "reject", "triple_points", "triple_lines", "symmetric_line",
    "norm", "ideal_norm", "polar", "ideal_point_of", "factor_point",
    "exp_bivector", "log_motor", "interpolate", "factor_motor",
)


def test_the_algebra_names_load_it_on_first_read_as_its_objects():
    probe = f"""
import sys
import pga2d, pga2d.geometry, pga2d.isometry, pga2d.metric
# a missing name raises and loads nothing; ideal_inner is gone
for name in ('nope', 'ideal_inner'):
    try:
        getattr(pga2d, name)
    except AttributeError as exc:
        assert str(exc) == f"module 'pga2d' has no attribute {{name!r}}"
    else:
        raise AssertionError(name)
assert not {{'pga2d.algebra', 'pga2d.kernel'}} & set(sys.modules)
from pga2d import triple_lines
assert 'pga2d.algebra' in sys.modules and 'pga2d.kernel' not in sys.modules
import pga2d.algebra as algebra
for name in {ALGEBRA_NAMES!r}:
    assert name in vars(algebra) and (name in vars(pga2d)) == (name == 'triple_lines'), name
    assert getattr(pga2d, name) is vars(pga2d)[name] is vars(algebra)[name], name
    # no alias is left where the name was defined before
    for old in (pga2d.geometry, pga2d.isometry, pga2d.metric):
        assert not hasattr(old, name), (old, name)
assert not hasattr(pga2d.metric, 'ideal_inner') and 'pga2d.kernel' not in sys.modules
print('ok')
"""
    assert _fresh(probe) == "ok\n"


def test_a_star_import_binds_the_eager_and_the_lazy_names():
    probe = """
from pga2d import *
import pga2d, pga2d.algebra
assert Line is pga2d.Line and reject is pga2d.algebra.reject and norm is pga2d.algebra.norm
assert Multivector.__module__ == 'pga2d.kernel'
assert all(name in globals() for name in pga2d.__all__), pga2d.__all__
print('ok')
"""
    assert _fresh(probe) == "ok\n"


# a Multivector pickled at protocol 0 under its former module, pga2d.multivector
_OLD_PICKLE = (
    b"cpga2d.multivector\nMultivector\n((F1.0\nF2.0\nF3.0\nF4.0\nF5.0\nF6.0\nF7.0\nF0.5\nttR."
)


def test_the_kernel_names_load_on_first_read_as_the_kernel_objects():
    probe = f"""
import pickle, sys
import pga2d, pga2d.multivector as base
# importlib asks for __path__; a missing name loads nothing either
assert not hasattr(base, '__path__') and not hasattr(base, 'nope') and not hasattr(pga2d, 'nope')
# the other kernel names come only from pga2d.kernel
try:
    from pga2d.multivector import e012
except ImportError:
    pass
else:
    raise AssertionError('pga2d.multivector forwards e012')
assert not hasattr(base, 'cayley_table') and not hasattr(base, '_unchecked')
assert 'pga2d.kernel' not in sys.modules and 'Multivector' not in vars(base)
restored = pickle.loads({_OLD_PICKLE!r})
import pga2d.kernel as kernel
assert restored == kernel.Multivector((1, 2, 3, 4, 5, 6, 7, 0.5))
assert base.Multivector is pga2d.Multivector is kernel.Multivector
assert pickle.loads(pickle.dumps(kernel.e012)) == kernel.e012
print('ok')
"""
    assert _fresh(probe) == "ok\n"


def test_an_old_pickle_loads_as_the_kernel_multivector_in_process(monkeypatch):
    # the first read of pga2d.multivector.Multivector, here where a line tracer sees it
    import pickle

    import pga2d.multivector as base
    from pga2d.kernel import Multivector

    monkeypatch.delitem(vars(base), "Multivector", raising=False)
    restored = pickle.loads(_OLD_PICKLE)
    assert type(restored) is Multivector and restored.coeffs == (1, 2, 3, 4, 5, 6, 7, 0.5)
    assert vars(base)["Multivector"] is Multivector


def _slow_imports(tree: ast.AST) -> list[str]:
    """Each module that an import at the top level of tree names and that a
    cold start must not load: typing, pathlib, enum, the kernel, the renderer."""
    targets = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("pga2d." if node.level else "") + (node.module or "")
            # from . import render names the module in its list
            targets += [module] if node.module else [module + a.name for a in node.names]
    slow = ("pga2d.kernel", "pga2d.render")
    return [t for t in targets if t.split(".")[0] in ("typing", "pathlib", "enum") or t in slow]


def test_the_cli_path_imports_no_typing_pathlib_kernel_or_renderer_at_module_level():
    # which pga2d modules the CLI loads is the same on every Python; which
    # stdlib modules it loads is not, so those are read from the source
    loaded = _fresh(
        "import sys, pga2d.cli; print(*sorted(m for m in sys.modules if m.startswith('pga2d')))"
    ).split()
    assert {"pga2d.cli", "pga2d.multivector", "pga2d.script"} <= set(loaded)
    # geometry, isometry and the renderer load on first use, and then they too
    # must not load pathlib
    names = loaded + ["pga2d.geometry", "pga2d.isometry", "pga2d.render"]
    modules = [name.partition(".")[2] or "__init__" for name in names]
    assert [(m, t) for m in modules for t in _slow_imports(lints.trees()[m])] == []


def test_the_cold_path_import_lint_catches_each_slow_import():
    planted = ast.parse(
        "import math, typing\n"
        "from pathlib import Path\n"
        "from enum import Enum\n"
        "from . import render, metric\n"
        "from .kernel import e0\n"
        "from pga2d.render import build_svg\n"
        "import pga2d.kernel, pga2d.elements\n"
        "if True:\n"
        "    import typing\n"
        "def f():\n"
        "    from . import kernel\n"
    )
    assert _slow_imports(planted) == [
        "typing", "pathlib", "enum", "pga2d.render", "pga2d.kernel", "pga2d.render",
        "pga2d.kernel",
    ]


def test_the_library_import_loads_neither_enum_nor_re():
    # nor does the kernel, loaded on first use, which loads no typing either;
    # argparse brings both in, and the CLI imports it only for an uncommon argv;
    # no module imports __future__, whose loading each fresh start would pay
    probe = (
        "import sys, pga2d, pga2d.script, pga2d.render, pga2d.cli, pga2d.kernel; "
        "print(sorted({'__future__', 'enum', 're', 'typing'} & set(sys.modules)))"
    )
    assert _fresh(probe) == "[]\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (None, None),
        (["run", "dist345.pga", "--svg", "out.svg", "--tol", "1e-6"], 0),
        (["tables"], 0),
        (["run"], 2),
    ],
    ids=["import", "run", "tables", "usage-error"],
)
def test_only_an_uncommon_argv_loads_argparse(tmp_path, argv, code):
    # argparse imports gettext and re, and re imports enum
    (tmp_path / "dist345.pga").write_text((SCRIPTS / "dist345.pga").read_text())
    probe = f"""
import os, sys
import pga2d.cli
os.chdir({str(tmp_path)!r})
code = None
if {argv!r} is not None:
    try:
        code = pga2d.cli.main({argv!r})
    except SystemExit as exc:  # argparse
        code = exc.code
print(code, *sorted({{'argparse', 'gettext', 're', 'enum'}} & set(sys.modules)))
"""
    printed_code, *loaded = _fresh(probe).splitlines()[-1].split()
    assert printed_code == str(code)
    assert ("argparse" in loaded) if argv == ["run"] else (loaded == [])
    assert (tmp_path / "out.svg").exists() is (code == 0 and "--svg" in argv)


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize(
    "args",
    [
        ["tables"], ["run", "rotation_case.pga"], _FAILING.argv,
        ["--help"], ["run", "--help"],
    ],
    ids=["tables", "run", "run-failing", "help", "run-help"],
)
def test_a_closed_stdout_ends_in_one_error_line(tmp_path, args, unbuffered):
    (tmp_path / "rotation_case.pga").write_text((SCRIPTS / "rotation_case.pga").read_text())
    (tmp_path / _FAILING.script).write_bytes(_FAILING.source)
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pga2d.cli", *args], cwd=tmp_path, env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (
        1, "error: stdout was closed before all output was written\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize(
    "args",
    [["tables"], ["run", "rotation_case.pga"], ["--help"], ["run", "--help"]],
    ids=["tables", "run", "help", "run-help"],
)
def test_a_full_stdout_ends_in_one_error_line(tmp_path, args, unbuffered):
    (tmp_path / "rotation_case.pga").write_text((SCRIPTS / "rotation_case.pga").read_text())
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        run = subprocess.run(
            [sys.executable, "-m", "pga2d.cli", *args], cwd=tmp_path, env=env,
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    # one line, and no "Exception ignored" from the interpreter's last flush
    assert (run.returncode, run.stderr) == (
        1, "error: cannot write to stdout: [Errno 28] No space left on device\n"
    )


def test_the_names_the_benchmark_hooks_into_exist():
    # bench/cli_probe.py rebinds cli's parse, evaluate and render_svg, then
    # calls main; bench/run.py imports the rest
    import pga2d.cli
    import pga2d.errors
    import pga2d.render
    import pga2d.script

    hooks = {
        pga2d.cli: ("parse", "evaluate", "render_svg", "main"),
        pga2d.script: ("parse", "evaluate"),
        pga2d.render: ("build_svg",),
    }
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    assert issubclass(pga2d.errors.ScriptError, Exception)


@pytest.mark.parametrize(
    "args, usage",
    [
        (["--help"], "usage: pga2d [-h] {run,tables} ...\n"),
        (["run", "--help"], "usage: pga2d run [-h] [--svg PATH] [--tol EPS] script\n"),
    ],
)
def test_cli_help_goes_to_stdout_and_exits_0(capsys, args, usage):
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(usage) and err == ""


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "geometric product" in out
    assert "dual(e0) = e12" in out
    # spot entries of the printed table
    assert "-e0" in out and "e012" in out
    # the whole text: the tables are read off gp and dual, so this pins every
    # sign of the products
    assert out == (SCRIPTS.parent / "tables.expected.txt").read_text()


# -- fuzzing --------------------------------------------------------------------

_NUMBERS = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "2", "0.5", "1e-6", "1e6", "2e9", "1e300", "1.7e308", "5e-324",
         "-0", "nan", "inf", "-inf"]
    ),
    st.floats(-1e3, 1e3).map(repr),
)


@st.composite
def _scripts(draw):
    """Mostly well-formed statements over every verb but svg (which writes a
    file), with operands of any kind and literals from tiny to huge."""
    lines = []
    for i in range(draw(st.integers(1, 12))):
        verb = draw(st.sampled_from(sorted(set(_SIGNATURES) - {"svg"})))
        tokens = [verb]
        for kind in _SIGNATURES[verb]:
            if kind == "new":
                tokens.append(f"N{i}")
            elif kind == "ref":
                tokens.append(f"N{draw(st.integers(0, max(i - 1, 0)))}")
            else:
                tokens.append(draw(_NUMBERS))
        if draw(st.integers(0, 19)) == 0:
            tokens.pop()
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(source=_scripts(), tol=st.sampled_from([1e-9, 0.0, 1e-3]))
@example(source=CASES["subnormal-meet-printed"].source.decode(), tol=0.0)
def test_fuzzed_scripts_raise_only_script_errors(source, tol):
    """Only script errors escape, and what is printed or drawn is finite."""
    try:
        env, printed = evaluate(parse(source), tol)
    except (ParseError, EvaluationError):
        return
    assert "inf" not in printed and "nan" not in printed
    try:
        svg = build_svg(env, tol)
    except RenderError:
        return
    assert "inf" not in svg and "nan" not in svg
