"""Output referee: does this tree print and draw exactly what another one does?

Usage, from anywhere::

    python tests/same_output.py BASE_DIR

BASE_DIR is another checkout of pga2d, for example a ``git worktree`` of the
base commit of a change.  The golden scripts and the generated bench scripts
(``bench/generate.py``, seeds 1-3, 12 per workload) run at ``--tol`` 1e-9, 1e-6
and 0 through ``pga2d.cli.main``, each script with ``--svg``, and so does
``pga2d tables`` and both ``--help`` texts, and so do a few failing scripts
and arguments: one per kind of error line, a few operands of the wrong kind,
and argument lists that argparse reads, most of them usage errors; and so do
a few scripts of operands that a verb once refused.  The
process section runs ``pga2d tables``, each golden script with ``--svg`` and
the failing script of CI's console-script step (``evaluation.pga`` here)
through the process entry, each in its own ``python -m pga2d.cli`` child.

The library section calls the algebra API and the functions that gate their
operands' kind on a fixed-seed corpus of lines, points, motors, odd versors,
pseudoscalars and raw multivectors, euclidean and ideal, some at the edge of
the ideal band, at tol 1e-9, 1e-6 and 0: ``.mv()`` and ``from_mv`` of every
class that has them, ``Multivector.grade``, ``polar``, ``log_motor``,
``exp_bivector``, the ``sandwich`` of a raw multivector, ``is_ideal``,
``normalize``, ``norm`` and ``ideal_norm`` of each line, point and motor,
and each function of ``geometry``, ``metric``, ``isometry`` and ``algebra``
that calls ``metric.euclidean`` or ``metric.ideal``, and ``join`` and
``meet``; then ``IdealPoint``, ``translator_by``, ``normalized`` of each
motor and odd versor, ``interpolate``, ``factor_motor``, the typed
``sandwich`` of lines, points, motors and odd versors, and on raw
multivectors every public method and arithmetic operator of the kernel's
``Multivector``, and every public function of ``pga2d.kernel``.  Every
function of ``pga2d.__all__`` and of the kernel has a call here, and tier-1
tests keep it so.  A call's
record is its result with every float's repr, so a signed zero or one ulp
shows, or the error's class and text.

Each tree runs every case but the process section's in one child process
with its own ``src`` on the path.  A case whose ``main`` raises anything but
``SystemExit`` records the exception's class and text in place of its exit
code, so a crash in one tree is one difference and the run goes on.  Any
difference in stdout, stderr, exit code, SVG bytes or a library record is
printed, and the exit code is then 1, unless it is a migration.  There is
one rule: a difference is a migration only when MIGRATIONS holds the pair
(old, new) of the stderr texts, or of a library error record's exception
classes with its text unchanged, or of its texts with its class unchanged.
Each migration is printed once, with the number of texts or records it
covers, and leaves the exit code at 0.  An entry of MIGRATIONS that explains
no difference is itself a difference, so a change lists only its own
migrations.
pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOLS = ("1e-9", "1e-6", "0")
SEEDS = (1, 2, 3)
PER_SEED = 12
# one script per kind of error line the CLI prints
FAILING = {
    "unknown-verb": "point A 0 0\nfrobnicate B\n",
    "arity": "point A 0\n",
    "bad-name": "point 3x 0 0\n",
    "redefined": "point A 0 0\npoint A 1 1\n",
    "undefined": "print B\n",
    "bad-number": "point A 1_0 zero\n",
    "evaluation": "point A 1 2\nprint A\nline m 1 0 0\nline n 0 1 0\ndist d m n\n",
    "range": "point A 1e300 0\n",
    "nothing-to-draw": "line m 1 0 5\nline n 0 1 5\n",
    "ideal-only": "ideal U 1 0\nideal V 0 -1\nprint U\n",
    # operands of the wrong kind, checked by the evaluator
    "mirror": "point A 0 0\nreflect B A A\n",
    "versor": "point A 0 0\napply B A A\n",
    "project-target": "point A 0 0\nrotator g A 1\nproject p A g\n",
    "project-zero": "line m 1 0 0\nline n 0 1 0\nproject p m n\n",
    "rotation-center": "line m 1 0 0\nrotator g m 1\n",
    "join-kind": "line m 1 0 0\nline n 0 1 0\njoin P m n\n",
    "meet-kind": "point A 0 0\npoint B 1 1\nmeet m A B\n",
    # a join or meet of coincident operands, after printed text
    "join-dependent": "point A 1 2\nprint A\npoint B 1 2\njoin m A B\n",
    "meet-dependent": "line m 1 0 2\nline n 2 0 4\nmeet P m n\n",
    # a computed ideal point where a euclidean one is wanted
    "computed-ideal-operand": "line m 0 1 0\nline n 0 1 -2\nmeet P m n\npoint A 0 0\ndist d P A\n",
    # a computed direction, of weight 1e-12, projected onto a line normal to it
    "normal-projection": (
        "line a 1 0 0\nline b 1 1e-12 -1\nmeet V a b\nline m 0 1 -5\nproject F V m\nprint F\n"
    ),
    # both incidences hold within the solver's check, but the motor misses n
    "solve-construction": (
        "point A 0 0\nline m 0 1 4e-9\npoint B 5 0\nline n 0 1 -4e-9\nsolve g A m B n\n"
    ),
    # line numbers count comment and blank lines, and \r\n and \r end a line
    "lineno-evaluation": (
        "# head\r\n\r\npoint A 0 0\r\nprint A # shown\r\n"
        "  # note\r\nline m 1 0 0\r\nreflect B A A\r\n"
    ),
    "lineno-parse": "point A 0 0\r\n\r\n# c\rprint B\r\n",
    # a length of finite fields that overflows, of two points and of two
    # parallel lines, and an svg path with a NUL byte
    "dist-overflow-points": "point A 1.7e308 1.7e308\npoint B 0 0\ndist d A B\nprint d\n",
    "dist-overflow-lines": "line m 1 1 1.7e308\nline n 1 1 -1.7e308\ndist d m n\nprint d\n",
    "svg-nul-path": "point A 0 0\nsvg a\x00b\n",
}
# operands that a verb once refused: a motor reflected or applied, and an
# ideal point as a rotation centre or projected onto a line
ACCEPTED = {
    "reflect-motor": "point A 1 2\nrotator g A 1\nline m 0 1 0\nreflect Q m g\nprint Q\n",
    "apply-motor": "point P 1 2\nrotator g P 1\napply h g g\nprint h\n",
    "ideal-operands": (
        "point O 0 0\nideal V 1 0\nline m 1 1 0\nrotator g V 2\ntranslator t V 2\n"
        "print g\nprint t\nproject P V m\nprint P\n"
    ),
}


# (old, new) pairs: a whole stderr text, or a library error record's exception
# class or its text, the other unchanged.  A change lists only its own
# migrations: a pair that explains no difference is itself a difference, so
# once the base commit gives a pair's new side the pair must go, and the next
# change starts from an empty set.
MIGRATIONS: set[tuple[str, str]] = {
    # the typed sandwich of a null versor names the versor and the operand
    (f"zero element is not a {kind}", f"{versor} maps {x} to zero")
    for versor in ("Motor(0, 1, 0, 0)", "OddVersor(0, 0, -2.5, -0)")
    for kind, operands in (
        ("line", (
            "Line[0.0781631, -0.421607, -93.9926]", "Line[0.307272, -0.579983, -48.5446]",
            "Line[-0.205603, 0.283156, 97.7622]", "Line[-0.076934, 0.98697, 98.5144]",
            "Line[-0.514649, -0.85471, -68.0198]", "Line[0.683805, 0.199109, 83.4925]",
            "Line[0, 0, -2.5]", "Line[1e-12, 0, 1]", "Line[-0, 4.94066e-324, 1]",
        )),
        ("point", (
            "Point(94.4338, 30.8848, 0.5)", "Point(76.414, -19.7177, 1)",
            "Point(61.0589, 34.3939, -2.5)", "Point(13.1305, 34.7788, 0.5)",
            "Point(12.4568, 93.9943, 0.5)", "Point(-1.10992, -38.1612, -2.5)",
            "Point(0.754154, -0.49594, 0)", "Point(1, 0, 1e-12)", "Point(-0, 4.94066e-324, 1)",
        )),
    )
    for x in operands
}


def _migration(field: str, old, new) -> tuple[str, str] | None:
    """The (old, new) pair of MIGRATIONS that explains this difference of one
    field, if any."""
    if field == "stderr":
        old, new = (v.decode("utf-8", "replace") if isinstance(v, bytes) else v for v in (old, new))
    elif field == "library" and old[:1] == new[:1] == ["raised"]:
        # the class moved under the same text, or the text under the same class
        if old[2] == new[2]:
            old, new = old[1], new[1]
        elif old[1] == new[1]:
            old, new = old[2], new[2]
        else:
            return None
    else:
        return None
    return (old, new) if (old, new) in MIGRATIONS else None


def _write_scripts(folder: Path) -> list[str]:
    """Writes every script into folder; returns their names."""
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))  # generate.py imports its sibling reference.py
    import generate

    names = []
    for path in sorted((ROOT / "tests" / "data" / "scripts").glob("*.pga")):
        (folder / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        names.append(path.name)
    for workload in sorted(generate.MIXES):
        for seed in SEEDS:
            for index in range(PER_SEED):
                name = f"{workload}-{seed}-{index}.pga"
                (folder / name).write_text(generate.generate(workload, seed, index).text)
                names.append(name)
    for name, text in {**FAILING, **ACCEPTED}.items():
        (folder / f"{name}.pga").write_text(text)
        names.append(f"{name}.pga")
    return names


def _cases(names: list[str]) -> list[list[str]]:
    runs = [["run", name, "--tol", tol, "--svg", "out.svg"] for name in names for tol in TOLS]
    x = names[0]
    # argv shapes that the CLI leaves to argparse: usage errors, and options
    # that argparse reads although they are not the common shape
    fallback = [
        [], ["run"], ["run", "a", "b"], ["tables", "extra"],
        ["run", x, "--svg"], ["run", x, "--bogus"], ["run", x, "--svg=out.svg"],
        ["run", x, "--sv", "out.svg"], ["run", "--tol", "0.001", x], ["run", x, "--tol", "abc"],
        ["run", x, "--tol", "-0"], ["run", x, "--svg", "a.svg", "--svg", "out.svg"],
        ["run", x, "--", "--svg"],
    ]
    return [
        ["tables"], ["--help"], ["run", "--help"], ["run", "missing.pga"],
        ["run", x, "--tol", "1"], *fallback, *runs,
    ]


def _process_cases() -> list[list[str]]:
    """The argv of each process-section run; evaluation.pga is CI's failing.pga."""
    golden = sorted(path.name for path in (ROOT / "tests" / "data" / "scripts").glob("*.pga"))
    runs = [["run", name, "--svg", "out.svg"] for name in golden + ["evaluation.pga"]]
    return [["tables"], *runs]


def _exact(value):
    """value with each float as its repr, and each value class as its name and
    fields."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    fields = getattr(type(value), "__slots__", ())
    if fields:
        return [type(value).__name__, *[_exact(getattr(value, f)) for f in fields]]
    return repr(value)


def _library_calls():
    """(label, call) for each call of the library corpus, in a fixed order."""
    import random

    import pga2d as g
    from pga2d import kernel
    from pga2d.kernel import Multivector

    r = random.Random(30)
    u = r.uniform
    lines = [g.Line(u(-1, 1), u(-1, 1), u(-100, 100)) for _ in range(6)]
    lines += [g.Line(0, 0, -2.5), g.Line(1e-12, 0, 1), g.Line(-0.0, 5e-324, 1)]
    points = [g.Point(u(-100, 100), u(-100, 100), r.choice((1, -2.5, 0.5))) for _ in range(6)]
    points += [g.Point(u(-1, 1), u(-1, 1), 0), g.Point(1, 0, 1e-12), g.Point(-0.0, 5e-324, 1)]
    motors = [g.Motor(u(-2, 2), u(-50, 50), u(-50, 50), u(-2, 2)) for _ in range(4)]
    motors += [g.Motor(1, 2, 3, 0), g.Motor(0, 1, 0, 0), g.Motor(-1, 5e-324, -0.0, 1e-12)]

    def odd(m, lam):
        return g.OddVersor(m.a, m.b, m.c, lam)

    versors = [odd(m, u(-5, 5)) for m in lines[:4]] + [odd(lines[6], -0.0)]
    scalars = [g.Pseudoscalar(s) for s in (2.5, -0.0, 5e-324)]
    raw = [Multivector([u(-10, 10) for _ in range(8)]) for _ in range(4)]
    raw += [m.grade(k) for m in raw[:2] for k in range(4)]
    raw += [Multivector((1e-10, 0, 1, 2, 0, 0, 0, 0)), Multivector((0, 0, 0, 0, 1, 2, 1e-7, 3e-8))]
    typed = lines + points + motors + versors + scalars
    tols = (1e-9, 1e-6, 0.0)

    def calls(name, f, operands):
        for args in operands:
            shown = ", ".join(getattr(a, "__name__", None) or repr(a) for a in args)
            yield f"{name}({shown})", functools.partial(f, *args)

    yield from calls("mv", lambda x: x.mv(), [(x,) for x in typed])
    classes = (g.Line, g.Point, g.Motor, g.OddVersor)
    every = [x.mv() for x in typed] + raw
    yield from calls("from_mv", lambda c, v, t: c.from_mv(v, t), [
        (c, v, t) for c in classes for v in every for t in tols
    ])
    yield from calls("grade", Multivector.grade, [
        (v, k) for v in raw[:4] for k in (0, 1, 2, 3, 4, -1, 1.5)
    ])
    yield from calls("polar", g.polar, [(x,) for x in typed])
    yield from calls("log_motor", g.log_motor, [(m, t) for m in motors for t in tols])
    yield from calls("exp_bivector", g.exp_bivector, [
        (b, t) for b in points + raw + motors[:2] for t in tols
    ])
    yield from calls("sandwich", g.sandwich, [
        (v, x) for v in motors + versors for x in raw[:6] + scalars
    ])
    # the metric of lines and points, and its refusal of a motor
    for name in ("is_ideal", "normalize", "norm", "ideal_norm"):
        yield from calls(name, getattr(g, name), [
            (x, t) for x in lines + points + motors for t in tols
        ])

    def pairs(a, b, n):
        return r.sample([(x, y) for x in a for y in b], n)

    # solvable transports: a on m and a2 on m2, built by join
    feet = [(p, g.join(p, q)) for p, q in pairs(points[:6], points[:6], 12) if p != q]
    gated = [
        ("distance", g.distance, pairs(lines + points, lines + points, 40)),
        ("angle", g.angle, pairs(lines + points, lines + points, 40)),
        # and each ideal point onto two lines
        ("project", g.project, pairs(lines + points, lines + points, 30) + [
            (v, m) for v in points[6:8] for m in lines[:2]
        ]),
        ("reject", g.reject, pairs(lines + points, lines + points, 30)),
        ("midpoint", g.midpoint, pairs(points, points, 20)),
        ("midline", g.midline, pairs(lines, lines, 20)),
        ("perp_line_through", g.perp_line_through, pairs(lines, points, 20)),
        ("reflect", g.reflect, pairs(lines, lines + points, 30)),
        ("rotor_from_lines", g.rotor_from_lines, pairs(lines, lines, 20)),
        ("rotator", g.rotator, [(p, u(-4, 4)) for p in points]),
        ("translator", g.translator, [(p, u(-50, 50)) for p in points]),
        ("triple_points", g.triple_points, [tuple(r.sample(points, 3)) for _ in range(15)]),
        ("triple_lines", g.triple_lines, [tuple(r.sample(lines, 3)) for _ in range(15)]),
        ("symmetric_line", g.symmetric_line, [tuple(r.sample(lines, 3)) for _ in range(15)]),
        ("factor_point", g.factor_point, [(p,) for p in points]),
        ("ideal_point_of", g.ideal_point_of, [(m,) for m in lines]),
        ("solve_point_line_transport", g.solve_point_line_transport, [
            (*f, *f2) for f, f2 in pairs(feet, feet, 15)
        ] + [(points[i], lines[i], points[i + 1], lines[i + 1]) for i in range(5)]),
        # join and meet check only their operands' class
        ("join", g.join, pairs(points, points, 30) + pairs(lines, points, 4)),
        ("meet", g.meet, pairs(lines, lines, 30) + pairs(points, lines, 4)),
    ]
    for name, f, operands in gated:
        yield from calls(name, f, [(*args, t) for args in operands for t in tols])

    # the exports and methods that no gate calls
    yield from calls("IdealPoint", g.IdealPoint, [(p.x, p.y) for p in points[:3]] + [
        (0.0, 0.0), (-0.0, 5e-324), (1e308, -1e308), (float("inf"), 1.0),
    ])
    yield from calls("translator_by", g.translator_by, [
        (u(-50, 50), u(-50, 50)) for _ in range(4)
    ] + [(0.0, -0.0), (5e-324, 1e308), (float("nan"), 0.0)])
    yield from calls("normalized", lambda v, t: v.normalized(t), [
        (v, t) for v in motors + versors for t in tols
    ])
    yield from calls("interpolate", g.interpolate, [
        (m, s, t) for m in motors for s in (0.0, 0.5, 1.0, -0.25) for t in tols
    ])
    yield from calls("factor_motor", g.factor_motor, [
        (m, t) for m in motors + versors[:1] for t in tols
    ])
    yield from calls("sandwich", g.sandwich, [
        (v, x) for v in motors + versors for x in lines + points + motors[:2] + versors[:2]
    ])
    # the rest of the kernel, on raw multivectors
    for name in ("gp", "outer", "dot", "join", "commutator", "__add__", "__sub__"):
        yield from calls(name, getattr(Multivector, name), [
            (x, y) for x in raw[:6] for y in raw[:6]
        ])
    for name in ("dual", "reverse", "__neg__", "max_abs", "mv"):
        yield from calls(f"Multivector.{name}", getattr(Multivector, name), [(x,) for x in raw])
    yield from calls("scaled", Multivector.scaled, [
        (x, s) for x in raw[:6] for s in (0.0, -2.5, 1e300, float("nan"))
    ])
    yield from calls("grades", Multivector.grades, [(x, t) for x in raw for t in tols])
    yield from calls("approx_eq", Multivector.approx_eq, [
        (x, y, t) for x in raw[:4] for y in raw[:4] for t in (1e-9, 10.0)
    ])
    yield from calls("basis", kernel.basis, [(i,) for i in (*range(8), 8, -1)])
    yield from calls("from_scalar", kernel.from_scalar, [
        (s,) for s in (0.0, -2.5, 1e308, float("inf"))
    ])
    for name in ("cayley_table", "dual_table", "format_cayley_table", "format_dual_table"):
        yield from calls(name, getattr(kernel, name), [()])


def _record(call):
    """The result of call, or the error's class and text."""
    try:
        return _exact(call())
    except Exception as exc:  # every error is part of the record
        return ["raised", type(exc).__name__, str(exc)]


def _library() -> list:
    """[label, record] for each library call."""
    return [[label, _record(call)] for label, call in _library_calls()]


def _child(folder: str) -> None:
    """Runs every case of folder/cases.json in this process; prints one JSON
    object: "cli", a list of [stdout, stderr, exit code or ["raised", class,
    text] of what main raised, SVG text or None] per case, and "library",
    the library records."""
    from pga2d.cli import main

    os.chdir(folder)
    results = []
    for argv in json.loads(Path("cases.json").read_text()):
        svg = Path("out.svg")
        svg.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
            except Exception as exc:  # a crash is this case's outcome, not the run's end
                code = ["raised", type(exc).__name__, str(exc)]
        drawn = svg.read_bytes().decode("utf-8", "backslashreplace") if svg.exists() else None
        results.append([out.getvalue(), err.getvalue(), code, drawn])
    sys.stdout.write(json.dumps({"cli": results, "library": _library()}))


def _run(src: Path, folder: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(folder)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: the run under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _processes(src: Path, folder: Path, cases: list[list[str]]) -> list:
    """[stdout, stderr, exit code, SVG bytes or None] of each case, each run in
    a fresh `python -m pga2d.cli` with src on the path."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    svg = folder / "out.svg"
    results = []
    for argv in cases:
        svg.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "pga2d.cli", *argv], cwd=folder, env=env, capture_output=True
        )
        drawn = svg.read_bytes() if svg.exists() else None
        results.append([proc.stdout, proc.stderr, proc.returncode, drawn])
    return results


def _compare(base: dict, this: dict, cases: list, processes: list) -> tuple[list, Counter]:
    """(differences, migrations) between the base tree's results and this
    tree's: a line per difference that MIGRATIONS does not explain, and per
    entry of MIGRATIONS that explains none; and the count of each (old, new)
    pair that explains some."""
    fields = ("stdout", "stderr", "exit code", "SVG")
    changed = []
    for section, prefix, section_cases in (("cli", "", cases), ("process", "process: ", processes)):
        for case, old, new in zip(section_cases, base[section], this[section]):
            shown = f"{prefix}{' '.join(case)}"
            if isinstance(old[2], list) or isinstance(new[2], list):  # main raised: one line
                if old != new:
                    line = f"{shown}: exit code {json.dumps(old[2])} became {json.dumps(new[2])}"
                    changed.append((line, "exit code", old[2], new[2]))
                continue
            changed += [
                (f"{shown}: {field} differs", field, a, b)
                for field, a, b in zip(fields, old, new)
                if a != b
            ]
    changed += [
        (f"library {label}: {json.dumps(old)} became {json.dumps(new)}", "library", old, new)
        for (label, old), (_, new) in zip(base["library"], this["library"])
        if old != new
    ]
    differences, migrations = [], Counter()
    for line, field, old, new in changed:
        pair = _migration(field, old, new)
        if pair is None:
            differences.append(line)
        else:
            migrations[pair] += 1
    if len(base["library"]) != len(this["library"]):
        differences.append(f"{len(base['library'])} library calls, then {len(this['library'])}")
    differences += [
        f"migration {old!r} -> {new!r} explains no difference"
        for old, new in sorted(MIGRATIONS)
        if (old, new) not in migrations
    ]
    return differences, migrations


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        _child(argv[1])
        return 0
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "pga2d").is_dir():
        print("usage: python tests/same_output.py BASE_DIR (a pga2d checkout)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        cases = _cases(_write_scripts(folder))
        (folder / "cases.json").write_text(json.dumps(cases))
        base_src = Path(argv[0]).resolve() / "src"
        base = _run(base_src, folder)
        this = _run(ROOT / "src", folder)
        processes = _process_cases()
        base["process"] = _processes(base_src, folder, processes)
        this["process"] = _processes(ROOT / "src", folder, processes)
    differences, migrations = _compare(base, this, cases, processes)
    for (old, new), count in migrations.items():
        print(f"migration ({count}): {old!r} -> {new!r}")
    for line in differences[:20]:
        print(line)
    failed = sum(result[2] != 0 for result in this["cli"])
    crashed = sum(isinstance(result[2], list) for result in this["cli"])
    library = this["library"]
    raising = sum(record[0] == "raised" for _, record in library)
    print(
        f"{len(cases)} cases ({failed} ending in an error, {crashed} raising), "
        f"{len(processes)} process runs, {len(library)} library calls ({raising} raising), "
        f"{len(differences)} differences and {migrations.total()} migrations from {argv[0]}"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
