"""Mutation check: does the test suite notice a one-line change to src/pga2d?

Usage, from anywhere::

    python tests/mutants.py [NAME ...]

Each entry of MUTANTS replaces one line of a module in a temporary copy of
this tree (src, tests, bench, pyproject.toml and README.md), runs the
entry's tests (modules or pytest node ids) there with ``pytest -x``, and
puts the line back; two copies test two mutants at a time.  A mutant is killed
when some of those tests fail; the copy must first pass them unmutated.  Each
survivor is printed; one listed in EQUIVALENT cannot change a result, and its
reason is printed with it.  The exit code is 1 when a mutant outside
EQUIVALENT survives or pytest ends in an error other than failed tests, and 2
when an entry's line does not occur exactly once or the unmutated copy fails.
With names, only those entries run.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parent.parent
PARSE = ("tests/test_script.py",)
BANDS = ("tests/test_tolerance.py",)
# the referee of the renderer, and the acceptance tests' golden SVG
SVG = ("tests/test_script.py::test_build_svg_matches_the_old_renderer", "tests/test_acceptance.py")
# the figures that would draw off the viewport
VIEWPORT = (
    "tests/test_script.py::test_the_svg_refuses_exactly_the_figures_it_would_draw_off_the_viewport",
)
# the shared mv and from_mv against the old layout, and from_mv's grade test
BRIDGE = (
    "tests/test_element_model.py::"
    "test_mv_puts_each_field_in_its_old_blade_and_from_mv_reads_it_back",
    "tests/test_element_model.py::test_from_mv_rejects_a_part_of_another_grade",
)
GATES = ("tests/test_element_model.py::test_a_gate_refuses_an_operand_of_the_wrong_class",)
# a class refusal is an OperandError, and every error of a script's statement
# names its operands, svg's path aside
OPERANDS = (
    "tests/test_script.py::test_statement_errors_carry_their_line_and_the_output_before_them",
    "tests/test_script.py::test_every_verb_gives_a_result_or_names_the_operands_it_refuses",
    "tests/test_script.py::test_an_svg_path_that_spells_a_defined_name_is_no_operand",
    "tests/test_script.py::test_a_plain_type_error_from_the_library_is_not_wrapped",
)
# every export over every combination of the value classes and a float
CLASS_SAFE = (
    "tests/test_element_model.py::test_every_export_returns_or_refuses_each_combination_of_values",
)
ODD_VERSOR = (
    "tests/test_values.py::test_constructor_rejects_non_finite_or_zero_fields",
    "tests/test_isometry.py::test_an_odd_versor_line_part_is_not_zero",
)
# every value constructor's refusal of a non-finite field, with the one text
FINITE = ("tests/test_values.py::test_constructor_rejects_non_finite_or_zero_fields",)
# a motor is built whatever its first three fields
MOTOR_ZERO = (
    "tests/test_values.py::test_a_motor_of_zero_scalar_and_zero_translation_parts_is_accepted",
)
# printed lines reach the sink, evaluate's own or the CLI's stdout
OUTPUT = (
    "tests/test_script.py::test_evaluate_distance_script",
    "tests/test_script.py::test_evaluate_keeps_output_printed_before_the_failure",
    "tests/test_script.py::test_cli_writes_output_printed_before_an_evaluation_error",
)
# the midpoint of coordinates whose sum overflows
MIDPOINT = (
    "tests/test_geometry.py::test_midpoint_of_points_whose_coordinate_sums_overflow",
    "tests/test_script.py::test_midpoint_of_points_whose_coordinate_sum_overflows_is_printed",
)
# a length of finite fields that overflows, in the library and in a script
LENGTHS = (
    "tests/test_geometry.py::test_a_length_that_overflows_is_a_domain_error",
    "tests/test_script.py::test_print_of_an_overflowing_coordinate_fails_with_the_kernel_error",
)
# which modules a run loads, and that -X importtime reports each one
ON_FIRST_USE = (
    "tests/test_script.py::"
    "test_a_run_loads_geometry_and_isometry_only_for_a_statement_that_needs_them",
    "tests/test_script.py::test_a_module_loaded_on_first_use_is_reported_by_importtime",
)
# the process entry ends the process after the atexit handlers and the flush,
# unless something needs the interpreter after main(); main(argv) returns
EXIT = (
    "tests/test_script.py::"
    "test_the_process_entry_ends_the_process_after_the_atexit_handlers_and_the_flush",
    "tests/test_script.py::"
    "test_the_process_entry_returns_under_a_tracer_a_profiler_or_beside_a_thread",
    "tests/test_script.py::test_a_run_under_cprofile_prints_its_output_then_the_profile",
)
# what a free vector gives where the closed form covers it, and the exact angle
IDEAL_OPERANDS = (
    "tests/test_isometry.py::test_the_rotator_about_an_ideal_point_is_its_translator_exactly",
    "tests/test_geometry.py::"
    "test_a_free_vector_projects_along_a_line_and_rejects_along_its_normal",
    "tests/test_geometry.py::test_angle_of_an_ideal_operand_is_never_farther_from_the_exact_one",
    "tests/test_geometry.py::test_angle_rejects_euclidean_point",
    "tests/test_kernel_reference.py::test_measurements_are_the_kernel_products_exactly",
)
# one normal form per ideal element: the unit free vector of weight 0, or e0
NORMAL_FORM = (
    "tests/test_metric.py::test_an_ideal_element_normalizes_to_weight_zero_or_to_e0",
)
# the sandwich of a null versor names the versor and the operand
NULL_VERSOR = (
    "tests/test_isometry.py::test_a_null_versor_that_maps_an_element_to_zero_is_named",
)
WORKERS = 2  # copies of the tree, each testing one mutant at a time

# name -> (module under src/pga2d, the text of one line, its replacement, tests)
MUTANTS = {
    # parse: each statement's fields and line numbers
    "nums-reversed": (
        "script.py", "*map(float, tokens[numbers:]))", "*map(float, tokens[numbers:][::-1]))",
        PARSE,
    ),
    "names-reversed": (
        "script.py", "names = tokens[1 + new:numbers]", "names = tokens[1 + new:numbers][::-1]",
        PARSE,
    ),
    "path-dropped": (
        "script.py", "names = tokens[1 + new:numbers]",
        "names = tokens[1 + new:numbers] if new or refs else []", PARSE,
    ),
    "result-empty": (
        "script.py", "result = tokens[1] if new else None", "result = tokens[1] if new else ''",
        PARSE,
    ),
    "comment-kept": (
        "script.py", 'tokens = raw.split("#", 1)[0].split()', "tokens = raw.split()", PARSE,
    ),
    "float-rounded": (
        "script.py", "*map(float, tokens[numbers:]))",
        "*(round(float(t), 6) for t in tokens[numbers:]))", PARSE,
    ),
    "cr-not-split": (
        "script.py", '.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        '.replace("\\r\\n", "\\n")', PARSE,
    ),
    # evaluate: each printed line goes to the one sink
    "emit-dropped": ("script.py", "emit(value)", "pass", OUTPUT),
    "sink-ignored": ("script.py", "emit = emit or out.append", "emit = out.append", OUTPUT),
    "cli-without-sink": (
        "cli.py", "evaluate(statements, tol, sys.stdout.write)", "evaluate(statements, tol)",
        OUTPUT,
    ),
    # the range of a point literal, and the zero test of a join or meet
    "point-constant-doubled": (
        "script.py", "if near_zero(1e-3, max(abs(x), abs(y)), tol):",
        "if near_zero(2e-3, max(abs(x), abs(y)), tol):", BANDS,
    ),
    "point-scale-halved": (
        "script.py", "if near_zero(1e-3, max(abs(x), abs(y)), tol):",
        "if near_zero(1e-3, 0.5 * max(abs(x), abs(y)), tol):", BANDS,
    ),
    "cross-scale-doubled": (
        "geometry.py", "max(abs(v0), abs(v1), abs(v2)), tol,",
        "2.0 * max(abs(v0), abs(v1), abs(v2)), tol,", BANDS,
    ),
    "cross-scale-halved": (
        "geometry.py", "max(abs(v0), abs(v1), abs(v2)), tol,",
        "0.5 * max(abs(v0), abs(v1), abs(v2)), tol,", BANDS,
    ),
    # the range of a line literal
    "line-constant-doubled": (
        "script.py", "near_zero(1e-3, abs(m.c) / math.hypot(m.a, m.b), tol)",
        "near_zero(2e-3, abs(m.c) / math.hypot(m.a, m.b), tol)", BANDS,
    ),
    "line-scale-halved": (
        "script.py", "near_zero(1e-3, abs(m.c) / math.hypot(m.a, m.b), tol)",
        "near_zero(1e-3, 0.5 * abs(m.c) / math.hypot(m.a, m.b), tol)", BANDS,
    ),
    "line-ideal-refused": (
        "script.py", "if (m.a or m.b) and near_zero(", "if (m.a or m.b or 1) and near_zero(",
        BANDS,
    ),
    # the one layout of the kernel's blades, and the class test of each gate
    "line-blades-swapped": (
        "elements.py", '_blades = (2, 3, 1), "a pure line"', '_blades = (3, 2, 1), "a pure line"',
        BRIDGE,
    ),
    "motor-blades-swapped": (
        "isometry.py", '_blades = (0, 4, 5, 6), "an even element"',
        '_blades = (0, 5, 4, 6), "an even element"', BRIDGE,
    ),
    # the construction rule of Line and Point, and that of Motor and OddVersor:
    # the zero refusal, which a motor skips, and the inline sum test
    "line-point-zero-unchecked": (
        "elements.py", "if a == 0.0 and b == 0.0 and c == 0.0:", "if False:", FINITE,
    ),
    "odd-zero-line-unchecked": (
        "isometry.py", "if rule[4] and a == 0.0 and b == 0.0 and c == 0.0:", "if False:",
        ODD_VERSOR,
    ),
    "motor-zero-refused": (
        "isometry.py", "if rule[4] and a == 0.0 and b == 0.0 and c == 0.0:",
        "if a == 0.0 and b == 0.0 and c == 0.0:", MOTOR_ZERO,
    ),
    "odd-finiteness-unchecked": (
        "isometry.py", "if not math.isfinite(a + b + c + d):", "if False:", ODD_VERSOR,
    ),
    # each construction rule defers to the one overflow check
    "line-point-finiteness-unchecked": ("elements.py", "_finite((a, b, c))", "pass", FINITE),
    "motor-finiteness-unchecked": ("isometry.py", "_finite((a, b, c, d))", "pass", FINITE),
    "mv-finiteness-unchecked": (
        "kernel.py", "_set_coeffs(self, _finite(coeffs))", "_set_coeffs(self, coeffs)", FINITE,
    ),
    "typed-sandwich-raw": (
        "isometry.py", "return x.from_mv(y) if isinstance(x, (Motor, OddVersor)) else y",
        "return y", CLASS_SAFE,
    ),
    "from-mv-grades-unchecked": (
        "elements.py", "if u.grades(tol) - {BLADE_GRADES[i] for i in blades}:", "if False:", BRIDGE,
    ),
    "grade-off-by-one": (
        "kernel.py", "[c if g == k else 0.0", "[c if g == k + 1 else 0.0",
        ("tests/test_kernel_reference.py",),
    ),
    "euclidean-class-unchecked": (
        "metric.py", "if not isinstance(x, kind):", "if False:", GATES,
    ),
    "ideal-class-unchecked": (
        "metric.py", "if not isinstance(p, Point):", "if False:", GATES,
    ),
    # the class checks of the motor functions and of the functions of any multivector
    "log-class-unchecked": (
        "algebra.py", 'raise OperandError(f"motor must be a Motor, not {type(g).__name__}")',
        "pass", GATES,
    ),
    "factor-motor-class-unchecked": (
        "algebra.py",
        'raise OperandError(f"factored motor must be a Motor, not {type(g).__name__}")', "pass",
        GATES,
    ),
    "exp-operand-unchecked": ("algebra.py", 'if not hasattr(b, "mv"):', "if False:", GATES),
    "polar-operand-unchecked": ("algebra.py", 'if not hasattr(x, "mv"):', "if False:", GATES),
    # each module's class refusals are OperandErrors, which a script reports
    # with its operands; a plain TypeError, a bug's, is not wrapped
    "join-refusal-plain": (
        "geometry.py",
        'raise OperandError(f"no join of {type(p).__name__} and {type(q).__name__}")',
        'raise TypeError(f"no join of {type(p).__name__} and {type(q).__name__}")', OPERANDS,
    ),
    "gate-refusal-plain": (
        "metric.py",
        'raise OperandError(f"{what} must be a {kind.__name__}, not {type(x).__name__}")',
        'raise TypeError(f"{what} must be a {kind.__name__}, not {type(x).__name__}")', OPERANDS,
    ),
    "versor-refusal-plain": (
        "isometry.py", 'raise OperandError(f"cannot use {type(v).__name__} as a versor")',
        'raise TypeError(f"cannot use {type(v).__name__} as a versor")', OPERANDS,
    ),
    "log-refusal-plain": (
        "algebra.py", 'raise OperandError(f"motor must be a Motor, not {type(g).__name__}")',
        'raise TypeError(f"motor must be a Motor, not {type(g).__name__}")', GATES,
    ),
    "provenance-dropped": (
        "script.py", 'f"{exc} ({operands})" if names else str(exc)', "str(exc)", OPERANDS,
    ),
    "provenance-line-of-the-error": (
        "script.py", 'f"{n}: {type(env[n]).__name__}, line {made[n]}"',
        'f"{n}: {type(env[n]).__name__}, line {lineno}"', OPERANDS,
    ),
    "provenance-repeats-a-name": (
        "script.py", "names = dict.fromkeys(args[:numbers - 1 - new] if refs else ())",
        "names = list(args[:numbers - 1 - new] if refs else ())", OPERANDS,
    ),
    "provenance-names-the-svg-path": (
        "script.py", "names = dict.fromkeys(args[:numbers - 1 - new] if refs else ())",
        "names = dict.fromkeys(args[:numbers - 1 - new])", OPERANDS,
    ),
    "evaluate-wraps-every-type-error": (
        "script.py", "except (AlgebraError, RenderError, OSError) as exc:",
        "except (AlgebraError, RenderError, OSError, TypeError) as exc:", OPERANDS,
    ),
    # the value base's one repr, and the metric's refusal of what is no line or point
    "repr-not-g": (
        "multivector.py", 'format(getattr(self, name), "g")', "repr(getattr(self, name))",
        ("tests/test_values.py",),
    ),
    "classify-returns-false": (
        "metric.py", 'raise OperandError(f"cannot classify {type(x).__name__}")', "return False",
        ("tests/test_metric.py",),
    ),
    # the weight-1 shortcut of the normalizer
    "unit-any-weight": ("metric.py", "if x.z == 1.0:", "if x.z > 0.0:", ("tests/test_metric.py",)),
    # the SVG: signed zeros, label anchors, arrow heads and drawing order
    "labels-keep-minus-zero": (
        "render.py", '% tuple(at)).replace("-0.00", "0.00").split("\\n")',
        '% tuple(at)).split("\\n")', SVG,
    ),
    "body-keeps-minus-zero": (
        "render.py", 'body = ("".join(shapes) % tuple(nums)).replace("-0.00", "0.00")',
        'body = "".join(shapes) % tuple(nums)', SVG,
    ),
    "anchor-weights-swapped": (
        "render.py", "px, py = 0.75 * px1 + 0.25 * px2, 0.75 * py1 + 0.25 * py2",
        "px, py = 0.25 * px1 + 0.75 * px2, 0.25 * py1 + 0.75 * py2", SVG,
    ),
    "barb-offset-9": (
        "render.py", "lx, ly = px + 8.0 * (-f0 - 0.5 * f1)", "lx, ly = px + 9.0 * (-f0 - 0.5 * f1)",
        SVG,
    ),
    "drawn-reversed": (
        "render.py", "in drawn:", "in drawn[::-1]:", SVG,
    ),
    "anchor-y-from-x": (
        "render.py", '_ARROW.format("%.2f %.2f" % (ax, ay))', '_ARROW.format("%.2f %.2f" % (ax, ax))',
        SVG,
    ),
    # the clip's second crossing of a vertical border, taken at the first
    "clip-right-at-left": (
        "render.py", "y = -(a * x1 + c) / b", "y = -(a * x0 + c) / b",
        ("tests/test_script.py::test_clipping_keeps_the_crossings_and_their_order", *SVG),
    ),
    # the viewport check: the topmost point, then the anchor
    "viewport-top-unchecked": (
        "render.py", "for v in (top, ax, ay)]", "for v in (ax, ay)]", VIEWPORT,
    ),
    "viewport-anchor-unchecked": (
        "render.py", "for v in (top, ax, ay)]", "for v in (top,)]", VIEWPORT,
    ),
    # geometry's midpoint sums before it halves
    "midpoint-summed-first": (
        "geometry.py", "return Point(0.5 * px + 0.5 * qx, 0.5 * py + 0.5 * qy, 1.0)",
        "return Point(0.5 * (px + qx), 0.5 * (py + qy), 1.0)", MIDPOINT,
    ),
    # the distance of two points returns an overflowed length
    "distance-unchecked": (
        "geometry.py", "return _finite((math.hypot(py - qy, qx - px),))[0]",
        "return math.hypot(py - qy, qx - px)", LENGTHS,
    ),
    # one exponential of a point, one angle of two directions, and the
    # projection of a free vector, of its own weight
    "rotator-keeps-an-ideal-weight": (
        "isometry.py", "0.5 * alpha * z)))", "0.5 * alpha * (z or p.z))))", IDEAL_OPERANDS,
    ),
    # the weight of exp((d/2) V) is read from V's normal form, signed zero included
    "translator-drops-the-weight": (
        "isometry.py", "0.5 * d * z)))", "0.0)))", IDEAL_OPERANDS,
    ),
    # an ideal line normalizes to e0, and an ideal point to weight 0
    "unit-ideal-line-divided": (
        "metric.py", "return 0.0, 0.0, 1.0", "return x.a / x.c, x.b / x.c, 1.0", NORMAL_FORM,
    ),
    "unit-ideal-point-keeps-its-weight": (
        "metric.py", "return unit_direction(x.x, x.y)", "return unit_direction(x.x, x.y, x.z)",
        NORMAL_FORM,
    ),
    "project-of-weight-1": (
        "geometry.py", "return Point(u0 - w0 * d, u1 - w1 * d, u2)",
        "return Point(u0 - w0 * d, u1 - w1 * d, 1.0)", IDEAL_OPERANDS,
    ),
    "angle-signed-sine": (
        "geometry.py", "return math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)",
        "return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)", IDEAL_OPERANDS,
    ),
    "project-gates-a-free-vector": (
        "geometry.py", "free = isinstance(x, Point) and isinstance(onto, Line)", "free = False",
        IDEAL_OPERANDS,
    ),
    "angle-gates-the-point-first": (
        "geometry.py", "x, y = y, x  # the line is gated first; the angle is symmetric", "pass",
        IDEAL_OPERANDS,
    ),
    "solver-gates-both-points-first": (
        "isometry.py",
        'an, mn = euclidean(a, Point, tol, "point a"), euclidean(m, Line, tol, "line m")',
        'an, mn = euclidean(a, Point, tol, "point a"), euclidean(a2, Point, tol, "point a2")'
        '; mn = euclidean(m, Line, tol, "line m")', OPERANDS,
    ),
    # a null versor's zero image is refused with the constructor's text alone
    "sandwich-names-no-versor": (
        "isometry.py", 'raise DomainError(f"{v!r} maps {x!r} to zero") from None', "raise",
        NULL_VERSOR,
    ),
    # the interpreter loads geometry and isometry on import
    "script-loads-eagerly": (
        "script.py", "pga2d = sys.modules[__package__]",
        "pga2d = sys.modules[__package__]; from . import geometry, isometry", ON_FIRST_USE,
    ),
    # the package loads a module where -X importtime does not see it
    "load-unreported": (
        "__init__.py", 'value = __import__(f"{__name__}.{module}", fromlist=("*",))',
        'value = __import__("importlib").import_module(f"{__name__}.{module}")', ON_FIRST_USE,
    ),
    # the process ends without running the atexit handlers
    "cli-skips-atexit": ("cli.py", "atexit._run_exitfuncs()", "pass", EXIT),
    # the process ends under a tracer or a profiler, before it reports
    "cli-exits-under-a-profiler": (
        "cli.py", "if sys.gettrace() or sys.getprofile() or monitoring and any(",
        "if False and any(", EXIT,
    ),
    # a library caller's process ends with main(argv)
    "cli-exits-every-caller": ("cli.py", "return _run(list(argv))", "_end(_run(list(argv)))", EXIT),
}
# name -> why the mutant cannot change a result
EQUIVALENT: dict[str, str] = {}


def _copy(folder: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests", "bench"):
        shutil.copytree(ROOT / name, folder / name, ignore=skip)
    for name in ("pyproject.toml", "README.md"):  # README's tables are linted
        shutil.copy(ROOT / name, folder)


def _pytest(folder: Path, tests) -> int:
    """pytest's exit code for tests in folder: 0 passed, 1 some failed."""
    shutil.rmtree(folder / ".hypothesis", ignore_errors=True)  # no example carries over
    env = dict(os.environ, PYTHONPATH=str(folder / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=folder, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def _mutated(folder: Path, module: str, old: str, new: str, tests: tuple[str, ...]) -> int:
    path = folder / "src" / "pga2d" / module
    text = path.read_text()
    path.write_text(text.replace(old, new))
    try:
        return _pytest(folder, tests)
    finally:
        path.write_text(text)


def main(names: list[str]) -> int:
    unknown = set(names) - MUTANTS.keys()
    if unknown:
        print(f"usage: python tests/mutants.py [NAME ...]; unknown: {sorted(unknown)}",
              file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    for name in names:
        module, old = MUTANTS[name][:2]
        if "\n" in old or (ROOT / "src" / "pga2d" / module).read_text().count(old) != 1:
            print(f"error: {name}: {old!r} is not on exactly one line of {module}",
                  file=sys.stderr)
            return 2
    start = time.perf_counter()
    unexpected = []
    with tempfile.TemporaryDirectory() as tmp:
        folders: Queue[Path] = Queue()
        for i in range(WORKERS):
            folders.put(Path(tmp) / str(i))
            _copy(Path(tmp) / str(i))
        # a tree that fails unmutated would read every mutant as killed
        tests = sorted({test for name in names for test in MUTANTS[name][3]})
        if _pytest(Path(tmp) / "0", tests) != 0:
            print(f"error: {' '.join(tests)} fail without a mutant", file=sys.stderr)
            return 2

        def run(name: str) -> int:
            folder = folders.get()
            try:
                return _mutated(folder, *MUTANTS[name])
            finally:
                folders.put(folder)

        with ThreadPoolExecutor(WORKERS) as pool:
            codes = list(pool.map(run, names))
    for name, code in zip(names, codes):
        if code == 1:
            continue
        if code != 0:
            print(f"ERROR: {name}: pytest exited {code} (a mutant that breaks collection?)")
            unexpected.append(name)
        elif name in EQUIVALENT:
            print(f"survived (equivalent): {name}: {EQUIVALENT[name]}")
        else:
            print(f"SURVIVED: {name}")
            unexpected.append(name)
    print(f"{len(names)} mutants, {len(unexpected)} unexpected survivors or errors "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
