"""Construction language: parsing, evaluation, golden runs, SVG, CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga2d
from pga2d.cli import main
from pga2d.errors import EvaluationError, ParseError, RenderError
from pga2d.elements import Point
from pga2d.isometry import Motor
from pga2d.render import build_svg
from pga2d.script import evaluate, format_program, format_value, parse

SCRIPTS = Path(__file__).parent / "data" / "scripts"


# -- parsing -------------------------------------------------------------------


def test_parse_simple_statements():
    program = parse("point A 0 0\ndist d A A  # comment\n\n# full comment line\n")
    assert [st.verb for st in program.statements] == ["point", "dist"]
    assert program.statements[0].result == "A"
    assert program.statements[0].args == (0.0, 0.0)
    assert program.statements[1].args == ("A", "A")


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


def test_roundtrip_through_formatter():
    source = """
point A 1 0
line m 0 1 0
ideal V 0.25 -3.5
rotator g A 1e-09
apply B g A
dist d A B
print d
svg out.svg
"""
    program = parse(source)
    assert parse(format_program(program)) == program


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
    with pytest.raises(EvaluationError) as err:
        evaluate(parse("point A 1 2\nprint A\nline m 1 0 0\nline n 0 1 0\ndist d m n\n"))
    assert err.value.lineno == 5
    assert err.value.output == "A = (1.000000, 2.000000)\n"


@pytest.mark.parametrize(
    "source, printed",
    [
        ("ideal v 1.7e308 1.7e308\nprint v\n", "v = ideal (0.707107, 0.707107)\n"),
        ("line m 1.7e308 1.7e308 0\nprint m\n", "m = [0.707107, 0.707107, 0.000000]\n"),
    ],
)
def test_evaluate_unit_directions_of_huge_coordinates(source, printed):
    _, output = evaluate(parse(source))
    assert output == printed


def test_format_value_of_huge_ideal_point():
    assert format_value(Point(1.7e308, -1.7e308, 0.0)) == "ideal (0.707107, -0.707107)"


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


def test_svg_is_deterministic(tmp_path):
    env, _ = evaluate(parse("point A 0 0\npoint B 3 4\njoin l A B\n"))
    first = build_svg(env)
    second = build_svg(env)
    assert first == second
    target = tmp_path / "out.svg"
    from pga2d.render import render_svg

    render_svg(env, target)
    assert target.read_text() == first


def test_svg_golden_file():
    source = (SCRIPTS / "dist345.pga").read_text()
    env, _ = evaluate(parse(source))
    assert build_svg(env) == (SCRIPTS / "dist345.expected.svg").read_text()


def test_svg_nothing_to_render():
    env, _ = evaluate(parse("point A 0 0\npoint B 1 0\ndist d A B\n"))
    with pytest.raises(RenderError, match="nothing to render"):
        build_svg({"d": env["d"]})


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


def test_cli_parse_error_exit_code(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("meet P\n")
    assert main(["run", str(script)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_cli_evaluation_error_exit_code(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\njoin l A A\n")
    assert main(["run", str(script)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_cli_missing_file(capsys):
    assert main(["run", "/no/such/script.pga"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_svg_flag(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\npoint B 1 1\n")
    out = tmp_path / "fig.svg"
    assert main(["run", str(script), "--svg", str(out)]) == 0
    assert out.exists()


def test_cli_unwritable_svg(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\n")
    assert main(["run", str(script), "--svg", "/no/such/dir/fig.svg"]) == 2


def test_cli_tol_flag(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 0 0\nprint A\n")
    assert main(["run", str(script), "--tol", "1e-6"]) == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5"])
def test_cli_rejects_bad_tol(tmp_path, capsys, tol):
    script = tmp_path / "s.pga"
    script.write_text("point A 1 0\nprint A\n")
    assert main(["run", str(script), "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tol") and captured.err.count("\n") == 1


def test_cli_accepts_zero_tol(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 1 0\nprint A\n")
    assert main(["run", str(script), "--tol", "0"]) == 0
    assert capsys.readouterr().out == "A = (1.000000, 0.000000)\n"


def test_cli_rejects_non_utf8_script(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_bytes(b"point A 0 0\n# caf\xe9\n")
    assert main(["run", str(script)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "UTF-8" in err and err.count("\n") == 1


def test_cli_overflow_is_an_evaluation_error(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("line m 1e300 1e300 1e300\nline n 1e300 -1e300 0\nmeet P m n\n")
    assert main(["run", str(script)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: ") and "overflow" in err and err.count("\n") == 1


def test_cli_writes_output_printed_before_an_evaluation_error(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text("point A 1 2\nprint A\nline m 1 0 0\nline n 0 1 0\ndist d m n\n")
    assert main(["run", str(script)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "A = (1.000000, 2.000000)\n"
    assert captured.err.startswith("error: line 5: ") and captured.err.count("\n") == 1


def test_cli_solves_a_tiny_turn_on_a_small_figure(tmp_path, capsys):
    script = tmp_path / "s.pga"
    script.write_text(
        "point A -0.004555133768986475 0.006820232028580861\n"
        "line m 0.34982891440251884 -0.9368136050719775 0.007982803655484996\n"
        "point A2 -0.004555132938421336 0.0068202330058551785\n"
        "line m2 0.3498288112587642 -0.93681364358835 0.007982804073310293\n"
        "solve g A m A2 m2\n"
        "apply B g A\n"
        "print B\n"
    )
    assert main(["run", str(script)]) == 0
    assert capsys.readouterr().out == "B = (-0.004555, 0.006820)\n"


def test_cold_cli_start_skips_dataclasses_and_runs_a_golden_script():
    env = dict(os.environ)
    src = str(Path(pga2d.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
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


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "geometric product" in out
    assert "dual(e0) = e12" in out
    # spot entries of the printed table
    assert "-e0" in out and "e012" in out
