"""Output referee: does this tree print and draw exactly what another one does?

Usage, from anywhere::

    python tests/same_output.py BASE_DIR

BASE_DIR is another checkout of pga2d, for example a ``git worktree`` of the
base commit of a change.  The golden scripts and the generated bench scripts
(``bench/generate.py``, seeds 1-3, 12 per workload) run at ``--tol`` 1e-9, 1e-6
and 0 through ``pga2d.cli.main``, each script with ``--svg``, and so does
``pga2d tables`` and both ``--help`` texts, and so do a few failing scripts
and arguments: one per kind of error line, a few operands of the wrong kind,
and argument lists that argparse reads, most of them usage errors.

Each tree runs every case in one child process with its own ``src`` on the
path.  Any difference in stdout, stderr, exit code or SVG bytes is printed,
and the exit code is then 1.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
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
}


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
    for name, text in FAILING.items():
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


def _child(folder: str) -> None:
    """Runs every case of folder/cases.json in this process; prints one JSON
    list of [stdout, stderr, exit code, SVG text or None]."""
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
        drawn = svg.read_bytes().decode("utf-8", "backslashreplace") if svg.exists() else None
        results.append([out.getvalue(), err.getvalue(), code, drawn])
    sys.stdout.write(json.dumps(results))


def _run(src: Path, folder: Path) -> list:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(folder)],
        env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: the run under {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


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
        base = _run(Path(argv[0]).resolve() / "src", folder)
        this = _run(ROOT / "src", folder)
    fields = ("stdout", "stderr", "exit code", "SVG")
    differences = [
        f"{' '.join(case)}: {field} differs"
        for case, old, new in zip(cases, base, this)
        for field, a, b in zip(fields, old, new)
        if a != b
    ]
    for line in differences[:20]:
        print(line)
    failed = sum(result[2] != 0 for result in this)
    print(
        f"{len(cases)} cases ({failed} ending in an error), "
        f"{len(differences)} differences from {argv[0]}"
    )
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
