"""The CLI's edge cases, each written once, in tests/data/cases: NAME.pga
holds a script's bytes, and NAME.json, or NAME@TAG.json for another run of
the same script, holds one run of it: ``{"why": what the case shows,
"args": [...], "exit": code, "stdout": text, "stderr": text}``, where args,
the options after the script, may be left out.  The tier-1 tests, the
output referee (tests/same_output.py) and CI read the cases through this
module, and no other code knows this layout.

Usage, from anywhere::

    python tests/cases.py COMMAND ...

runs ``COMMAND run NAME.pga ARGS`` for each case, such as ``pga2d`` of an
installed package, in a fresh directory that holds only the script, prints
each case whose exit code, stdout or stderr is not the recorded one, and
exits 1 if any is not.  pytest does not collect this file.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

FOLDER = Path(__file__).resolve().parent / "data" / "cases"


class Case(NamedTuple):
    script: str  # the script's file name, NAME.pga
    source: bytes
    args: list[str]
    why: str
    exit: int
    stdout: str
    stderr: str

    @property
    def argv(self) -> list[str]:
        """The argv of the CLI run, in a directory that holds the script."""
        return ["run", self.script, *self.args]


def load() -> dict[str, Case]:
    """Each case by name, NAME or NAME@TAG, in name order."""
    found = {}
    for path in sorted(FOLDER.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        script = path.stem.partition("@")[0] + ".pga"
        source = (FOLDER / script).read_bytes()
        found[path.stem] = Case(script, source, record.pop("args", []), **record)
    return found


def check(command: list[str], cases: dict[str, Case]) -> list[str]:
    """A line for each of cases whose run of command is not as recorded."""
    failed = []
    for name, case in cases.items():
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / case.script).write_bytes(case.source)
            run = subprocess.run(
                [*command, *case.argv], cwd=tmp, capture_output=True,
                encoding="utf-8", errors="backslashreplace",
            )
        got = (run.returncode, run.stdout, run.stderr)
        recorded = (case.exit, case.stdout, case.stderr)
        if got != recorded:
            failed.append(f"{name}: {got!r}, recorded {recorded!r}")
    return failed


if __name__ == "__main__":
    if len(sys.argv) < 2:
        raise SystemExit("usage: python tests/cases.py COMMAND ...")
    cases = load()
    failures = check(sys.argv[1:], cases)
    print(*failures, f"{len(cases)} cases, {len(failures)} not as recorded", sep="\n")
    raise SystemExit(1 if failures else 0)
