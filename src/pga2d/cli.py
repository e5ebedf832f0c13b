"""Command-line entry point: run construction scripts, dump the product tables."""

import atexit
import os
import sys

from .errors import EvaluationError, ParseError, RenderError
from .multivector import DEFAULT_TOL
from .script import evaluate, parse, render_svg


def main(argv=None) -> int:
    """The CLI's exit code on argv.  Called with no argv, as the process entry,
    it ends the process with that code, argparse's help and usage exits too:
    it runs the atexit handlers, flushes stdout and stderr and calls os._exit,
    skipping the interpreter's last collections and with them only finalizers
    of objects alive at exit, which Python never promises.  It returns (or
    re-raises argparse's SystemExit) instead, leaving the exit to the
    interpreter, under a tracer or a profiler, under -i, beside a live thread,
    for a code that is not an int, and when the flush fails.  main(argv) never
    ends the process."""
    if argv is not None:
        return _run(list(argv))
    try:
        code = _run(sys.argv[1:])
    except SystemExit as exc:  # argparse
        _end(exc.code)
        raise
    _end(code)
    return code


def _end(code) -> None:
    """End the process with code as the interpreter would, but without its
    last collections; return when something needs the interpreter after."""
    monitoring = getattr(sys, "monitoring", None)  # cProfile's hooks since Python 3.12
    if sys.gettrace() or sys.getprofile() or monitoring and any(map(monitoring.get_tool, range(6))):
        return  # coverage, trace, pdb or cProfile: range(6) is every monitoring tool id
    threading = sys.modules.get("threading")  # unloaded, it has started no thread
    if sys.flags.inspect or not isinstance(code, int) or threading and threading.active_count() > 1:
        return
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a failed write or a closed stream: the interpreter reports it
        return
    os._exit(code)


def _run(argv: list[str]) -> int:
    """_main's exit code, or 1 with a message when writing stdout fails."""
    try:
        return _main(argv)
    except OSError as exc:  # writing stdout; _main catches every other OSError
        # on devnull, the last flush of what is left is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader is gone
            print("error: stdout was closed before all output was written", file=sys.stderr)
        else:
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1


def _read(argv: list[str]):
    """(command, script, svg, tol) of `tables`, or of `run SCRIPT` with at
    most one `--svg PATH` and one `--tol EPS` in either order, as argparse
    reads them, without importing it; None for any other argv, such as a
    value that starts with "-", which argparse then reads or rejects."""
    if argv == ["tables"]:
        return "tables", None, None, DEFAULT_TOL
    if len(argv) % 2 or argv[:1] != ["run"] or any(v.startswith("-") for v in argv[1::2]):
        return None
    options = dict(zip(argv[2::2], argv[3::2]))
    if len(options) != len(argv) // 2 - 1 or not options.keys() <= {"--svg", "--tol"}:
        return None
    try:
        tol = float(options.get("--tol", DEFAULT_TOL))  # argparse's type=float
    except ValueError:
        return None
    return "run", argv[1], options.get("--svg"), tol


def _parse_args(argv: list[str]):
    """(command, script, svg, tol) of any argv, read by argparse, which exits
    on help and on a usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def print_help(self, file=None):  # argparse's passes over a failed write; main reports it
            print(self.format_help(), end="", file=file or sys.stdout, flush=True)

    parser = _Parser(
        prog="pga2d", description="Euclidean plane constructions in geometric algebra"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a construction script")
    run_p.add_argument("script", help="path to the script file")
    run_p.add_argument("--svg", metavar="PATH", help="render the final environment")
    run_p.add_argument("--tol", type=float, default=DEFAULT_TOL, metavar="EPS")

    tables = sub.add_parser("tables", help="print the basis product and duality tables")
    tables.set_defaults(script=None, svg=None, tol=DEFAULT_TOL)  # the tuple _read gives

    args = parser.parse_args(argv)
    return args.command, args.script, args.svg, args.tol


def _tables() -> str:
    """The text that `pga2d tables` prints, read off the kernel."""
    from .kernel import format_cayley_table, format_dual_table

    return format_cayley_table() + format_dual_table()


def _main(argv: list[str]) -> int:
    command, script, svg, tol = _read(argv) or _parse_args(argv)

    if command == "tables":
        sys.stdout.write(_tables())
        sys.stdout.flush()  # a closed stdout fails here, inside main, not at exit
        return 0

    # at a tol of 1 or more every point is ideal, even the origin
    if not 0.0 <= tol < 1.0:
        print(f"error: --tol must be at least 0 and below 1, got {tol}", file=sys.stderr)
        return 1
    try:
        with open(script, encoding="utf-8") as handle:
            source = handle.read()
        statements = parse(source)
    except (OSError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(
            f"error: {script}: not valid UTF-8 text ({exc.reason} at byte {exc.start})",
            file=sys.stderr,
        )
        return 1
    try:
        env, _ = evaluate(statements, tol, sys.stdout.write)
    except EvaluationError as exc:
        sys.stdout.flush()  # what was printed before the failure comes first
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    if svg is not None:
        try:
            render_svg(env, svg, tol=tol)
        except (RenderError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
