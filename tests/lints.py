"""What the source lints over src/pga2d share: each module's AST, parsed once
(trees), one cached walk of a tree's scopes (scoped), and the names that the
lints read from it; and what the lints of README read from its text.  pytest
does not collect this file."""

import ast
import re
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pga2d"
README = SRC.parent.parent / "README.md"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


@cache
def trees() -> dict[str, ast.Module]:
    """The AST of each module of src/pga2d, keyed by module name."""
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


@cache
def scoped(tree: ast.AST) -> tuple:
    """(node, scopes) for each node of tree, parents first, in source order.
    scopes are the functions, lambdas and classes that enclose the node,
    outermost first; a function, lambda or class is among its own scopes."""
    found, todo = [], [(tree, ())]
    while todo:
        node, scopes = todo.pop()
        if isinstance(node, SCOPES):
            scopes += (node,)
        found.append((node, scopes))
        todo += [(child, scopes) for child in reversed(list(ast.iter_child_nodes(node)))]
    return tuple(found)


def owner(scopes: tuple) -> str:
    """The qualified name of the innermost function or class of scopes,
    lambdas aside: "Line.is_ideal", "_init3", or "<module>" for none."""
    return ".".join(s.name for s in scopes if not isinstance(s, ast.Lambda)) or "<module>"


def called(node: ast.AST) -> str | None:
    """The name that a call's target, a raised class or an attribute ends in:
    "f" for f(x), m.f(x), raise f and raise m.f(x); None for anything else."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def report(lint) -> list[str]:
    """Each finding of lint(tree, module) over trees(), as "module.py: finding"."""
    return [f"{m}.py: {found}" for m, tree in trees().items() for found in lint(tree, m)]


def public_callers(asts, names: set[str]) -> set[str]:
    """Each public function of asts that calls one of names by its bare name,
    itself or through private helpers; a call counts for every function around it."""
    callers: dict[str, set[str]] = {}
    for tree in asts:
        for node, scopes in scoped(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                functions = {s.name for s in scopes if isinstance(s, ast.FunctionDef)}
                callers.setdefault(node.func.id, set()).update(functions)
    seen, todo = set(names), list(names)
    while todo:
        for caller in callers.get(todo.pop(), set()) - seen:
            seen.add(caller)
            if caller.startswith("_"):
                todo.append(caller)
    return {name for name in seen - names if not name.startswith("_")}


def table_names(text: str, heading: str) -> set[str]:
    """The `names` in the first column of the table under heading in text,
    up to the next heading."""
    section = text.split(heading, 1)[1].split("\n#", 1)[0]
    cells = [row.split(" | ")[0] for row in section.splitlines() if row.startswith("| `")]
    return {name for cell in cells for name in re.findall(r"`([\w.]+)`", cell)}


def stale_quotes(text: str, stderrs) -> list[str]:
    """Each `error: line ...` message that text quotes, in backticks or as a
    line of a code block, that is no text of stderrs; whitespace compares
    collapsed, because prose wraps a quote across lines."""
    recorded = {" ".join(err.split()) for err in stderrs}
    quotes = re.findall(r"`(error: line\s[^`]*)`|^ *(error: line .*)$", text, re.MULTILINE)
    shown = [" ".join("".join(quote).split()) for quote in quotes]
    return [quote for quote in shown if quote not in recorded]
