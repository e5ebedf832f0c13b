"""Span tracing installed from outside pga2d, around each layer's public names.

``Tracer.install()`` replaces every listed function, method and constructor
with a wrapper that records a span: name, start, end, parent span and request
id.  A module-level function is replaced in every ``pga2d`` module namespace
that binds it, because ``from .metric import normalize`` copies the binding.
``uninstall()`` puts the originals back, so an untraced run executes the
program exactly as shipped.

Spans are kept in flat arrays; ``take()`` hands over the spans of finished
requests, and ``summarize`` turns them into per-layer self times and counts.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# layer -> (module, public names); "Class.method" names a method
LAYERS = {
    "multivector": (
        "pga2d.multivector",
        (
            "Multivector.__init__", "Multivector.gp", "Multivector.outer", "Multivector.dot",
            "Multivector.join", "Multivector.commutator", "Multivector.dual",
            "Multivector.reverse", "Multivector.grade", "Multivector.scaled",
            "Multivector.__add__", "Multivector.__sub__", "Multivector.__neg__",
            "Multivector.max_abs", "Multivector.is_zero", "Multivector.approx_eq",
            "gp", "outer", "dot", "commutator", "dual", "join", "reverse", "grade",
            "basis", "from_scalar",
        ),
    ),
    "elements": (
        "pga2d.elements",
        tuple(
            f"{cls}.{meth}"
            for cls, meths in (
                ("Line", ("__init__", "mv", "from_mv", "is_ideal", "direction")),
                ("Point", ("__init__", "mv", "from_mv", "is_ideal", "from_xy")),
                ("IdealPoint", ("__init__", "mv", "as_point", "from_point")),
                ("Pseudoscalar", ("__init__", "mv", "from_mv")),
            )
            for meth in meths
        )
        + ("as_mv",),
    ),
    "metric": (
        "pga2d.metric",
        (
            "classify", "is_ideal", "norm", "ideal_norm", "normalize", "polar",
            "ideal_point_of", "ideal_inner", "factor_point",
        ),
    ),
    "geometry": (
        "pga2d.geometry",
        (
            "distance", "angle", "midpoint", "midline", "perp_line_through", "project",
            "triple_points", "triple_lines", "symmetric_line",
        ),
    ),
    "isometry": (
        "pga2d.isometry",
        (
            "Motor.__init__", "Motor.mv", "Motor.from_mv", "Motor.weight", "Motor.normalized",
            "OddVersor.__init__", "OddVersor.mv", "OddVersor.from_mv", "OddVersor.normalized",
            "sandwich", "reflect", "rotor_from_lines", "exp_bivector", "log_motor",
            "interpolate", "rotator", "translator", "translator_by", "glide_decompose",
            "glide_recompose", "factor_motor", "solve_point_line_transport",
        ),
    ),
    # format_value and _element_from_mv are left inside evaluate's self time
    "script": ("pga2d.script", ("parse", "evaluate")),
    "render": ("pga2d.render", ("build_svg", "render_svg")),
}

PRODUCTS = frozenset(f"multivector.Multivector.{op}" for op in ("gp", "outer", "dot", "join"))
MV_INIT = "multivector.Multivector.__init__"
ELEMENT_INITS = frozenset(
    f"elements.{cls}.__init__" for cls in ("Line", "Point", "IdealPoint", "Pseudoscalar")
)
SOLVE = "isometry.solve_point_line_transport"
SANDWICH = "isometry.sandwich"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current = [0]  # request id of new spans
        self._ids: dict[str, int] = {}
        self._restore: list = []

    # -- spans -------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        name_add, parent_add = self.name.append, self.parent.append
        request_add, start_add, end_add = self.request.append, self.start.append, self.end.append
        ends, stack, current, clock = self.end, self.stack, self.current, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(ends)
            name_add(nid)
            parent_add(stack[-1])
            request_add(current[0])
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def open(self, name: str) -> int:
        """Start a span from the benchmark itself, such as a whole request."""
        idx = len(self.end)
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1])
        self.request.append(self.current[0])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def take(self) -> list[tuple]:
        """Remove and return the recorded spans as (name, start, end, parent,
        request) rows; parents index into the returned list.  Call it only
        between requests, when no span is open."""
        rows = [
            (self.names[n], s, e, p, r)
            for n, s, e, p, r in zip(self.name, self.start, self.end, self.parent, self.request)
        ]
        for arr in (self.name, self.parent, self.request, self.start, self.end):
            del arr[:]
        return rows

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pga2d" or n.startswith("pga2d.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            for public in names:
                owner_name, _, attr = public.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = owner.__dict__.get(attr) if owner_name else getattr(module, attr, None)
                if raw is None:
                    continue  # the name is gone from this version of the program
                span = f"{layer}.{public}"
                if not owner_name:
                    wrapped = self.wrap(span, raw)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is raw:
                                setattr(m, key, wrapped)
                                self._restore.append((m, key, raw))
                elif isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(span, raw.__func__)))
                    self._restore.append((owner, attr, raw))
                else:
                    setattr(owner, attr, self.wrap(span, raw))
                    self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()


class Summary:
    """Per-layer self time (seconds) and the counts the benchmark reports."""

    def __init__(self):
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, other: "Summary") -> None:
        self.self_s.update(other.self_s)
        self.counts.update(other.counts)


def summarize(rows: list[tuple]) -> Summary:
    """Self time of a span is its duration minus the time its children cover;
    spans of one thread nest, so that is the sum of the children's durations."""
    covered = [0.0] * len(rows)
    in_solve = [False] * len(rows)
    for i, (name, start, end, parent, _) in enumerate(rows):
        if parent >= 0:
            covered[parent] += end - start
            in_solve[i] = in_solve[parent] or rows[parent][0] == SOLVE
    out = Summary()
    self_s, counts = out.self_s, out.counts
    for i, (name, start, end, _, _) in enumerate(rows):
        layer = name.partition(".")[0]
        if name == "script.parse" or name == "script.evaluate":
            layer = name
        self_s[layer] += end - start - covered[i]
        counts[name] += 1
        if name == SANDWICH and in_solve[i]:
            counts["sandwich_in_solve"] += 1
    return out


def layer_counts(summary: Summary) -> dict[str, int]:
    """The counted work of each layer, from span names."""
    c = summary.counts
    return {
        "mv_constructed": c[MV_INIT],
        "products": sum(c[n] for n in PRODUCTS),
        "elements_constructed": sum(c[n] for n in ELEMENT_INITS),
        "metric_calls": sum(n for name, n in c.items() if name.startswith("metric.")),
        "solves": c[SOLVE],
        "sandwich_in_solve": c["sandwich_in_solve"],
    }
