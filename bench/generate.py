"""Seeded generator of long construction scripts with their expected output.

Each script is built statement by statement while the independent reference
(:mod:`reference`) tracks every value, so operands can be chosen away from
degenerate configurations and the expected ``print`` output is known without
running pga2d.  The same (workload, seed, index) always gives the same script.

Statement mixes are fixed counts per script, not probabilities, so that the
work in a script varies little from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import reference as ref

MIXES = {
    # Mostly euclidean constructions: the kernel, validation and evaluator
    # dispatch dominate.  Coordinates uniform in [-100, 100].
    "script-euclid": {
        "point": 110,
        "line": 60,
        "join": 100,
        "meet": 80,
        "dist": 80,
        "angle": 60,
        "midpoint": 80,
        "rotator": 50,
        "apply": 130,
        "print": 250,
    },
    # Ideal points, parallel lines (whose meet is ideal), translations,
    # reflections, projections, bisectors and the transport solver, with
    # figure sizes drawn log-uniformly from 1e-2 to 1e3.  "parallel" is a
    # ``line`` statement parallel to an existing line; "solve" counts blocks
    # of about ten statements (see _Builder.solve).
    "script-ideal": {
        "ideal": 50,
        "point": 70,
        "line": 50,
        "parallel": 40,
        "meet": 70,
        "join": 20,
        "translator": 50,
        "reflect": 60,
        "project": 60,
        "midline": 40,
        "apply": 90,
        "angle": 40,
        "dist": 30,
        "solve": 16,
        "print": 170,
    },
}

SCALE = {"script-euclid": (2.0, 2.0), "script-ideal": (-2.0, 3.0)}
"""log10 of the figure size: each new figure has coordinates in [-S, S] with
log10(S) drawn uniformly from this interval."""

LIMIT = {"script-euclid": 1e4, "script-ideal": 1e5}
"""Largest euclidean coordinate a generated value may reach, far below the
range where pga2d's relative tolerance would classify a point as ideal."""

SOLVE_KINDS = ("generic", "coincident", "generic", "slide")
"""Transport configurations in turn: distinct points and lines, coincident
points (a rotation about them), and a slide along one line (a translation)."""

_PREAMBLE = {
    "script-euclid": ("point", "point", "point", "point", "line", "line", "line", "rotator"),
    "script-ideal": (
        "point", "point", "point", "ideal", "ideal", "line", "line", "parallel", "translator",
    ),
}


@dataclass(frozen=True)
class Script:
    text: str
    statements: int
    expected: tuple  # (name, kind, values) per printed line
    circles: int  # drawn euclidean points
    arrows: int  # drawn ideal points
    lines: int  # lines that may be drawn


def generate(workload: str, seed: int, index: int) -> Script:
    rng = random.Random(f"{workload}/{seed}/{index}")
    builder = _Builder(workload, rng)
    verbs = [v for v, n in MIXES[workload].items() for _ in range(n)]
    for verb in _PREAMBLE[workload]:
        verbs.remove(verb)
    rng.shuffle(verbs)
    verbs[:0] = _PREAMBLE[workload]
    i = stalls = 0
    while i < len(verbs):
        if builder.add(verbs[i]):
            i += 1
            continue
        # no operands fit yet (say, every pair of the first lines is nearly
        # parallel): try the verb again a few statements later
        verbs.insert(min(i + 10, len(verbs)), verbs.pop(i))
        stalls += 1
        if stalls > len(verbs):
            raise RuntimeError(f"no well-conditioned operands for {verbs[i]}")
    kinds = builder.kinds
    return Script(
        text="".join(f"{line}\n" for line in builder.lines),
        statements=len(builder.lines),
        expected=tuple(builder.expected),
        circles=len(kinds["E"]),
        arrows=len(kinds["I"]),
        lines=len(kinds["L"]),
    )


def _lit(x: float) -> str:
    return repr(float(x))


class _Builder:
    def __init__(self, workload: str, rng: random.Random):
        self.workload = workload
        self.rng = rng
        self.ideal_mix = workload == "script-ideal"
        self.limit = LIMIT[workload]
        self.env: dict[str, object] = {}
        self.kinds: dict[str, list[str]] = {"E": [], "I": [], "L": [], "M": []}
        self.recent: list[str] = []
        self.literal_lines: list[str] = []  # typed in, so exactly representable
        self.parallel_pairs: list[tuple[str, str]] = []
        self.lines: list[str] = []
        self.expected: list = []
        self.solves = 0

    # -- bookkeeping -------------------------------------------------------------

    def add(self, verb: str) -> bool:
        make = getattr(self, verb)
        return any(make() for _ in range(200))

    def emit(self, verb: str, name: str, args, value) -> None:
        self.lines.append(" ".join((verb, name, *args)))
        self.env[name] = value
        if isinstance(value, ref.Pt):
            kind = "I" if value.ideal else "E"
        elif isinstance(value, ref.Ln):
            kind = "L"
        elif isinstance(value, ref.Mot):
            kind = "M"
        else:
            kind = None
        if kind:
            self.kinds[kind].append(name)
        if kind != "M":
            self.recent = (self.recent + [name])[-8:]

    def new(self, prefix: str) -> str:
        return f"{prefix}{len(self.lines) + 1}"

    def pick(self, kind: str, n: int = 1):
        names = self.kinds[kind]
        if len(names) < n:
            return None
        chosen = self.rng.sample(names, n)
        return chosen if n > 1 else chosen[0]

    def size(self) -> float:
        return 10.0 ** self.rng.uniform(*SCALE[self.workload])

    def fits(self, value) -> bool:
        if isinstance(value, ref.Pt):
            return value.ideal or max(map(abs, value.pos)) <= self.limit
        return abs(value.unit()[2]) <= self.limit

    def emit_line(self, name: str, a: float, b: float, c: float) -> None:
        self.emit("line", name, (_lit(a), _lit(b), _lit(c)), ref.Ln(a, b, c))

    def random_line_through(self, x: float, y: float) -> tuple[float, float, float]:
        phi = self.rng.uniform(-math.pi, math.pi)
        k = 10.0 ** self.rng.uniform(-1.0, 1.0)
        a, b = k * math.cos(phi), k * math.sin(phi)
        return a, b, -(a * x + b * y)

    # -- primaries ---------------------------------------------------------------

    def point(self, name: str | None = None) -> bool:
        s = self.size()
        x, y = self.rng.uniform(-s, s), self.rng.uniform(-s, s)
        name = name or self.new("P")
        self.emit("point", name, (_lit(x), _lit(y)), ref.Pt(x, y, 1.0))
        return True

    def ideal(self) -> bool:
        s, phi = self.size(), self.rng.uniform(-math.pi, math.pi)
        u, v = s * math.cos(phi), s * math.sin(phi)
        self.emit("ideal", self.new("V"), (_lit(u), _lit(v)), ref.Pt(u, v, 0.0))
        return True

    def line(self) -> bool:
        s = self.size()
        a, b, c = self.random_line_through(self.rng.uniform(-s, s), self.rng.uniform(-s, s))
        name = self.new("L")
        self.emit_line(name, a, b, c)
        self.literal_lines.append(name)
        return True

    def parallel(self) -> bool:
        base = self.rng.choice(self.literal_lines)
        m = self.env[base]
        # scaling by a power of two is exact, so the meet is exactly ideal
        f = self.rng.choice((1.0, -1.0, 2.0, -2.0, 0.5, -0.5))
        a, b = f * m.a, f * m.b
        c = math.hypot(a, b) * self.rng.uniform(-1.0, 1.0) * self.size()
        if abs(c / math.hypot(a, b) - f * m.c / math.hypot(a, b)) < 1e-3:
            return False
        name = self.new("L")
        self.emit_line(name, a, b, c)
        self.literal_lines.append(name)
        self.parallel_pairs.append((base, name))
        return True

    # -- constructions -----------------------------------------------------------

    def join(self) -> bool:
        if self.ideal_mix:
            p, q = self.pick("E"), self.pick("I")
        else:
            p, q = self.pick("E", 2)
            (px, py), (qx, qy) = self.env[p].pos, self.env[q].pos
            if math.hypot(px - qx, py - qy) < 1e-2 * max(abs(px), abs(py), abs(qx), abs(qy)):
                return False
        value = ref.join(self.env[p], self.env[q])
        if not self.fits(value):
            return False
        self.emit("join", self.new("J"), (p, q), value)
        return True

    def meet(self) -> bool:
        if self.ideal_mix and self.rng.random() < 0.5:
            m, n = self.rng.choice(self.parallel_pairs)
        else:
            m, n = self.pick("L", 2)
            (ma, mb, _), (na, nb, _) = self.env[m].unit(), self.env[n].unit()
            if abs(ma * nb - mb * na) < 0.1:
                return False
        value = ref.meet(self.env[m], self.env[n])
        if not self.fits(value):
            return False
        self.emit("meet", self.new("X"), (m, n), value)
        return True

    def midpoint(self) -> bool:
        p, q = self.pick("E", 2)
        self.emit("midpoint", self.new("M"), (p, q), ref.midpoint(self.env[p], self.env[q]))
        return True

    def midline(self) -> bool:
        m, n = self.pick("L", 2)
        (ma, mb, _), (na, nb, _) = self.env[m].unit(), self.env[n].unit()
        if ma * na + mb * nb < -0.8:  # nearly anti-parallel: the sum is almost ideal
            return False
        value = ref.midline(self.env[m], self.env[n])
        if not self.fits(value):
            return False
        self.emit("midline", self.new("B"), (m, n), value)
        return True

    def reflect(self) -> bool:
        mirror = self.pick("L")
        x = self.pick(self.rng.choice("EIL"))
        if x == mirror:
            return False
        value = ref.reflect(self.env[mirror], self.env[x])
        if not self.fits(value):
            return False
        self.emit("reflect", self.new("R"), (mirror, x), value)
        return True

    def project(self) -> bool:
        case = self.rng.randrange(3)
        if case == 0:
            x, onto = self.pick("E"), self.pick("L")
        elif case == 1:
            x, onto = self.pick("L"), self.pick("E")
        else:
            x, onto = self.pick("L", 2)
            (ma, mb, _), (na, nb, _) = self.env[x].unit(), self.env[onto].unit()
            if abs(ma * na + mb * nb) < 0.1:  # nearly perpendicular: the part vanishes
                return False
        value = ref.project(self.env[x], self.env[onto])
        if not self.fits(value):
            return False
        self.emit("project", self.new("Q"), (x, onto), value)
        return True

    # -- motions -----------------------------------------------------------------

    def rotator(self) -> bool:
        p = self.pick("E")
        alpha = self.rng.uniform(-math.pi, math.pi)
        self.emit("rotator", self.new("G"), (p, _lit(alpha)), ref.rotation(self.env[p], alpha))
        return True

    def translator(self) -> bool:
        v = self.pick("I")
        s = self.size()
        d = self.rng.uniform(-s, s)
        self.emit("translator", self.new("T"), (v, _lit(d)), ref.translation(self.env[v], d))
        return True

    def apply(self) -> bool:
        g = self.pick("M")
        x = self.pick(self.rng.choice("EIL" if self.ideal_mix else "EL"))
        value = ref.apply(self.env[g], self.env[x])
        if not self.fits(value):
            return False
        self.emit("apply", self.new("A"), (g, x), value)
        return True

    def solve(self) -> bool:
        """Transport block: define the pairs, solve, and check the motor on
        both pairs and on a third point."""
        kind = SOLVE_KINDS[self.solves % len(SOLVE_KINDS)]
        self.solves += 1
        q = self.pick("E")
        a = self.new("S")
        self.point(a)
        ax, ay = self.env[a].pos
        m = self.new("S")
        la, lb, lc = self.random_line_through(ax, ay)
        self.emit_line(m, la, lb, lc)
        if kind == "coincident":
            a2, m2 = a, self.new("S")
            while True:
                na, nb, nc = self.random_line_through(ax, ay)
                if abs(la * nb - lb * na) > 0.1 * math.hypot(la, lb) * math.hypot(na, nb):
                    break
            self.emit_line(m2, na, nb, nc)
        elif kind == "slide":
            a2, m2 = self.new("S"), m
            t = self.rng.choice((-1.0, 1.0)) * self.rng.uniform(0.1, 1.0) * self.size()
            n = math.hypot(la, lb)
            x2, y2 = ax + t * lb / n, ay - t * la / n
            self.emit("point", a2, (_lit(x2), _lit(y2)), ref.Pt(x2, y2, 1.0))
        else:
            a2 = self.new("S")
            self.point(a2)
            m2 = self.new("S")
            self.emit_line(m2, *self.random_line_through(*self.env[a2].pos))
        g = self.new("G")
        env = self.env
        self.emit("solve", g, (a, m, a2, m2), ref.transport(env[a], env[m], env[a2], env[m2]))
        # the images of A and m are the given A2 and m2, not the reference motor's
        for x, want in ((a, env[a2]), (m, env[m2]), (q, ref.apply(env[g], env[q]))):
            name = self.new("Y")
            self.emit("apply", name, (g, x), want)
            self.print(name)
        return True

    # -- output ------------------------------------------------------------------

    def dist(self) -> bool:
        env = self.env
        if self.ideal_mix and self.rng.random() < 0.5:
            m, n = self.rng.choice(self.parallel_pairs)
            value = ref.parallel_gap(env[m], env[n])
        elif self.ideal_mix or self.rng.random() < 0.5:
            m, n = self.pick("E", 2)
            value = ref.point_distance(env[m], env[n])
        else:
            m, n = self.pick("L"), self.pick("E")
            value = ref.line_point_distance(env[m], env[n])
            if self.rng.random() < 0.5:
                m, n, value = n, m, -value
        self.emit("dist", self.new("d"), (m, n), ref.Num(value))
        return True

    def angle(self) -> bool:
        env = self.env
        if not self.ideal_mix:
            m, n = self.pick("L", 2)
            value = ref.line_angle(env[m], env[n])
        elif self.rng.random() < 0.5:
            m, n = self.pick("I", 2)
            value = ref.vector_angle(env[m], env[n])
        else:
            m, n = self.pick("L"), self.pick("I")
            value = ref.line_vector_angle(env[m], env[n])
            if self.rng.random() < 0.5:
                m, n = n, m
        self.emit("angle", self.new("a"), (m, n), ref.Num(value))
        return True

    def print(self, name: str | None = None) -> bool:
        name = name or self.rng.choice(self.recent)
        self.lines.append(f"print {name}")
        self.expected.append((name, *ref.printed(self.env[name])))
        return True
