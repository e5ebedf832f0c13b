"""Brute-force reference implementations used only by the test suite.

Everything here is rebuilt from first principles with no constants shared
with the library kernel: basis products come from symbolic index-list
multiplication under the signature rules (index 0 squares to 0, indices 1
and 2 square to 1, distinct indices anticommute), duality signs from the
defining wedge property, and measurements from classical analytic geometry.
"""

from __future__ import annotations

import math

# stored blade order used by the kernel, expressed as index lists
BLADES = ((), (0,), (1,), (2,), (2, 0), (0, 1), (1, 2), (0, 1, 2))
BLADE_NAMES = ("1", "e0", "e1", "e2", "e20", "e01", "e12", "e012")
METRIC = {0: 0, 1: 1, 2: 1}


def sort_with_sign(indices):
    """Bubble-sort an index list, tracking the anticommutation sign."""
    seq = list(indices)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return tuple(seq), sign


def multiply_blades(a, b):
    """Product of two index-list blades: (sign, canonical index tuple)."""
    seq = list(a) + list(b)
    sign = 1
    # sort to canonical order, contracting adjacent equal indices
    changed = True
    while changed:
        changed = False
        i = 0
        while i < len(seq) - 1:
            if seq[i] == seq[i + 1]:
                factor = METRIC[seq[i]]
                if factor == 0:
                    return 0, ()
                sign *= factor
                del seq[i + 1]
                del seq[i]
                changed = True
            elif seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
                changed = True
                i += 1
            else:
                i += 1
    return sign, tuple(seq)


def wedge_blades(a, b):
    """Exterior product of index-list blades, metric-free."""
    if set(a) & set(b):
        return 0, ()
    return multiply_blades(a, b)


# canonical tuple -> (stored index, sign of stored blade relative to canonical)
_CANONICAL = {}
for _idx, _blade in enumerate(BLADES):
    _canon, _sign = sort_with_sign(_blade)
    _CANONICAL[_canon] = (_idx, _sign)


def _to_stored(sign, canon):
    """Express sign * canonical blade in the stored basis."""
    if sign == 0:
        return 0, 0
    idx, stored_sign = _CANONICAL[canon]
    # stored blade = stored_sign * canonical blade
    return sign * stored_sign, idx


def generate_cayley():
    """The full 8x8 geometric-product table as (sign, stored index) entries."""
    table = []
    for a in BLADES:
        row = []
        for b in BLADES:
            row.append(_to_stored(*multiply_blades(a, b)))
        table.append(tuple(row))
    return tuple(table)


def derive_dual_signs():
    """For each stored blade b, the signed stored blade d with wedge(b, d)
    equal to +e012; unique because the complementary grade is 1-dimensional
    once the shared-index cases drop out."""
    full = sort_with_sign((0, 1, 2))[0]
    out = []
    for a in BLADES:
        match = None
        for k, b in enumerate(BLADES):
            sign, canon = wedge_blades(a, b)
            if sign == 0:
                continue
            stored_sign, idx = _to_stored(sign, canon)
            if idx == 7 and canon == full:
                if match is not None:
                    raise AssertionError(f"dual of {a} is not unique")
                match = (stored_sign, k)
        if match is None:
            raise AssertionError(f"no dual complement for {a}")
        out.append(match)
    return tuple(out)


def format_cayley(table) -> str:
    lines = ["# geometric product of stored basis blades: row * column"]
    for i, row in enumerate(table):
        cells = []
        for s, k in row:
            cells.append("0" if s == 0 else ("-" if s < 0 else "") + BLADE_NAMES[k])
        lines.append(f"{BLADE_NAMES[i]}: " + " ".join(cells))
    return "\n".join(lines) + "\n"


def format_dual(signs) -> str:
    lines = ["# duality: blade ^ dual(blade) = e012"]
    for i, (s, k) in enumerate(signs):
        lines.append(f"dual({BLADE_NAMES[i]}) = {'-' if s < 0 else ''}{BLADE_NAMES[k]}")
    return "\n".join(lines) + "\n"


# -- classical analytic plane geometry ---------------------------------------


def point_distance(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def signed_point_line_distance(p, line) -> float:
    """Signed distance of point (px, py) from the line ax + by + c = 0."""
    a, b, c = line
    return (a * p[0] + b * p[1] + c) / math.hypot(a, b)


def parallel_gap(m, n) -> float:
    """Signed gap from line m to parallel line n: the signed distance of any
    point of m from n, with both normals co-normalized."""
    am, bm, cm = m
    an, bn, cn = n
    nm = math.hypot(am, bm)
    nn = math.hypot(an, bn)
    # a point on m
    if abs(am) >= abs(bm):
        p = (-cm / am, 0.0)
    else:
        p = (0.0, -cm / bm)
    gap = (an * p[0] + bn * p[1] + cn) / nn
    # orientations must agree for the sign to be meaningful
    if (am * an + bm * bn) / (nm * nn) < 0:
        raise ValueError("anti-parallel input lines")
    return gap


def line_direction(line) -> tuple[float, float]:
    """Unit direction of [a, b, c]: the unit normal rotated a quarter turn CW."""
    a, b, _ = line
    n = math.hypot(a, b)
    return (b / n, -a / n)


def signed_line_angle(m, n) -> float:
    """CCW angle in (-pi, pi] turning m's direction onto n's direction."""
    am, bm, _ = m
    an, bn, _ = n
    return math.atan2(am * bn - bm * an, am * an + bm * bn)


def vector_angle(u, v) -> float:
    """Unsigned angle in [0, pi] between two plane vectors."""
    cross = u[0] * v[1] - u[1] * v[0]
    dotp = u[0] * v[0] + u[1] * v[1]
    return math.atan2(abs(cross), dotp)


def foot_of_perpendicular(p, line) -> tuple[float, float]:
    a, b, c = line
    n2 = a * a + b * b
    k = (a * p[0] + b * p[1] + c) / n2
    return (p[0] - k * a, p[1] - k * b)


def rotate_point(p, center, theta) -> tuple[float, float]:
    ct, st = math.cos(theta), math.sin(theta)
    dx, dy = p[0] - center[0], p[1] - center[1]
    return (center[0] + ct * dx - st * dy, center[1] + st * dx + ct * dy)


# -- series exponential -------------------------------------------------------


def exp_series(bivector, terms: int = 24):
    """Power-series exponential via repeated geometric products.

    Takes and returns a kernel Multivector; the independence being tested is
    from the closed-form exponential, not from the product kernel.
    """
    from pga2d.kernel import Multivector, from_scalar

    if terms < 16:
        raise ValueError("too few terms for a trustworthy series")
    assert isinstance(bivector, Multivector)
    total = from_scalar(1.0)
    power = from_scalar(1.0)
    for k in range(1, terms + 1):
        power = power.gp(bivector).scaled(1.0 / k)
        total = total + power
    return total
