"""Dense multivector arithmetic for the degenerate-metric plane algebra.

The algebra is generated by basis 1-vectors e0, e1, e2 with e0*e0 = 0 and
e1*e1 = e2*e2 = 1 (signature (2,0,1)), built over the dual projectivized
exterior algebra: grade 1 carries lines, grade 2 carries points, and the
wedge is the meet.  Coefficients are stored densely in the fixed blade order

    1, e0, e1, e2, e20, e01, e12, e012

chosen so that the line tuple [a, b, c] = a*e1 + b*e2 + c*e0 and the point
tuple (x, y, z) = x*e20 + y*e01 + z*e12 each occupy contiguous slots.

Validation happens at the boundary: the public ``Multivector(...)``
constructor checks every coefficient with multivector._finite, the one
overflow check.  Results the kernel computes itself skip the constructor;
products, sums and scalings pass through the same _finite, since finite
operands cannot produce inf or nan any other way, and permutations, sign
flips and grade parts of finite values are not checked at all.  The products state the algebra once: cayley_table() and dual_table()
are read off gp and dual, not kept beside them.
"""

import operator

from .multivector import DEFAULT_TOL, Frozen, _finite, near_zero

BLADE_NAMES = ("1", "e0", "e1", "e2", "e20", "e01", "e12", "e012")
BLADE_GRADES = (0, 1, 1, 1, 2, 2, 2, 3)
DIM = 8


class Multivector(Frozen):
    """Immutable element of the algebra, eight blade coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[float, ...]):
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != DIM:
            raise ValueError(f"expected {DIM} coefficients, got {len(coeffs)}")
        _set_coeffs(self, _finite(coeffs))

    # -- ring operations ---------------------------------------------------
    #
    # gp, outer and dot are written out slot by slot from the product of the
    # basis blades (outer keeps the terms of grade k+m, dot those of grade
    # |k-m|).  Each slot adds its terms in row-major blade order, so the sums
    # round exactly as a loop over a product table would.  The test suite
    # re-derives all three from the signature rules.

    def gp(self, other: "Multivector") -> "Multivector":
        """Geometric product."""
        a0, a1, a2, a3, a4, a5, a6, a7 = self.coeffs
        b0, b1, b2, b3, b4, b5, b6, b7 = other.coeffs
        return _checked((
            a0 * b0 + a2 * b2 + a3 * b3 - a6 * b6,
            a0 * b1 + a1 * b0 - a2 * b5 + a3 * b4 - a4 * b3 + a5 * b2 - a6 * b7 - a7 * b6,
            a0 * b2 + a2 * b0 - a3 * b6 + a6 * b3,
            a0 * b3 + a2 * b6 + a3 * b0 - a6 * b2,
            a0 * b4 - a1 * b3 + a2 * b7 + a3 * b1 + a4 * b0 - a5 * b6 + a6 * b5 + a7 * b2,
            a0 * b5 + a1 * b2 - a2 * b1 + a3 * b7 + a4 * b6 + a5 * b0 - a6 * b4 + a7 * b3,
            a0 * b6 + a2 * b3 - a3 * b2 + a6 * b0,
            a0 * b7 + a1 * b6 + a2 * b4 + a3 * b5 + a4 * b2 + a5 * b3 + a6 * b1 + a7 * b0,
        ))

    def outer(self, other: "Multivector") -> "Multivector":
        """Outer (wedge) product; acts as the meet on lines and points."""
        a0, a1, a2, a3, a4, a5, a6, a7 = self.coeffs
        b0, b1, b2, b3, b4, b5, b6, b7 = other.coeffs
        return _checked((
            a0 * b0,
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0,
            a0 * b3 + a3 * b0,
            a0 * b4 - a1 * b3 + a3 * b1 + a4 * b0,
            a0 * b5 + a1 * b2 - a2 * b1 + a5 * b0,
            a0 * b6 + a2 * b3 - a3 * b2 + a6 * b0,
            a0 * b7 + a1 * b6 + a2 * b4 + a3 * b5 + a4 * b2 + a5 * b3 + a6 * b1 + a7 * b0,
        ))

    def dot(self, other: "Multivector") -> "Multivector":
        """Inner product: lowest-grade part of the geometric product."""
        a0, a1, a2, a3, a4, a5, a6, a7 = self.coeffs
        b0, b1, b2, b3, b4, b5, b6, b7 = other.coeffs
        return _checked((
            a0 * b0 + a2 * b2 + a3 * b3 - a6 * b6,
            a0 * b1 + a1 * b0 - a2 * b5 + a3 * b4 - a4 * b3 + a5 * b2 - a6 * b7 - a7 * b6,
            a0 * b2 + a2 * b0 - a3 * b6 + a6 * b3,
            a0 * b3 + a2 * b6 + a3 * b0 - a6 * b2,
            a0 * b4 + a2 * b7 + a4 * b0 + a7 * b2,
            a0 * b5 + a3 * b7 + a5 * b0 + a7 * b3,
            a0 * b6 + a6 * b0,
            a0 * b7 + a7 * b0,
        ))

    def commutator(self, other: "Multivector") -> "Multivector":
        """Grade-2 part of the geometric product (cross product of points)."""
        return self.gp(other).grade(2)

    def dual(self) -> "Multivector":
        """Duality map sending grade k to grade 3-k, blade ^ dual(blade) = e012."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self.coeffs
        return _unchecked((c7, c6, c4, c5, c2, c3, c1, c0))

    def join(self, other: "Multivector") -> "Multivector":
        """Regressive product: dual of the wedge of the duals (span operator)."""
        return self.dual().outer(other.dual()).dual()

    def reverse(self) -> "Multivector":
        """Reverse the order of all 1-vector factors: negates grades 2 and 3."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self.coeffs
        return _unchecked((c0, c1, c2, c3, -c4, -c5, -c6, -c7))

    def grade(self, k: int) -> "Multivector":
        """Projection onto grade k; k outside 0..3 is a contract violation."""
        if k not in range(4):
            raise ValueError(f"grade must be in 0..3, got {k}")
        return _unchecked(tuple([c if g == k else 0.0 for c, g in zip(self.coeffs, BLADE_GRADES)]))

    def mv(self) -> "Multivector":
        """Itself, as a typed view's mv() is its multivector."""
        return self

    def scaled(self, factor: float) -> "Multivector":
        return _checked(tuple(map(float(factor).__mul__, self.coeffs)))

    # -- vector-space plumbing ----------------------------------------------

    def __add__(self, other: "Multivector") -> "Multivector":
        return _checked(tuple(map(operator.add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "Multivector") -> "Multivector":
        return _checked(tuple(map(operator.sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "Multivector":
        return _unchecked(tuple(map(operator.neg, self.coeffs)))

    def __iter__(self):
        return iter(self.coeffs)

    def __getitem__(self, index: int) -> float:
        return self.coeffs[index]

    # -- predicates and helpers ----------------------------------------------

    def max_abs(self) -> float:
        return max(map(abs, self.coeffs))

    def grades(self, tol: float = DEFAULT_TOL) -> set[int]:
        """The grades 0..3 present: those whose largest |coefficient| is not
        near_zero against the largest grade's size."""
        c0, c1, c2, c3, c4, c5, c6, c7 = self.coeffs
        sizes = (abs(c0), max(abs(c1), abs(c2), abs(c3)), max(abs(c4), abs(c5), abs(c6)), abs(c7))
        scale = max(sizes)
        # an exact zero is absent whatever the scale, without a call
        return {k for k in range(4) if sizes[k] and not near_zero(sizes[k], scale, tol)}

    def approx_eq(self, other: "Multivector", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).max_abs() <= tol

    def __repr__(self) -> str:
        terms = [
            f"{c:g}*{BLADE_NAMES[i]}" if i else f"{c:g}"
            for i, c in enumerate(self.coeffs)
            if c != 0.0
        ]
        return "Multivector<{}>".format(" + ".join(terms) if terms else "0")


_new = object.__new__
_set_coeffs = Multivector.coeffs.__set__  # the slot itself, past the frozen __setattr__


def _unchecked(coeffs: tuple[float, ...]) -> Multivector:
    """Wrap eight floats already known to be finite, without validating them."""
    u = _new(Multivector)
    _set_coeffs(u, coeffs)
    return u


def _checked(coeffs: tuple[float, ...]) -> Multivector:
    """Wrap eight computed floats; DomainError unless all are finite."""
    return _unchecked(_finite(coeffs))


def basis(index: int) -> Multivector:
    if index not in range(DIM):
        raise ValueError(f"basis index must be in 0..7, got {index}")
    return Multivector(tuple(1.0 if i == index else 0.0 for i in range(DIM)))


def from_scalar(value: float) -> Multivector:
    return Multivector((float(value), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))


zero = Multivector((0.0,) * DIM)
one = basis(0)
e0 = basis(1)
e1 = basis(2)
e2 = basis(3)
e20 = basis(4)
e01 = basis(5)
e12 = basis(6)
e012 = basis(7)

blades = dict(zip(BLADE_NAMES, (one, e0, e1, e2, e20, e01, e12, e012)))


def _blade_of(u: Multivector) -> tuple[int, int]:
    """(sign, index) of a signed basis blade, (0, 0) for zero."""
    return next(((int(c), i) for i, c in enumerate(u.coeffs) if c), (0, 0))


def cayley_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    """The geometric-product table read off gp: entry [i][j] is (sign, index)
    with blade_i * blade_j = sign * blade_index, (0, 0) where it vanishes."""
    return tuple(tuple(_blade_of(a.gp(b)) for b in blades.values()) for a in blades.values())


def dual_table() -> tuple[tuple[int, int], ...]:
    """The duality map read off dual: blade i maps to sign * blade index."""
    return tuple(_blade_of(b.dual()) for b in blades.values())


def format_cayley_table() -> str:
    """Human-readable geometric product table, row blade times column blade."""
    width = max(len(n) for n in BLADE_NAMES) + 1
    lines = ["# geometric product: row * column"]
    lines.append("".join(n.rjust(width + 1) for n in ("*",) + BLADE_NAMES))
    for i, row in enumerate(cayley_table()):
        cells = [BLADE_NAMES[i].rjust(width + 1)]
        for s, k in row:
            cell = "0" if s == 0 else ("-" if s < 0 else "") + BLADE_NAMES[k]
            cells.append(cell.rjust(width + 1))
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def format_dual_table() -> str:
    """Human-readable duality assignments, blade -> signed complementary blade."""
    lines = ["# duality map: blade ^ dual(blade) = e012"]
    for i, (s, k) in enumerate(dual_table()):
        sign = "-" if s < 0 else ""
        lines.append(f"dual({BLADE_NAMES[i]}) = {sign}{BLADE_NAMES[k]}")
    return "\n".join(lines) + "\n"
