"""Ring-level tests: product tables, grade laws, duality, join, reversal."""

import math
import pickle
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import oracle
from pga2d.elements import Line
from pga2d.errors import DomainError
from pga2d.kernel import (
    BLADE_GRADES,
    BLADE_NAMES,
    Multivector,
    basis,
    blades,
    cayley_table,
    dual_table,
    e0,
    e1,
    e2,
    e01,
    e12,
    e20,
    e012,
    one,
    zero,
)

DATA = Path(__file__).parent / "data"

# Reference multiplication table, tabulated by hand from the signature
# rules in its display order (1, e0, e1, e2, e12, e20, e01, e012) and
# frozen here as a third, independent copy.
REFERENCE_TABLE = """
1    | 1    e0   e1   e2   e12  e20  e01  e012
e0   | e0   0    e01  -e20 e012 0    0    0
e1   | e1   -e01 1    e12  e2   e012 -e0  e20
e2   | e2   e20  -e12 1    -e1  e0   e012 e01
e12  | e12  e012 -e2  e1   -1   -e01 e20  -e0
e20  | e20  0    e012 -e0  e01  0    0    0
e01  | e01  0    e0   e012 -e20 0    0    0
e012 | e012 0    e20  e01  -e0  0    0    0
"""

_DISPLAY_ORDER = ("1", "e0", "e1", "e2", "e12", "e20", "e01", "e012")


def _parse_reference():
    entries = {}
    for row_line in REFERENCE_TABLE.strip().splitlines():
        row_name, cells = row_line.split("|")
        row_name = row_name.strip()
        for col_name, cell in zip(_DISPLAY_ORDER, cells.split()):
            cell = cell.strip()
            if cell == "0":
                entries[(row_name, col_name)] = (0, "1")
            elif cell.startswith("-"):
                entries[(row_name, col_name)] = (-1, cell[1:])
            else:
                entries[(row_name, col_name)] = (1, cell)
    return entries


def mv(**coeffs) -> Multivector:
    out = zero
    for name, value in coeffs.items():
        key = "1" if name == "s" else name
        out = out + blades[key].scaled(value)
    return out


finite_coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
multivectors = st.builds(lambda cs: Multivector(tuple(cs)), st.lists(finite_coeff, min_size=8, max_size=8))


# -- table fidelity -----------------------------------------------------------


def test_kernel_table_matches_reference():
    reference = _parse_reference()
    for i, row_name in enumerate(_DISPLAY_ORDER):
        for j, col_name in enumerate(_DISPLAY_ORDER):
            sign, result_name = reference[(row_name, col_name)]
            product = blades[row_name].gp(blades[col_name])
            expected = blades[result_name].scaled(float(sign))
            assert product.coeffs == expected.coeffs, (row_name, col_name)


def test_kernel_table_matches_oracle():
    assert cayley_table() == oracle.generate_cayley()


def test_dual_signs_match_oracle():
    assert dual_table() == oracle.derive_dual_signs()


def test_table_fixtures_are_current():
    assert (DATA / "cayley_table.txt").read_text() == oracle.format_cayley(
        oracle.generate_cayley()
    )
    assert (DATA / "dual_signs.txt").read_text() == oracle.format_dual(
        oracle.derive_dual_signs()
    )


def test_spot_products():
    assert e1.gp(e1) == one
    assert e0.gp(e0) == zero
    assert e1.gp(e2) == e12
    assert e12.gp(e012) == -e0
    assert e2.dot(e12) == -e1
    assert e1.dot(e1) == one
    assert e1.dot(e2) == zero


# -- grade structure ----------------------------------------------------------


def test_grade_projection_and_reconstruction():
    u = mv(s=1.5, e0=-2.0, e1=0.25, e2=3.0, e20=-1.0, e01=0.5, e12=2.0, e012=-0.75)
    total = zero
    for k in range(4):
        part = u.grade(k)
        assert part.grade(k) == part  # idempotent
        total = total + part
    assert total == u


def test_grade_range_is_enforced():
    with pytest.raises(ValueError):
        one.grade(4)
    with pytest.raises(ValueError):
        one.grade(-1)


@pytest.mark.parametrize("index", [8, -1])
def test_basis_index_range_is_enforced(index):
    # as grade's range is: an index outside 0..7 names no blade
    with pytest.raises(ValueError, match=rf"^basis index must be in 0\.\.7, got {index}$"):
        basis(index)


def test_grade_examples():
    assert (one + e12).grade(0) == one
    assert e1.gp(e12 + e20).grade(3) == e012


@pytest.mark.parametrize("size", [7, 9])
def test_constructor_rejects_a_wrong_number_of_coefficients(size):
    with pytest.raises(ValueError, match=f"^expected 8 coefficients, got {size}$"):
        Multivector((0.0,) * size)


def test_constructor_rejects_non_finite():
    with pytest.raises(ValueError):
        Multivector((float("nan"),) + (0.0,) * 7)
    with pytest.raises(ValueError):
        Multivector((float("inf"),) + (0.0,) * 7)


# -- product laws -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(multivectors, multivectors, multivectors)
def test_gp_associative(u, v, w):
    left = u.gp(v).gp(w)
    right = u.gp(v.gp(w))
    assert (left - right).max_abs() <= 1e-12


@settings(max_examples=200, deadline=None)
@given(multivectors, multivectors)
def test_gp_bilinear(u, v):
    s = 1.7
    assert u.scaled(s).gp(v).approx_eq(u.gp(v).scaled(s), 1e-12)
    assert (u + v).gp(u).approx_eq(u.gp(u) + v.gp(u), 1e-12)


def test_outer_and_dot_are_grade_filtered_products():
    r = gen.rng(1)
    for _ in range(200):
        i = int(r.integers(0, 8))
        j = int(r.integers(0, 8))
        u = blades[BLADE_NAMES[i]].scaled(float(r.uniform(-2, 2)))
        v = blades[BLADE_NAMES[j]].scaled(float(r.uniform(-2, 2)))
        product = u.gp(v)
        k_sum = BLADE_GRADES[i] + BLADE_GRADES[j]
        k_diff = abs(BLADE_GRADES[i] - BLADE_GRADES[j])
        expected_outer = product.grade(k_sum) if k_sum <= 3 else zero
        assert u.outer(v) == expected_outer
        assert u.dot(v) == product.grade(k_diff)


def test_outer_examples():
    assert e1.outer(e2) == e12
    assert e1.outer(e1) == zero
    assert e2.outer(e12 + e01) == e012  # line y=0 against the point (0, 1)


def test_dot_examples():
    assert e2.dot(e12) == -e1


def test_commutator_examples():
    p = e12
    q = e12 + e20
    assert p.commutator(q) == -e01
    assert p.commutator(p) == zero
    assert e20.commutator(e01) == zero  # two ideal points
    # commutator equals minus the polar of the joining line
    assert p.commutator(q) == -(p.join(q).gp(e012))


@settings(max_examples=150, deadline=None)
@given(multivectors)
def test_pseudoscalar_is_central(u):
    assert e012.gp(u).approx_eq(u.gp(e012), 1e-12)


def test_pseudoscalar_squares_to_zero():
    assert e012.gp(e012) == zero


@settings(max_examples=150, deadline=None)
@given(multivectors, multivectors)
def test_reversal_antiautomorphism(u, v):
    assert u.gp(v).reverse().approx_eq(v.reverse().gp(u.reverse()), 1e-12)


def test_reverse_examples():
    assert e12.reverse() == -e12
    assert (one + e12).reverse() == one - e12
    assert e1.gp(e2).reverse() == e2.gp(e1)
    assert e2.gp(e1) == -e12


# -- duality and join ---------------------------------------------------------


def test_dual_defining_property():
    for name in BLADE_NAMES:
        b = blades[name]
        assert b.outer(b.dual()) == e012, name


def test_dual_is_an_involution():
    for name in BLADE_NAMES:
        assert blades[name].dual().dual() == blades[name]


def test_dual_examples():
    assert one.dual() == e012
    assert e0.dual() == e12


def test_join_golden_sign():
    # join of the origin with (1, 0): the x-axis, oriented toward +x
    assert e12.join(e12 + e20) == e2


def test_join_of_dependent_elements_is_zero():
    p = mv(e20=1.0, e01=2.0, e12=1.0)
    assert p.join(p) == zero
    assert p.join(p.scaled(3.0)) == zero


def test_join_incidence_random_points():
    r = gen.rng(2)
    for _ in range(300):
        p = gen.random_point(r).mv()
        q = gen.random_point(r).mv()
        if (p - q).max_abs() < 1e-6:
            continue
        line = p.join(q)
        scale = max(1.0, p.max_abs(), q.max_abs())
        assert line.outer(p).max_abs() <= 1e-12 * scale
        assert line.outer(q).max_abs() <= 1e-12 * scale


def test_signed_magnitude_of_wedge_equals_join():
    r = gen.rng(3)
    for _ in range(300):
        a = Multivector((0.0, r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2), 0, 0, 0, 0))
        p = Multivector((0.0, 0, 0, 0, r.uniform(-2, 2), r.uniform(-2, 2), r.uniform(-2, 2), 0))
        wedge = a.outer(p)
        joined = a.join(p)
        assert abs(wedge[7] - joined[0]) <= 1e-12 * max(1.0, abs(wedge[7]))
        assert joined.grade(0) == joined  # the join of a line and a point is scalar


def test_incidence_criterion_iff():
    r = gen.rng(4)
    for _ in range(200):
        a, b, c = r.uniform(-2, 2, size=3)
        x, y, z = r.uniform(-2, 2, size=3)
        line = mv(e1=a, e2=b, e0=c)
        point = mv(e20=x, e01=y, e12=z)
        defect = a * x + b * y + c * z
        wedge = line.outer(point)
        assert wedge.approx_eq(mv(e012=defect), 1e-13)
        assert wedge.grade(3) == wedge
        if abs(defect) > 1e-9:
            assert wedge.max_abs() > 1e-12


# -- vector-space plumbing ----------------------------------------------------


def test_componentwise_operations():
    assert (e12 + e20) == mv(e12=1.0, e20=1.0)
    assert e1.scaled(2.0) == mv(e1=2.0)
    u = gen.random_multivector(gen.rng(5))
    assert (u - u) == zero
    assert u.scaled(0.0) == zero
    assert u.scaled(2.0) == u + u


def test_unpickling_runs_the_validating_constructor():
    one, inf = struct.pack(">d", 1.0), struct.pack(">d", math.inf)
    for value in (Line(1, 0, 0), Multivector((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))):
        data = pickle.dumps(value, protocol=4)
        assert data.count(one) == 1
        with pytest.raises(DomainError):
            pickle.loads(data.replace(one, inf))
