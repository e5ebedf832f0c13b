"""The unrolled kernel against a loop over the oracle's product table.

The reference product walks the (sign, index) entries of
oracle.generate_cayley() row by row, skipping zero coefficients, and adds
each term into its output slot.  The kernel's unrolled products add their
terms in the same order, so the two agree exactly (==, not within a
tolerance), up to the sign of zero.
"""

import math

import pytest

import gen
import oracle
from pga2d.errors import DomainError
from pga2d.multivector import Multivector, blades, one

CAYLEY = oracle.generate_cayley()
GRADES = tuple(len(blade) for blade in oracle.BLADES)


def _filtered(keep):
    return tuple(
        tuple(
            (s, k) if s and keep(GRADES[i], GRADES[j], GRADES[k]) else (0, 0)
            for j, (s, k) in enumerate(row)
        )
        for i, row in enumerate(CAYLEY)
    )


# outer keeps the grade k+m part of each blade product, dot the |k-m| part
OUTER = _filtered(lambda gi, gj, gk: gk == gi + gj)
DOT = _filtered(lambda gi, gj, gk: gk == abs(gi - gj))
DUAL = oracle.derive_dual_signs()


def tabled_product(u, v, table):
    out = [0.0] * 8
    for i, ui in enumerate(u):
        if ui == 0.0:
            continue
        row = table[i]
        for j, vj in enumerate(v):
            if vj == 0.0:
                continue
            s, k = row[j]
            if s:
                out[k] += s * ui * vj
    return tuple(out)


def ref_dual(u):
    out = [0.0] * 8
    for i, c in enumerate(u):
        s, k = DUAL[i]
        out[k] = s * c
    return tuple(out)


def ref_reverse(u):
    # reversing a product of g vectors takes g(g-1)/2 swaps
    return tuple(-c if GRADES[i] * (GRADES[i] - 1) // 2 % 2 else c for i, c in enumerate(u))


def ref_grade(u, k):
    return tuple(c if GRADES[i] == k else 0.0 for i, c in enumerate(u))


def ref_join(u, v):
    return ref_dual(tabled_product(ref_dual(u), ref_dual(v), OUTER))


def _assert_same(u, v):
    mu, mv = Multivector(u), Multivector(v)
    assert mu.gp(mv).coeffs == tabled_product(u, v, CAYLEY), (u, v)
    assert mu.outer(mv).coeffs == tabled_product(u, v, OUTER), (u, v)
    assert mu.dot(mv).coeffs == tabled_product(u, v, DOT), (u, v)
    assert mu.join(mv).coeffs == ref_join(u, v), (u, v)
    assert mu.dual().coeffs == ref_dual(u), u
    assert mu.reverse().coeffs == ref_reverse(u), u
    for k in range(4):
        assert mu.grade(k).coeffs == ref_grade(u, k), (u, k)


def test_basis_blade_pairs_match_table_loop():
    for a in blades.values():
        for b in blades.values():
            _assert_same(a.coeffs, b.coeffs)
            _assert_same(a.scaled(2.5).coeffs, b.scaled(-0.75).coeffs)


def _random_operand(r):
    """Dense or sparse (exact zeros), with magnitudes spread over 1e-6..1e6."""
    values = r.uniform(-1.0, 1.0, size=8) * 10.0 ** r.uniform(-6.0, 6.0, size=8)
    if r.uniform() < 0.5:
        values[r.uniform(size=8) < 0.6] = 0.0
    return tuple(float(x) for x in values)


def test_random_operands_match_table_loop():
    r = gen.rng(41)
    operands = [_random_operand(r) for _ in range(1000)]
    assert sum(0.0 in u for u in operands) > 300  # the sparse ones are there
    for u, v in zip(operands, operands[1:] + operands[:1]):
        _assert_same(u, v)


def test_results_are_plain_float_tuples():
    u = Multivector((1, 2, 3, 4, 5, 6, 7, 8))
    for result in (u.gp(u), u.outer(u), u.dot(u), u.join(u), u + u, u - u, -u, u.scaled(2)):
        assert type(result.coeffs) is tuple
        assert all(type(c) is float for c in result.coeffs)


BIG = Multivector((1e300,) * 8)  # squares overflow
HUGE = Multivector((1.5e308,) * 8)  # doubles overflow


@pytest.mark.parametrize(
    "op",
    [
        lambda: BIG.gp(BIG),
        lambda: BIG.outer(BIG),
        lambda: BIG.dot(BIG),
        lambda: BIG.join(BIG),
        lambda: BIG.commutator(BIG.reverse()),
        lambda: HUGE + HUGE,
        lambda: HUGE - (-HUGE),
        lambda: BIG.scaled(1e10),
    ],
    ids=["gp", "outer", "dot", "join", "commutator", "add", "sub", "scaled"],
)
def test_overflow_raises_domain_error(op):
    with pytest.raises(DomainError, match="overflow"):
        op()


def test_finite_result_with_overflowing_sum_is_accepted():
    # every slot is finite although their plain sum is not
    u = Multivector((1e308,) * 8)
    assert u.gp(one).coeffs == u.coeffs
    assert (u - u.scaled(0.5)).coeffs == (5e307,) * 8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_public_constructor_rejects_non_finite(bad):
    for slot in (0, 7):
        coeffs = [0.0] * 8
        coeffs[slot] = bad
        with pytest.raises(DomainError):
            Multivector(tuple(coeffs))
