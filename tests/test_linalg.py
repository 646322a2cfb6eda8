"""Differential tests of the sparse exact engine in ssetkit.linalg.

Random sparse integer and rational matrices, including empty shapes, zero
rows, non-unit pivots and torsion, go through the engine and through the
dense textbook elimination in oracles.py (sympy for Smith normal form); the
results must agree exactly.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import INTEGERS, RATIONALS, matrices
from ssetkit.linalg import (
    Matrix,
    coordinates,
    invariant_factors,
    nullspace,
    quotient_reps,
    rank,
    rref,
)

SETTINGS = settings(max_examples=100)

def dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


def combine(coeffs, rows, ncols):
    return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)]


@SETTINGS
@given(matrices())
@example(([], 3))
@example(([[], []], 0))
@example(([[0, 0, 0], [2, 4, 6], [0, 0, 0]], 3))
def test_rref_rank_row_space_match_dense(case):
    """The pairs rref returns carry the pivots of the dense RREF, in order,
    with its nonzero rows."""
    rows, ncols = case
    m = Matrix(rows, ncols)
    ref_rows, ref_pivots = oracles.dense_rref(rows, ncols)
    basis = rref(m)
    assert tuple(c for c, _ in basis) == ref_pivots
    assert dense([row for _, row in basis], ncols) == ref_rows[: len(ref_pivots)]
    assert rank(m) == len(ref_pivots)


@SETTINGS
@given(matrices())
@example(([], 4))
@example(([[0, 0], [0, 0]], 2))
def test_nullspace_matches_dense(case):
    """The pairs nullspace returns carry the free columns of the dense RREF,
    the columns that are not its pivots, in order, each row 1 there."""
    rows, ncols = case
    kernel = nullspace(Matrix(rows, ncols))
    _, ref_pivots = oracles.dense_rref(rows, ncols)
    assert [c for c, _ in kernel] == [c for c in range(ncols) if c not in ref_pivots]
    assert [tuple(r) for r in dense([row for _, row in kernel], ncols)] == oracles.dense_nullspace(rows, ncols)
    assert all(row[c] == 1 for c, row in kernel)


@SETTINGS
@given(matrices(), st.data())
def test_quotient_reps_match_dense(case, data):
    rows, ncols = case
    k = data.draw(st.integers(0, 4))
    contained = [combine(data.draw(st.lists(INTEGERS, min_size=len(rows), max_size=len(rows))), rows, ncols)
                 for _ in range(k)]
    arbitrary = data.draw(matrices(max_rows=3, ncols=ncols))[0]
    space = Matrix(rows, ncols)
    for sub in (contained, arbitrary):
        sub_basis = rref(Matrix(sub, ncols))
        reps = quotient_reps(space.rows, sub_basis)
        expected = oracles.dense_quotient_reps(rows, sub, ncols)
        assert [tuple(r) for r in dense([row for _, row in reps], ncols)] == expected
        assert tuple(c for c, _ in reps) == oracles.dense_rref(expected, ncols)[1]
        assert all(all(row.values()) for _, row in reps)
        # representatives vanish at the pivots of sub
        assert not any(row.get(c) for _, row in reps for c, _ in sub_basis)
        # dim(space + sub) - dim(sub), whether or not sub lies in space
        assert len(reps) == oracles.dense_rank(rows + sub, ncols) - oracles.dense_rank(sub, ncols)


@SETTINGS
@given(matrices(), st.data())
def test_coordinates_in_reduced_bases(case, data):
    rows, ncols = case
    m = Matrix(rows, ncols)
    red = rref(m)
    for basis in (red, nullspace(m)):
        coeffs = data.draw(st.lists(RATIONALS, min_size=len(basis), max_size=len(basis)))
        vec = combine(coeffs, dense([row for _, row in basis], ncols), ncols)
        got, rest = coordinates({j: v for j, v in enumerate(vec) if v}, basis)
        assert got == tuple(coeffs) and not rest
    pivots = {c for c, _ in red}
    if len(pivots) < ncols:
        free = next(c for c in range(ncols) if c not in pivots)
        _, rest = coordinates({free: 1}, red)
        assert rest


@SETTINGS
@given(matrices(), st.data())
def test_products_match_dense(case, data):
    rows, ncols = case
    m = Matrix(rows, ncols)
    other_rows, width = data.draw(matrices(nrows=ncols, max_cols=5))
    other = Matrix(other_rows, width)
    product = [[sum((r[k] * other_rows[k][j] for k in range(ncols)), Fraction(0)) for j in range(width)]
               for r in rows]
    assert dense((m @ other).rows, width) == product
    assert (m @ other).is_zero() == all(v == 0 for r in product for v in r)
    assert dense(m.transpose().rows, len(rows)) == [[r[j] for r in rows] for j in range(ncols)]
    x = data.draw(st.lists(RATIONALS, min_size=ncols, max_size=ncols))
    assert list(m.matvec(x)) == [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


def _triples(rows):
    return {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r) if v}


def _check_invariant_factors(rows, ncols):
    got = invariant_factors(Matrix(rows, ncols))
    assert got == oracles.snf_diagonal(_triples(rows), len(rows), ncols)
    assert len(got) == oracles.dense_rank(rows, ncols)


@SETTINGS
@given(matrices(entries=INTEGERS, max_rows=7, max_cols=7))
@example(([[2, 0, 0], [0, 6, 0], [0, 0, 0]], 3))
@example(([[1, 1], [1, -1]], 2))
@example(([[2, 4], [6, 8], [4, 2]], 2))
@example(([], 3))
@example(([[], [], []], 0))
def test_invariant_factors_match_sympy(case):
    _check_invariant_factors(*case)


# No units, so everything goes through the Euclidean steps, with negative
# pivots and diagonals that need the gcd/lcm pass.
UNIT_FREE = st.sampled_from([0, 0, 0, 2, -2, 3, -3, 4, 6, -9, 10])


@SETTINGS
@given(matrices(entries=UNIT_FREE, max_rows=8, max_cols=8))
@example(([[-2]], 1))
@example(([[2, 0], [0, 3]], 2))
@example(([[-9, 6], [6, 10]], 2))
@example(([[4, -9, 10], [6, 4, -3], [-9, 10, 6]], 3))
@example(([[0, -3, 0], [-9, 0, 6], [6, 4, 0]], 3))
def test_invariant_factors_without_units_match_sympy(case):
    _check_invariant_factors(*case)


def test_invariant_factors_of_torsion_diagonal():
    assert invariant_factors(Matrix([[2, 0, 0], [0, 6, 0], [0, 0, 0]])) == [2, 6]
    assert invariant_factors(Matrix([[Fraction(4), 0], [0, Fraction(6)]])) == [2, 12]
    with pytest.raises(ValueError):
        invariant_factors(Matrix([[Fraction(1, 2)]]))
