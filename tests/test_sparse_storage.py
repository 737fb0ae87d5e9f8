"""The sparse-row storage of `Matrix`: an entry that is zero, or that cancels
to zero, is never stored, so every way of building the same matrix gives
equal rows and equal hashes."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsetlin.exact import Matrix, mat_mul, shift, state_matrix

# About half the entries are zero.
values = st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def split_matrices(draw):
    """(dense, pairs, other): a dense rational matrix; per row, the
    (col, value) pairs of that row with every entry x split as (x - e) + e,
    so a zero entry becomes two cancelling pairs; and a second matrix of the
    same shape that holds -x at some entries of the first."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    dense = [[draw(values) for _ in range(cols)] for _ in range(rows)]
    pairs = []
    for row in dense:
        split = []
        for c, x in enumerate(row):
            e = draw(values)
            split += [(c, x - e), (c, e)]
        pairs.append(draw(st.permutations(split)))
    other = [[-x if draw(st.booleans()) else draw(values) for x in row] for row in dense]
    return dense, pairs, Matrix(other)


def assert_same(a, b):
    assert a == b
    assert hash(a) == hash(b)


def assert_no_stored_zero(m):
    assert all(type(x) is F and x for row in m.nonzeros for x in row.values())


@settings(deadline=None)
@given(split_matrices())
def test_every_construction_stores_the_same_rows(case):
    dense, pairs, other = case
    m = Matrix(dense)
    built = [
        Matrix(m.data),
        state_matrix(range(m.rows), range(m.cols), lambda r: pairs[r]),
        m + other - other,
        mat_mul(Matrix.identity(m.rows), m),
    ]
    for b in built:
        assert_no_stored_zero(b)
        assert_same(b, m)
    assert m.data == dense


@settings(deadline=None)
@given(split_matrices(), values)
def test_cancellation_leaves_no_entries(case, lam):
    dense, _, other = case
    a = Matrix(dense)
    zeros = Matrix.zeros(a.rows, a.cols)
    assert (a - a).is_zero()
    assert_same(a - a, zeros)
    assert_same(a * 0, zeros)
    assert_same(0 * a, zeros)
    assert_no_stored_zero(a + other)
    assert_same(a.transpose().transpose(), a)
    square = mat_mul(a, other.transpose())
    assert_same(shift(shift(square, lam), -lam), square)


def test_state_matrix_row_that_cancels_is_empty():
    m = state_matrix("st", "st", lambda s: (("t", 1), ("t", -1)) if s == "s" else (("s", 1),))
    assert m.nonzeros[0] == {}
    assert_same(m, Matrix([[0, 0], [1, 0]]))
    assert type(m[1, 0]) is F


def test_index_out_of_range_raises_for_rows_and_columns():
    m = Matrix([[1], [2]])
    assert m[1, 0] == 2
    for rc in ((-1, 0), (2, 0), (0, -1), (0, 1)):
        with pytest.raises(IndexError):
            m[rc]
