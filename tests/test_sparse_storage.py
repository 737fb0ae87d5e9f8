"""The storage of `Matrix`: one positive denominator D and sparse integer
rows, kept canonical.  No zero is stored, gcd(D, every entry) == 1 and D == 1
for a zero matrix, so every way of building the same matrix gives equal
fields and equal hashes.  Each operation is checked against the dense
Fraction computation, which is the reference."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsetlin.exact import Matrix, mat_mul, shift, state_matrix

# About half the entries are zero.
values = st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))
# Scalars: zero and q = -3/7 always among the draws.
scalars = st.one_of(st.sampled_from([F(0), F(-3, 7), F(1, 3), F(3)]), values)


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


def assert_canonical(m):
    """Int entries, none zero, a positive D sharing no factor with all of
    them (so D == 1 when nothing is stored)."""
    entries = [x for row in m.int_rows for x in row.values()]
    assert all(type(x) is int and x for x in entries)
    assert type(m.denominator) is int and m.denominator > 0
    assert gcd(m.denominator, *entries) == 1
    assert len(m.int_rows) == m.rows


def assert_equals_dense(m, dense):
    assert_canonical(m)
    assert m.data == dense


def dense_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


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
        assert_canonical(b)
        assert_same(b, m)
    assert_equals_dense(m, dense)


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
    assert_canonical(a + other)
    assert_same(a.transpose().transpose(), a)
    square = mat_mul(a, other.transpose())
    assert_same(shift(shift(square, lam), -lam), square)


@settings(deadline=None)
@given(split_matrices(), st.integers(1, 5), scalars, values, st.data())
def test_every_operation_matches_the_dense_reference_in_canonical_form(case, k, q, lam, data):
    dense, _, other = case
    a = Matrix(dense)
    rows, cols = a.rows, a.cols
    right = [[data.draw(values) for _ in range(k)] for _ in range(cols)]
    assert_equals_dense(a, dense)
    assert_equals_dense(a + other, dense_add(dense, other.data))
    assert_equals_dense(a - other, dense_add(dense, other.data, -1))
    assert_equals_dense(a * q, [[x * q for x in row] for row in dense])
    assert_equals_dense(q * a, [[q * x for x in row] for row in dense])
    assert_equals_dense(mat_mul(a, Matrix(right)), dense_mul(dense, right))
    assert_equals_dense(a.transpose(), [list(col) for col in zip(*dense)])
    square = dense_mul(dense, [list(col) for col in zip(*dense)])
    identity = [[F(int(r == c)) for c in range(rows)] for r in range(rows)]
    assert_equals_dense(shift(Matrix(square), lam), dense_add(square, identity, -lam))


@settings(deadline=None)
@given(
    st.lists(st.lists(st.integers(-12, 12), min_size=3, max_size=3), min_size=1, max_size=4),
    st.integers(1, 36),
    st.lists(values, min_size=3, max_size=3),
)
def test_state_matrix_over_a_denominator_is_canonical(ints, denominator, fractions):
    """Int coefficients over a denominator (so entries and denominator often
    share a factor), and Fraction coefficients over the same denominator;
    each coefficient is given as two pairs on its column."""

    def entries(coeffs):
        return lambda r: [(c, x) for c, v in enumerate(coeffs[r]) for x in (v - 1, 1)]

    over = state_matrix(range(len(ints)), range(3), entries(ints), denominator)
    assert_equals_dense(over, [[F(v, denominator) for v in row] for row in ints])
    mixed = [fractions] + ints[1:]
    over = state_matrix(range(len(mixed)), range(3), entries(mixed), denominator)
    assert_equals_dense(over, [[F(v) / denominator for v in row] for row in mixed])


@settings(deadline=None)
@given(split_matrices(), values, st.sampled_from([F(3), F(-3, 7), F(4, 9)]))
def test_equal_matrices_from_different_routes_are_equal_and_hash_equal(case, lam, q):
    dense, pairs, other = case
    a = Matrix(dense)
    routes = [
        (a * 3) * F(1, 3),
        (a * q) * (1 / q),
        q * a * (1 / q),
        a * 2 - a,
        (a + a) * F(1, 2),
        a + other - other,
        Matrix.zeros(a.rows, a.cols) + a,
        mat_mul(a * q, Matrix.identity(a.cols) * (1 / q)),
        (a * q).transpose().transpose() * (1 / q),
        state_matrix(range(a.rows), range(a.cols), lambda r: [(c, 6 * x) for c, x in pairs[r]], 6),
    ]
    for m in routes:
        assert_canonical(m)
        assert_same(m, a)
    square = mat_mul(a, a.transpose())
    assert_same(shift(square * q, lam * q) * (1 / q), shift(square, lam))


def test_state_matrix_row_that_cancels_is_empty():
    m = state_matrix("st", "st", lambda s: (("t", 1), ("t", -1)) if s == "s" else (("s", 1),))
    assert m.int_rows[0] == {}
    assert_same(m, Matrix([[0, 0], [1, 0]]))
    assert type(m[1, 0]) is F


def test_index_out_of_range_raises_for_rows_and_columns():
    m = Matrix([[1], [2]])
    assert m[1, 0] == 2
    for rc in ((-1, 0), (2, 0), (0, -1), (0, 1)):
        with pytest.raises(IndexError):
            m[rc]
