"""The int-coded line-insertion kernel of `flags` and the integer `mat_mul`.

`_insertion_table` codes every vector of F_p^n as an int and builds the
inserted flag from the canonical columns of (v, c_1, ..., c_{j-1}) followed
by the unchanged c_{j+1}, ..., c_n, where j is the entry step of v, in one
walk over the prefix tree of the flags.  `insert_line`, which
re-canonicalizes the whole flag, is the reference: the table must give its
target on every (flag, line) pair.  `_insert_coded`, a per-pair kernel
that reduces only the shortest prefix (v, c_1, ..., c_j) losing a column,
checks the same identity on random flags and vectors.
`mat_mul` sums the products of the integer rows of both factors over
D_a D_b and divides out the common factor once; the dense Fraction product
is its reference.  `products_equal` compares two products row by row; the
stored products compared with `==` are its reference.  `decode` reads
each code's tuple from a memo; the digit arithmetic is its reference.
"""

import itertools
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtsetlin import flags
from qtsetlin.exact import Matrix, mat_mul, products_equal
from qtsetlin.flags import (
    Line,
    _VectorCodes,
    _insertion_table,
    _vector_codes,
    enumerate_lines,
    insert_line,
    span_basis,
)
from test_flag_kernel import _canonical_columns, _entry_step, canonicalize_coset

SPACES = [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)] + [(2, 59), (2, 61), (3, 7), (4, 2), (4, 3), (5, 2)]
STRIDES = {(4, 3): 13, (5, 2): 29}


def _insert_coded(codes, cols, v):
    """Column codes of the flag that inserting the line of code v in front
    of the canonical flag with column codes `cols` gives, pair by pair.

    Reducing (v, c_1, ..., c_n) drops c_j first, at the entry step j of v:
    the columns before it are the canonical columns of (v, c_1, ...,
    c_{j-1}), and c_{j+1}, ..., c_n stay as they are, so only the shortest
    prefix (v, c_1, ..., c_j) that loses a column is reduced.
    """
    for j in range(1, len(cols) + 1):
        out, _ = codes.reduce((v, *cols[:j]))
        if len(out) == j:
            return (*out, *cols[j:])
    raise ValueError("the line lies in no prefix of the flag")


@pytest.mark.parametrize("n,p", SPACES)
def test_table_matches_insert_line_on_every_pair(n, p):
    states, leads, targets = _insertion_table(n, p)
    lines = enumerate_lines(n, p)
    assert leads == tuple(line.lead for line in lines)
    assert len(targets) == len(states)
    stride = STRIDES.get((n, p), 1)
    for f in range(0, len(states), stride):
        assert [states[t] for t in targets[f]] == [insert_line(states[f], line) for line in lines]


def test_memos_are_lazy(monkeypatch):
    """The memos hold only the vectors and differences the table met, far
    fewer than the p^n codes or the p^(2n) pairs."""
    made = []

    class Recorded(_VectorCodes):
        def __init__(self, n, p):
            super().__init__(n, p)
            made.append(self)

    monkeypatch.setattr(flags, "_VectorCodes", Recorded)
    _insertion_table.cache_clear()
    _vector_codes.cache_clear()
    _insertion_table(2, 61)
    _vector_codes.cache_clear()
    (codes,) = made
    assert 0 < len(codes.pivot) < 61**2 // 10
    assert 0 < len(codes.minus) < 61**4 // 100


def _line_of(v, p):
    lead = next(r for r, a in enumerate(v) if a)
    s = pow(v[lead], p - 2, p)
    return Line(lead + 1, tuple(a * s % p for a in v[lead + 1 :]))


@st.composite
def flags_and_vectors(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    n = draw(st.integers(1, 4))
    entries = st.integers(0, p - 1)
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    try:
        flag = canonicalize_coset(rows, p)
    except ValueError:
        assume(False)
    v = tuple(draw(entries) for _ in range(n))
    assume(any(v))
    return flag, v


@settings(max_examples=300, deadline=None)
@given(flags_and_vectors())
def test_kernel_matches_insert_line(case):
    """Any nonzero vector of the line, scaled or not, gives the flag that
    `insert_line` gives, and the columns after the entry step j are the
    flag's own."""
    flag, v = case
    n, p = flag.n, flag.p
    codes = _VectorCodes(n, p)
    cols = tuple(codes.encode(col) for col in flag.cols)
    expected = insert_line(flag, _line_of(v, p))
    got = _insert_coded(codes, cols, codes.encode(v))
    assert tuple(codes.decode(x) for x in got) == expected.cols
    j = _entry_step(flag, v)
    assert expected.cols[j:] == flag.cols[j:]
    assert expected.cols[:j] == _canonical_columns((v,) + flag.cols[: j - 1], p)[0]


def test_vector_codes_round_trip_and_memo():
    codes = _VectorCodes(3, 5)
    assert [codes.decode(codes.encode(v)) for v in [(0, 0, 1), (4, 3, 2), (1, 0, 0)]] == [
        (0, 0, 1),
        (4, 3, 2),
        (1, 0, 0),
    ]
    x, y = codes.encode((4, 3, 2)), codes.encode((1, 2, 3))
    assert codes.decode(codes.minus[x, 3, y]) == (1, 2, 3)
    assert codes.decode(codes.minus[x, 1, y]) == (3, 1, 4)
    assert codes.pivot[codes.encode((0, 3, 2))] == (1, codes.encode((0, 1, 4)))


@pytest.mark.parametrize("n,p", [(2, 5), (3, 3), (4, 2)], ids=str)
def test_decode_reads_the_memo_and_agrees_with_the_digits(n, p):
    """Code x is the x-th vector of F_p^n in lexicographic order; `decode`
    fills its memo with that tuple once and then returns the stored one."""
    codes = _VectorCodes(n, p)
    vectors = list(itertools.product(range(p), repeat=n))
    assert [codes.decode(x) for x in range(p**n)] == vectors
    memo = codes.decode.__self__
    assert len(memo) == p**n
    for x, v in enumerate(vectors):
        assert memo[x] == v == codes._digits(x)
        assert codes.decode(x) is memo[x]
    assert len(memo) == p**n


def test_span_basis_accepts_list_vectors():
    as_lists = [[1, 2, 0], [2, 1, 1], [0, 0, 2]]
    basis = span_basis(as_lists, 3)
    assert basis == span_basis([tuple(v) for v in as_lists], 3)
    assert all(type(v) is tuple for v in basis)
    assert span_basis([[0, 1, 1], [0, 2, 2]], 3) == ((0, 1, 1),)


# ---------------------------------------------------------------------------
# mat_mul on integer numerators


def dense_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), F(0)) for col in zip(*b)] for row in a]


def assert_product(a: Matrix, b: Matrix):
    product = mat_mul(a, b)
    assert product.data == dense_product(a.data, b.data)
    entries = [x for row in product.int_rows for x in row.values()]
    assert all(x and type(x) is int for x in entries)
    assert gcd(product.denominator, *entries) == 1
    return product


# Few distinct values, about a third of them zero, so products often cancel.
values = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2, 3), F(-3, 7)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.data())
def test_mat_mul_matches_dense_product(rows, inner, cols, data):
    a = Matrix([[data.draw(values) for _ in range(inner)] for _ in range(rows)])
    b = Matrix([[data.draw(values) for _ in range(cols)] for _ in range(inner)])
    assert_product(a, b)


def test_mat_mul_cancels_to_zero():
    a = Matrix([[F(1, 3), F(2, 5)], [F(1), F(0)]])
    b = Matrix([[F(6, 7), F(1, 2)], [F(-5, 7), F(1)]])
    product = assert_product(a, b)
    assert (product.denominator, product.int_rows) == (210, [{1: 119}, {0: 180, 1: 105}])
    zero = mat_mul(Matrix([[F(1), F(1)]]), Matrix([[F(3, 4)], [F(-3, 4)]]))
    assert (zero.denominator, zero.int_rows) == (1, [{}])


def test_mat_mul_rectangular_and_empty_shapes():
    a = Matrix([[F(1, 2), F(0), F(3)]])
    b = Matrix([[F(2)], [F(5)], [F(1, 3)]])
    ab, ba = mat_mul(a, b), mat_mul(b, a)
    assert (ab.denominator, ab.int_rows) == (1, [{0: 2}])
    assert (ba.denominator, ba.int_rows) == (6, [{0: 6, 2: 36}, {0: 15, 2: 90}, {0: 1, 2: 6}])
    empty = mat_mul(Matrix.zeros(2, 0), Matrix.zeros(0, 3))
    assert (empty.rows, empty.cols, empty.denominator, empty.int_rows) == (2, 3, 1, [{}, {}])
    none = mat_mul(Matrix.zeros(0, 3), b)
    assert (none.rows, none.cols, none.denominator, none.int_rows) == (0, 1, 1, [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(a, a)


# ---------------------------------------------------------------------------
# products_equal against the stored products


def assert_same_verdict(a, b, c, d):
    expected = mat_mul(a, b) == mat_mul(c, d)
    assert products_equal(a, b, c, d) is expected
    return expected


@st.composite
def product_pairs(draw):
    """(a, b, c, d) with a b and c d of one shape; c d is often a b itself,
    rebuilt from other factors with other denominators, or a b with one
    entry of one row changed."""
    rows, inner, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = Matrix([[draw(values) for _ in range(inner)] for _ in range(rows)]) if rows else Matrix.zeros(0, inner)
    b = Matrix([[draw(values) for _ in range(cols)] for _ in range(inner)]) if inner else Matrix.zeros(0, cols)
    kind = draw(st.sampled_from(["scaled", "identity", "changed", "free"]))
    scale = draw(st.sampled_from([F(1), F(2), F(1, 3), F(-5, 6)]))
    if kind == "scaled":
        # (a s)(b / s) = a b, over other denominators on the right.
        return a, b, a * scale, b * (1 / scale)
    ab = mat_mul(a, b)
    if kind == "identity":
        return a, b, ab, Matrix.identity(cols)
    if kind == "changed" and rows and cols:
        r, k = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        data = ab.data
        data[r][k] += draw(st.sampled_from([F(1), F(-1, 2), F(1, 7)]))
        return a, b, Matrix(data), Matrix.identity(cols)
    inner2 = draw(st.integers(0, 4))
    c = Matrix([[draw(values) for _ in range(inner2)] for _ in range(rows)]) if rows else Matrix.zeros(0, inner2)
    d = Matrix([[draw(values) for _ in range(cols)] for _ in range(inner2)]) if inner2 else Matrix.zeros(0, cols)
    return a, b, c, d


@settings(max_examples=400, deadline=None)
@given(product_pairs())
def test_products_equal_matches_stored_products(case):
    assert_same_verdict(*case)


def test_products_equal_cancelling_entries_and_unlike_denominators():
    # Row 0 of a b cancels to zero; c d has denominators 35 on the left and 1/35 scale on the right.
    a = Matrix([[F(1, 3), F(-1, 3)], [F(1, 2), F(1, 5)]])
    b = Matrix([[F(3, 7), F(1)], [F(3, 7), F(1)]])
    ab = mat_mul(a, b)
    assert ab.int_rows[0] == {}
    c = ab * F(35)
    d = Matrix.identity(2) * F(1, 35)
    assert assert_same_verdict(a, b, c, d)
    assert assert_same_verdict(c, d, a, b)
    assert not assert_same_verdict(a, b, c, Matrix.identity(2) * F(1, 34))


def test_products_equal_difference_in_last_row_only():
    a = Matrix([[F(1, 2), F(0)], [F(0), F(1, 3)], [F(2, 5), F(1)]])
    b = Matrix([[F(1), F(2, 9)], [F(0), F(3, 4)]])
    data = mat_mul(a, b).data
    assert assert_same_verdict(a, b, Matrix(data), Matrix.identity(2))
    data[-1][-1] += F(1, 10**9)
    assert not assert_same_verdict(a, b, Matrix(data), Matrix.identity(2))
    data[-1][-1] -= F(1, 10**9)
    data[-1][0] = F(0)
    assert not assert_same_verdict(a, b, Matrix(data), Matrix.identity(2))


def test_products_equal_zero_and_empty_shapes():
    zero = Matrix.zeros(2, 3)
    assert assert_same_verdict(zero, Matrix.zeros(3, 2), Matrix.zeros(2, 0), Matrix.zeros(0, 2))
    assert assert_same_verdict(Matrix.zeros(0, 3), Matrix.zeros(3, 2), Matrix.zeros(0, 1), Matrix.zeros(1, 2))
    assert assert_same_verdict(Matrix.zeros(2, 0), Matrix.zeros(0, 0), Matrix.zeros(2, 4), Matrix.zeros(4, 0))
    one = Matrix([[F(1, 2)]])
    assert not assert_same_verdict(one, one, Matrix.zeros(1, 1), Matrix.zeros(1, 1))


def test_products_equal_shape_mismatch():
    a = Matrix([[F(1), F(2)], [F(3), F(4)]])
    # Both products are well defined, of shapes 2x2 and 2x1 / 1x2: never equal.
    assert not assert_same_verdict(a, a, a, Matrix([[F(1)], [F(0)]]))
    assert not assert_same_verdict(a, a, Matrix([[F(1), F(0)]]), a)
    assert not assert_same_verdict(Matrix.zeros(2, 2), Matrix.zeros(2, 2), Matrix.zeros(2, 3), Matrix.zeros(3, 3))
    # An undefined product raises as mat_mul does, whichever side it is on.
    for args in [(a, Matrix.zeros(3, 2), a, a), (a, a, a, Matrix.zeros(3, 2))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            products_equal(*args)
