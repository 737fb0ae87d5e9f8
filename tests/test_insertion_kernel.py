"""The int-coded line-insertion kernel of `flags` and the integer `mat_mul`.

`_insertion_table` codes every vector of F_p^n as an int and builds the
inserted flag from the canonical columns of (v, c_1, ..., c_{j-1}) followed
by the unchanged c_{j+1}, ..., c_n, where j is the entry step of v.
`insert_line`, which re-canonicalizes the whole flag, is the reference: the
table must give its target on every (flag, line) pair.  `mat_mul` sums the
products of the integer rows of both factors over D_a D_b and divides out the
common factor once; the dense Fraction product is its reference.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtsetlin import flags
from qtsetlin.exact import Matrix, mat_mul
from qtsetlin.flags import (
    Line,
    _insert_coded,
    _VectorCodes,
    _insertion_table,
    _vector_codes,
    enumerate_lines,
    insert_line,
)
from test_flag_kernel import _canonical_columns, _entry_step, canonicalize_coset

SPACES = [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)] + [(2, 59), (2, 61), (4, 2), (4, 3)]


@pytest.mark.parametrize("n,p", SPACES)
def test_table_matches_insert_line_on_every_pair(n, p):
    states, leads, targets = _insertion_table(n, p)
    lines = enumerate_lines(n, p)
    assert leads == tuple(line.lead for line in lines)
    stride = 13 if (n, p) == (4, 3) else 1
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
