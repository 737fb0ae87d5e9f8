"""Integer back-substitution of `exact.null_space` against the Fraction one.

`null_space` keeps each basis vector as int numerators over one running
denominator, scaled only when a pivot does not divide the sum it solves
for, and makes one Fraction per entry at the end.  `reference_null_space`
below is the former kernel: the fraction-free echelon form updating whole
rows (`reference_echelon`; `exact._echelon` updates only the columns from
the pivot on), then back-substitution on Fractions.  Both must give the
same basis, vector for vector, in the same order, with the same reduced
values, and both echelon forms the same rows.
"""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from qtsetlin.exact import Matrix, _echelon, _integer_rows, null_space, rank_nullity
from qtsetlin.hecke_chains import LinearOperator
from qtsetlin.stationary import stationary_oracle


def reference_echelon(rows, cols):
    """Fraction-free row echelon form, in place, each new row computed over
    its whole width; returns the pivot columns."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                if best is None or abs(v) < abs(rows[best][c]):
                    best = i
                    if abs(v) == 1:
                        break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            new = [piv * a - v * b for a, b in zip(rows[i], rows[r])]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            rows[i] = new
        pivots.append(c)
        r += 1
    return pivots


def reference_null_space(m: Matrix):
    """Basis of { x : m x = 0 }, one vector per free column, by Fraction
    back-substitution over the echelon rows."""
    cols = m.cols
    rows = _integer_rows(m)
    pivots = reference_echelon(rows, cols)
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = []
    for f in free:
        x = [F(0)] * cols
        x[f] = F(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc, row = pivots[r], rows[r]
            s = F(0)
            for k in range(pc + 1, cols):
                if row[k] and x[k]:
                    s += row[k] * x[k]
            x[pc] = -s / row[pc]
        basis.append(x)
    return basis


@st.composite
def planted_matrices(draw):
    """A rows x cols integer matrix L R of rank at most cols - k, for a drawn
    k <= 3, with some rows and some columns of the product set to zero, and
    the entries divided by a common drawn denominator."""
    rows = draw(st.integers(1, 7))
    cols = draw(st.integers(1, 7))
    k = draw(st.integers(0, min(3, cols)))
    rank = min(rows, cols - k)
    entry = st.integers(-9, 9)
    left = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rank, max_size=rank))
    data = [[sum(a * right[t][c] for t, a in enumerate(row)) for c in range(cols)] for row in left]
    for r in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
        data[r] = [0] * cols
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in data:
            row[c] = 0
    den = draw(st.integers(1, 6))
    return Matrix([[F(x, den) for x in row] for row in data])


def _same_basis(m):
    got, want = null_space(m), reference_null_space(m)
    assert got == want
    assert all(type(x) is F for v in got for x in v)
    assert len(got) == rank_nullity(m)[1]
    return got


@settings(max_examples=400, deadline=None)
@given(planted_matrices())
@example(Matrix([[2, 3]]))
@example(Matrix([[-3, 2, 5]]))
@example(Matrix([[0, 0], [0, 0]]))
def test_integer_back_substitution_equals_the_fraction_reference(m):
    _same_basis(m)
    got, want = _integer_rows(m), _integer_rows(m)
    assert _echelon(got, m.cols) == reference_echelon(want, m.cols)
    assert got == want


@pytest.mark.parametrize(
    "data,nullity",
    [
        # nullity 0: negative, non-unit pivots throughout
        ([[-2, 3, 0], [0, -3, 5], [7, 0, -4]], 0),
        # nullity 1: no pivot divides its sum; x = (-3/4, 5/2, 1, 0)
        ([[4, 0, 3, 0], [0, -2, 5, 0], [0, 0, 0, 0], [0, 0, 0, 6]], 1),
        # nullity 2, with a zero row and a zero column
        ([[0, -6, 4, 9], [0, 0, 0, 0], [0, 3, -2, 5]], 2),
        # nullity 3: one row of non-unit entries
        ([[-5, 3, 0, 7]], 3),
    ],
)
def test_planted_nullities(data, nullity):
    m = Matrix(data)
    basis = _same_basis(m)
    assert len(basis) == nullity
    for x in basis:
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m.data)


def test_non_dividing_pivot_gives_reduced_values():
    (x,) = _same_basis(Matrix([[6, 0, 4], [0, -9, 6]]))
    assert x == [F(-2, 3), F(2, 3), F(1)]


def test_oracle_refuses_a_planted_two_dimensional_kernel():
    """Two closed classes: the left null space of M - I has dimension 2."""
    m = Matrix(
        [
            [F(1, 2), F(1, 2), 0, 0],
            [F(1, 3), F(2, 3), 0, 0],
            [0, 0, F(1, 4), F(3, 4)],
            [0, 0, 1, 0],
        ]
    )
    op = LinearOperator(("a", "b", "c", "d"), m)
    with pytest.raises(ValueError, match="left null space has dimension 2, expected 1"):
        stationary_oracle(op, 1)
