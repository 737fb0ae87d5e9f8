"""The row-by-row transition builder against the dense Hecke products, and the
zero-skipping exact products against a naive triple loop."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsetlin import hecke_chains
from qtsetlin.combinatorics import word_states
from qtsetlin.exact import Matrix, mat_mul, vec_mat
from qtsetlin.flags import (
    hecke_generator_coset,
    transition_matrix_flags,
    transition_matrix_flags_hecke,
    weight_op_flags,
)
from qtsetlin.hecke_chains import (
    PermRates,
    WordRates,
    _generator_matrix,
    _shuffle_sum,
    transition_matrix_word,
    weight_op_word,
)


def all_compositions(n_max):
    for n in range(1, n_max + 1):
        for cuts in itertools.product((False, True), repeat=n - 1):
            parts, run = [], 1
            for cut in cuts:
                if cut:
                    parts.append(run)
                    run = 1
                else:
                    run += 1
            yield tuple(parts + [run])


@pytest.mark.parametrize("q", [F(1), F(2), F(5, 2), F(-3, 7)], ids=str)
@pytest.mark.parametrize("m", list(all_compositions(5)), ids=str)
def test_row_builder_matches_dense_products(m, q):
    rates = WordRates(q, tuple(F(2 * j + 1, 3 * j + 5) for j in range(len(m))), m)
    states = tuple(word_states(m))
    gens = [_generator_matrix(states, i, q) for i in range(1, sum(m))]
    reference = mat_mul(_shuffle_sum(gens, len(states)), weight_op_word(rates).matrix)
    op = transition_matrix_word(rates)
    assert op.states == states
    assert op.matrix == reference


@pytest.mark.parametrize("m", [(1, 1, 1, 1, 1), (1, 1, 1, 1, 2)], ids=str)
def test_row_builder_acts_once_per_state_and_generator(m, monkeypatch):
    rates = WordRates(F(5, 2), tuple(F(2 * j + 1, 3 * j + 5) for j in range(len(m))), m)
    calls = 0
    act = hecke_chains._act

    def counted(*args):
        nonlocal calls
        calls += 1
        return act(*args)

    monkeypatch.setattr(hecke_chains, "_act", counted)
    op = transition_matrix_word(rates)
    assert 0 < calls <= len(op.states) * (sum(m) - 1)
    gens = [_generator_matrix(op.states, i, rates.q) for i in range(1, sum(m))]
    assert op.matrix == mat_mul(_shuffle_sum(gens, len(op.states)), weight_op_word(rates).matrix)


@pytest.mark.parametrize(
    "n,p", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5), (4, 2)], ids=str
)
def test_flag_row_builder_matches_dense_products(n, p):
    """The coset action through the row builder against the dense Hecke
    products of the generator matrices, and both against line insertion,
    which does not use the coset action at all."""
    rates = PermRates(F(p), tuple(F(2 * j + 1, 3 * j + 5) for j in range(n)))
    op = transition_matrix_flags_hecke(rates, p)
    gens = [hecke_generator_coset(i, n, p).matrix for i in range(1, n)]
    reference = mat_mul(_shuffle_sum(gens, len(op.states)), weight_op_flags(rates, p).matrix)
    assert op.matrix == reference
    line_insertion = transition_matrix_flags(rates, p)
    assert line_insertion.states == op.states
    assert line_insertion.matrix == op.matrix


# About half the entries are zero, and up to two rows and two columns are
# all zero.
entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-9, 9), st.integers(1, 9)))


@st.composite
def sparse_matrix(draw, rows, cols):
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return Matrix(
        [
            [F(0) if r in zero_rows or c in zero_cols else draw(entries) for c in range(cols)]
            for r in range(rows)
        ]
    )


@st.composite
def product_operands(draw):
    rows, inner, cols = (draw(st.integers(1, 6)) for _ in range(3))
    return draw(sparse_matrix(rows, inner)), draw(sparse_matrix(inner, cols))


def naive_product(a, b):
    return [
        [sum((a[i, j] * b[j, k] for j in range(a.cols)), F(0)) for k in range(b.cols)]
        for i in range(a.rows)
    ]


@settings(deadline=None)
@given(product_operands())
def test_mat_mul_matches_triple_loop(operands):
    a, b = operands
    got = mat_mul(a, b)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.data == naive_product(a, b)


@settings(deadline=None)
@given(product_operands())
def test_vec_mat_matches_triple_loop(operands):
    a, b = operands
    for i in range(a.rows):
        assert vec_mat(a.row(i), b) == naive_product(a, b)[i]
