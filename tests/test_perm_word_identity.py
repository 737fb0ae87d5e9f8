"""The permutation chain is the word chain at content (1^n).

Every letter occurs once, so destandardization is the identity, weak and
strict left-to-right minima coincide and [1]_q = 1.  This pins that identity
across every layer that has a perm-named entry point.
"""

from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import perm_states
from qtsetlin.hecke_chains import (
    PermRates,
    WordRates,
    hecke_generator_perm,
    hecke_generator_word,
    transition_matrix_perm,
    transition_matrix_word,
    weight_op_perm,
    weight_op_word,
)
from qtsetlin.spectra import generic_perm_rates, generic_word_rates
from qtsetlin.stationary import kappa_word, word_factors


@pytest.mark.parametrize("q", [F(1), F(2), F(5, 2), F(-3, 7)], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_perm_chain_is_word_chain_at_content_ones(n, q):
    m = (1,) * n
    x = tuple(F(2 * i + 1, i + 3) for i in range(1, n + 1))
    rates = PermRates(q, x)
    wrates = WordRates(q, x, m)

    assert transition_matrix_perm(rates) == transition_matrix_word(wrates)
    for i in range(1, n):
        assert hecke_generator_perm(i, n, q) == hecke_generator_word(i, m, q)
    assert weight_op_perm(rates) == weight_op_word(wrates)

    for perm in perm_states(n):
        assert word_factors(perm, rates) == word_factors(perm, wrates)
        for k in range(n + 1):
            assert kappa_word(perm[:k], rates) == kappa_word(perm[:k], wrates)

    for seed in range(5):
        for sample_q in (None, q):
            got = generic_perm_rates(n, seed=seed, q=sample_q)
            want = generic_word_rates(m, seed=seed, q=sample_q)
            assert (got.q, got.x) == (want.q, want.xbar)
