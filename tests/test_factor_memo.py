"""The memoized closed-form factors against a per-word reference.

`word_factors` looks each factor up in a memo on the rates, keyed by the
state data the factor depends on: the inversion number for the prefactor,
the sorted prefix for a denominator, the sorted segment from p_k and the
letter for a numerator.  `reference_word_factors` evaluates every factor of
one word from scratch, with `lrm_positions` and `p_k`, and must agree with it
list for list.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qtsetlin import stationary
from qtsetlin.combinatorics import inv, lrm_positions, p_k, word_states
from qtsetlin.hecke_chains import PermRates, WordRates
from qtsetlin.stationary import (
    _fiber_factor,
    kappa_word,
    stationary_perm_formula,
    stationary_word_formula,
    word_factors,
)
from qtsetlin.suites import compositions

QS = (F(2), F(5, 2), F(1, 2), F(-3, 7))


def reference_word_factors(word, rates):
    """(prefactor, numerator factors, denominator factors) of one word,
    every factor evaluated from scratch."""
    n = rates.n
    q = rates.q
    total = rates.total()
    pre = q ** (-inv(word)) * _fiber_factor(rates.m, q)
    lrm = set(lrm_positions(word))
    nums = []
    dens = []
    for k in range(1, n):
        dens.append(total - q ** (k - n - 1) * kappa_word(word[: k - 1], rates))
        if k in lrm:
            nums.append(kappa_word((word[k - 1],), rates))
        else:
            pk = p_k(word, k)
            nums.append(
                kappa_word(word[pk - 1 : k], rates)
                - kappa_word(word[pk - 1 : k - 1], rates) / q
            )
    return pre, nums, dens


def _rates(q, m):
    return WordRates(q, tuple(F(j + 2, 2 * j + 7) for j in range(len(m))), m)


@pytest.mark.parametrize("q", QS, ids=str)
def test_matches_reference_on_every_word_up_to_n6(q):
    for n in range(1, 7):
        for m in compositions(n):
            rates = _rates(q, m)
            for word in word_states(m):
                assert word_factors(word, rates) == reference_word_factors(word, rates)


@settings(max_examples=40, deadline=None)
@given(
    m=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda m: sum(m) <= 5),
    xbar=st.lists(st.fractions(min_value=F(1, 50), max_value=5), min_size=3, max_size=3),
    q=st.sampled_from(QS + (F(1), F(7, 3))),
)
def test_matches_reference_at_random_positive_rates(m, xbar, q):
    rates = WordRates(q, xbar[: len(m)], m)
    for word in word_states(m):
        assert word_factors(word, rates) == reference_word_factors(word, rates)


@pytest.mark.parametrize("m", [(1, 1, 1, 1, 1), (2, 1, 2), (1, 2, 2)], ids=str)
def test_visiting_order_does_not_change_the_factors(m):
    words = list(word_states(m))
    forward = _rates(F(-3, 7), m)
    expected = {w: word_factors(w, forward) for w in words}
    shuffled = words[:]
    random.Random(7).shuffle(shuffled)
    for order in (words[::-1], shuffled):
        rates = _rates(F(-3, 7), m)
        assert {w: word_factors(w, rates) for w in order} == expected


def test_rates_differing_only_in_q_share_no_memo_entries():
    m = (2, 1, 2)
    a, b = _rates(F(2), m), _rates(F(3), m)
    words = list(word_states(m))
    for w in words:
        word_factors(w, a)
    assert b._factor_memo == {}
    for w in words:
        assert word_factors(w, b) == reference_word_factors(w, b)
    assert a._factor_memo is not b._factor_memo


def test_word_zero_denominator_names_state_and_k():
    # c = (0, 1) at q = 1: the k=2 denominator 1 - kappa((2,)) vanishes at 211
    rates = WordRates(1, (F(0), F(1)), (2, 1))
    with pytest.raises(ValueError, match=r"word formula denominator factor k=2 vanishes at state 211"):
        stationary_word_formula(rates)


def test_perm_n6_formula_calls_kappa_word_at_most_400_times(monkeypatch):
    calls = 0

    def counted(b, rates):
        nonlocal calls
        calls += 1
        return kappa_word(b, rates)

    monkeypatch.setattr(stationary, "kappa_word", counted)
    rates = PermRates(2, tuple(F(i, 21) for i in range(1, 7)))
    stationary_perm_formula(rates)
    assert 0 < calls <= 400
