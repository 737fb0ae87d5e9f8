"""Each state space is enumerated once per content.

`perm_states` and `word_states` read one memoized tuple per content and
return a new list of it, so a caller may change its list freely.  The chain
builders and the lumping maps read the tuple itself, so two builders of one
content share it.  The references are the enumerations the memo replaced: a
depth-first recursion over the letters still left, and
`itertools.permutations` for S_n.
"""

import itertools
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import perm_states, word_states
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
from qtsetlin.lumping import incl_perms_to_flags, incl_words_to_perms, proj_flags_to_perms, proj_perms_to_words
from qtsetlin.suites import compositions


def reference_word_states(m):
    letters = len(m)
    out = []

    def build(prefix, remaining):
        if sum(remaining) == 0:
            out.append(tuple(prefix))
            return
        for j in range(letters):
            if remaining[j]:
                remaining[j] -= 1
                prefix.append(j + 1)
                build(prefix, remaining)
                prefix.pop()
                remaining[j] += 1

    build([], list(m))
    return out


def reference_perm_states(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


ALL_CONTENTS = [m for n in range(1, 7) for m in compositions(n)]


@pytest.mark.parametrize("m", ALL_CONTENTS, ids=str)
def test_word_states_is_a_new_list_equal_to_the_enumeration(m):
    first, second = word_states(m), word_states(list(m))
    assert type(first) is list and first == reference_word_states(m)
    assert first == second and first is not second


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_states_is_a_new_list_equal_to_the_enumeration(n):
    first = perm_states(n)
    assert type(first) is list and first == reference_perm_states(n)
    assert first == word_states((1,) * n) and first is not perm_states(n)


@pytest.mark.parametrize("m", [(1, 1, 1), (2, 1), (1, 2, 2)], ids=str)
def test_changing_a_returned_list_changes_no_later_call(m):
    want = reference_word_states(m)
    words = word_states(m)
    words.reverse()
    words.append((9,))
    words[0] = ()
    assert word_states(m) == want
    perms = perm_states(3)
    perms.clear()
    assert perm_states(3) == reference_perm_states(3)


def test_builders_of_one_content_share_one_states_tuple():
    m, q = (1, 2, 1), F(3)
    a = WordRates(q, (F(1, 5), F(2, 5), F(2, 5)), m)
    b = WordRates(F(5, 2), (F(1, 7), F(3, 7), F(3, 7)), m)
    states = transition_matrix_word(a).states
    assert type(states) is tuple and list(states) == reference_word_states(m)
    assert transition_matrix_word(b).states is states
    assert weight_op_word(a).states is states
    assert hecke_generator_word(2, list(m), q).states is states
    assert incl_words_to_perms(m, q).source_states is states
    assert proj_perms_to_words(m).target_states is states


def test_perm_builders_and_lumping_maps_share_one_states_tuple():
    r = PermRates(2, (F(1, 6), F(1, 3), F(1, 2)))
    states = transition_matrix_perm(r).states
    assert list(states) == reference_perm_states(3)
    assert weight_op_perm(r).states is states
    assert hecke_generator_perm(1, 3, 2).states is states
    assert proj_flags_to_perms(3, 2).target_states is states
    assert incl_perms_to_flags(3, 2).source_states is states
    assert proj_perms_to_words((1, 2)).source_states is states
