import random
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import (
    block_sets,
    coinv,
    content,
    derangement,
    destandardize,
    enumerate_upper_sets,
    inv,
    linear_extensions,
    lrm_positions,
    p_k,
    perm_states,
    poset_derangements,
    q_derangement,
    q_factorial,
    q_int,
    seq_to_str,
    standardize,
    word_states,
)


class TestStatistics:
    def test_inv_identity_and_reversal(self):
        assert inv((1, 2, 3, 4)) == 0
        assert inv((3, 2, 1)) == 3

    def test_coinv(self):
        assert coinv((1, 2, 3, 4)) == 6
        assert coinv((3, 2, 1)) == 0
        assert coinv((2, 1, 3)) == 2

    def test_inv_plus_coinv(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randint(1, 8)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            assert inv(perm) + coinv(perm) == n * (n - 1) // 2

    def test_lrm_examples(self):
        assert lrm_positions((5, 4, 2, 6, 3, 1, 4)) == [1, 2, 3, 6]
        assert lrm_positions((2, 2, 3, 1)) == [1, 2, 4]
        assert lrm_positions(tuple(range(1, 8))) == [1]

    def test_lrm_count_is_stirling(self):
        # permutations with k left-to-right minima, against the unsigned
        # Stirling recurrence s(n,k) = s(n-1,k-1) + (n-1) s(n-1,k)
        stirling = {(0, 0): 1}
        for n in range(1, 7):
            for k in range(n + 1):
                stirling[(n, k)] = stirling.get((n - 1, k - 1), 0) + (n - 1) * stirling.get(
                    (n - 1, k), 0
                )
        for n in range(1, 7):
            counts = {}
            for perm in perm_states(n):
                k = len(lrm_positions(perm))
                counts[k] = counts.get(k, 0) + 1
            for k in range(1, n + 1):
                assert counts.get(k, 0) == stirling[(n, k)]

    def test_p_k_examples(self):
        assert p_k((5, 4, 2, 6, 3, 1, 4), 4) == 1
        assert p_k((1, 2), 2) == 1
        assert p_k((2, 2, 3, 1), 3) == 1

    def test_p_k_undefined_on_lrm(self):
        with pytest.raises(ValueError):
            p_k((3, 1, 2), 1)
        with pytest.raises(ValueError):
            p_k((3, 1, 2), 2)


class TestStandardization:
    def test_reference_example(self):
        assert standardize((3, 2, 2, 2, 1, 1, 2, 3, 3)) == (7, 3, 4, 5, 1, 2, 6, 8, 9)

    def test_destandardize_reference_example(self):
        assert destandardize((5, 6, 4, 1, 2, 3, 7, 8), (2, 3, 1, 2)) == (
            2, 3, 2, 1, 1, 2, 4, 4,
        )

    def test_distinct_increasing_word(self):
        assert standardize((1, 2, 3)) == (1, 2, 3)

    def test_destandardize_trivial_compositions(self):
        perm = (3, 1, 4, 2)
        assert destandardize(perm, (1, 1, 1, 1)) == perm
        assert destandardize(perm, (4,)) == (1, 1, 1, 1)

    def test_round_trip(self):
        for m in ((1, 2), (2, 2), (3, 1), (2, 1, 2)):
            for w in word_states(m):
                assert destandardize(standardize(w), m) == w

    def test_content(self):
        assert content((2, 1, 2, 3)) == (1, 2, 1)
        with pytest.raises(ValueError):
            content((1, 3))  # letter 2 missing


class TestQAnalogs:
    def test_q_int(self):
        assert q_int(3, 2) == 7
        assert q_factorial(3, 2) == 21
        assert q_int(5, 1) == 5
        assert q_int(2, 2) == 3  # lines of the 2-dim space over F_2

    def test_derangements(self):
        assert derangement(0) == 1
        assert derangement(1) == 0
        assert derangement(3) == 2

    def test_derangement_recurrence(self):
        for k in range(2, 11):
            assert derangement(k) == (k - 1) * (derangement(k - 1) + derangement(k - 2))

    def test_q_derangements_at_2(self):
        assert q_derangement(3, 2) == 6
        assert q_derangement(2, 2) == 2

    def test_q_derangement_at_1_is_derangement(self):
        for k in range(9):
            assert q_derangement(k, 1) == derangement(k)

    def test_q_derangement_rational_point(self):
        # brute check of the defining sum at q = 3/2, k = 4
        q = F(3, 2)
        total = sum(
            (-1) ** j * q ** (j * (j - 1) // 2) * q_factorial(4, q) / q_factorial(j, q)
            for j in range(5)
        )
        assert q_derangement(4, q) == total


class TestEnumerations:
    def test_perm_states_lex(self):
        states = perm_states(3)
        assert states == [
            (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
        ]

    def test_word_states_lex(self):
        assert word_states((2, 2)) == [
            (1, 1, 2, 2), (1, 2, 1, 2), (1, 2, 2, 1),
            (2, 1, 1, 2), (2, 1, 2, 1), (2, 2, 1, 1),
        ]

    def test_block_sets(self):
        assert block_sets((2, 3, 1)) == [(1, 2), (3, 4, 5), (6,)]

    def test_upper_sets(self):
        assert enumerate_upper_sets((1,)) == [(0,), (1,)]
        assert len(enumerate_upper_sets((3, 3))) == 16
        for m in ((2, 1), (3, 3), (1, 2, 2)):
            expected = 1
            for part in m:
                expected *= part + 1
            assert len(enumerate_upper_sets(m)) == expected


class TestPosets:
    def test_extensions_reference_set(self):
        got = set(linear_extensions((2, 2)))
        assert got == {
            (1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
            (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2),
        }

    def test_single_chain(self):
        assert linear_extensions((4,)) == [(1, 2, 3, 4)]

    def test_antichain_of_singletons(self):
        assert len(linear_extensions((1, 1, 1))) == 6

    def test_extension_count_is_multinomial(self):
        import math

        for m in ((2, 3), (2, 2, 1), (3, 3)):
            n = sum(m)
            expected = math.factorial(n)
            for part in m:
                expected //= math.factorial(part)
            assert len(linear_extensions(m)) == expected

    def test_removed_upper_set_keeps_bottom_labels(self):
        got = set(linear_extensions((2, 2), (1, 0)))
        assert got == {(1, 3, 4), (3, 1, 4), (3, 4, 1)}

    def test_poset_derangements_reference(self):
        assert poset_derangements((2, 2)) == 2

    def test_single_chain_has_no_derangement(self):
        for k in range(1, 5):
            assert poset_derangements((k,)) == 0

    def test_table_entry_m33(self):
        assert poset_derangements((3, 3), (1, 1)) == 2

    def test_word_count_partition(self):
        # multiplicities over all upper sets exhaust the word count
        for m in ((2, 2), (3, 3), (1, 2, 1)):
            total = sum(poset_derangements(m, a) for a in enumerate_upper_sets(m))
            assert total == len(word_states(m))


class TestSerialization:
    def test_digit_string(self):
        assert seq_to_str((3, 1, 4, 2)) == "3142"

    def test_comma_string_for_large_values(self):
        seq = (10, 1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert seq_to_str(seq) == "10,1,2,3,4,5,6,7,8,9"
