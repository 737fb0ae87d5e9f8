import random
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import coinv, inv, perm_states, q_int
from qtsetlin.exact import Matrix
from qtsetlin.flags import coset_to_perm, rcayley_stationary
from qtsetlin.hecke_chains import (
    LinearOperator,
    PermRates,
    WordRates,
    transition_matrix_perm,
    transition_matrix_word,
)
from qtsetlin.lumping import map_rates_word_to_perm
from qtsetlin.spectra import generic_perm_rates, generic_word_rates
from qtsetlin.stationary import (
    classical_tsetlin_stationary,
    flag_coset_factors,
    kappa_word,
    stationary_flags_formula,
    stationary_oracle,
    stationary_perm_formula,
    stationary_word_formula,
    word_factors,
)
from qtsetlin.flags import transition_matrix_flags

RATES = PermRates(2, (F(1, 2), F(1, 3), F(1, 6)))


class TestKappa:
    def test_long_word_gives_total(self):
        for n in (2, 3, 5):
            rates = generic_perm_rates(n, seed=n)
            w0 = tuple(range(n, 0, -1))
            assert kappa_word(w0, rates) == rates.total()

    def test_singleton(self):
        rates = generic_perm_rates(4, seed=0)
        for b in range(1, 5):
            assert kappa_word((b,), rates) == rates.x[b - 1] * rates.q ** (b - 1)

    def test_empty_is_zero(self):
        assert kappa_word((), RATES) == 0
        assert kappa_word((), WordRates(2, (F(1, 2), F(1, 2)), (1, 2))) == 0

    def test_sort_applied_first(self):
        rates = generic_perm_rates(4, seed=1)
        assert kappa_word((2, 4, 1), rates) == kappa_word((4, 2, 1), rates)

    def test_word_kappa_ybar_identity(self):
        # kappa(b; xbar) = sum q^(n+i-k-1) ybar_{b_i} on the sorted tuple
        rates = generic_word_rates((2, 3, 1), seed=2, q=F(5, 2))
        n = rates.n
        for b in ((1,), (2, 1), (3, 3, 2), (1, 2, 3)):
            srt = tuple(sorted(b, reverse=True))
            k = len(b)
            expected = sum(
                rates.q ** (n + i - k - 1) * rates.ybar(v)
                for i, v in enumerate(srt, start=1)
            )
            assert kappa_word(b, rates) == expected

    def test_word_single_letter(self):
        rates = WordRates(F(3), (F(1),), (4,))
        m1 = 4
        assert kappa_word((1,), rates) == rates.q ** (m1 - 1) * rates.xbar[0] / q_int(m1, rates.q)


class TestPermStationary:
    def test_matches_reference_values(self):
        for q in (F(2), F(3), F(5, 2)):
            rates = PermRates(q, (F(1, 2), F(1, 3), F(1, 6)))
            psi = stationary_perm_formula(rates)
            x1, x2, x3 = rates.x
            expected = {
                (1, 2, 3): q * x1 * (q * (x1 + x2) - x1) / (q**2 - x1),
                (1, 3, 2): x1 * ((q - 1) * x1 + q**2 * x3) / (q**2 - x1),
                (2, 1, 3): q * x1 * x2 / (q - x2),
                (2, 3, 1): x2 * ((q - 1) * x2 + q * x3) / (q - x2),
                (3, 1, 2): x1 * x3 / (x1 + x2),
                (3, 2, 1): x2 * x3 / (x1 + x2),
            }
            for perm, value in expected.items():
                assert psi[perm] == value

    def test_left_eigenvector_and_normalized(self):
        rng = random.Random(20)
        for n in (2, 3, 4):
            rates = generic_perm_rates(n, seed=rng.randint(0, 999))
            op = transition_matrix_perm(rates)
            psi = stationary_perm_formula(rates)
            assert psi.is_left_eigenvector(op, rates.total())
            assert psi.total() == 1

    def test_oracle_agrees(self):
        rates = generic_perm_rates(3, seed=21)
        op = transition_matrix_perm(rates)
        assert stationary_oracle(op, 1).values == stationary_perm_formula(rates).values

    def test_n1(self):
        psi = stationary_perm_formula(PermRates(2, (F(1),)))
        assert psi.values == (F(1),)

    def test_q1_reduces_to_classical(self):
        for n in range(2, 6):
            rates = generic_perm_rates(n, seed=n + 50, q=F(1))
            psi = stationary_perm_formula(rates)
            classical = classical_tsetlin_stationary(rates.x)
            assert psi.values == classical.values

    def test_unnormalized_rates_still_eigenvector(self):
        rates = PermRates(F(5, 2), (F(2), F(3), F(1, 2)))
        op = transition_matrix_perm(rates)
        psi = stationary_perm_formula(rates)
        assert psi.is_left_eigenvector(op, rates.total())

    def test_q_below_one_identity_still_holds(self):
        # algebraic identity regime: no probabilistic meaning, same equation
        rates = PermRates(F(2, 3), (F(1, 2), F(1, 3), F(1, 6)))
        op = transition_matrix_perm(rates)
        psi = stationary_perm_formula(rates)
        assert psi.is_left_eigenvector(op, rates.total())

    def test_positive_factors(self):
        rates = generic_perm_rates(4, seed=22, q=F(7, 4))
        for perm in perm_states(4):
            pre, nums, dens = word_factors(perm, rates)
            assert pre > 0
            assert all(f > 0 for f in nums)
            assert all(f > 0 for f in dens)

    def test_zero_denominator_reported(self):
        # x = (0, 0, 1) makes the k=2 denominator factor vanish for 321 at q=1
        rates = PermRates(1, (F(0), F(0), F(1)))
        with pytest.raises(ValueError, match="denominator factor"):
            stationary_perm_formula(rates)


class TestWordStationary:
    def test_matches_reference_values(self):
        q = F(3)
        xbar = (F(2, 5), F(3, 5))
        rates = WordRates(q, xbar, (1, 2))
        psi = stationary_word_formula(rates)
        x1, x2 = xbar
        assert psi[(1, 2, 2)] == x1 / (x1 + x2)
        assert psi[(2, 1, 2)] == (1 + 1 / q) * x1 * x2 / ((x1 + x2) * ((1 + 1 / q) * x1 + x2))
        assert psi[(2, 2, 1)] == x2**2 / ((x1 + x2) * ((1 + 1 / q) * x1 + x2))

    def test_left_eigenvector_against_reference_matrix(self):
        q = F(3)
        rates = WordRates(q, (F(2, 5), F(3, 5)), (1, 2))
        two = q_int(2, q)
        x1, x2 = rates.xbar
        reference = LinearOperator(
            ((1, 2, 2), (2, 1, 2), (2, 2, 1)),
            Matrix([[x1, x2, 0], [x1, x2 / two, q * x2 / two], [x1, 0, x2]]),
        )
        psi = stationary_word_formula(rates)
        assert psi.is_left_eigenvector(reference, 1)

    def test_single_word(self):
        psi = stationary_word_formula(WordRates(2, (F(1),), (3,)))
        assert psi.values == (F(1),)

    def test_all_compositions_normalized_eigenvectors(self):
        for n in (3, 4, 5):
            for m in _compositions(n):
                if len(m) == 1:
                    continue
                rates = generic_word_rates(m, seed=31)
                op = transition_matrix_word(rates)
                psi = stationary_word_formula(rates)
                assert psi.is_left_eigenvector(op, 1)
                assert psi.total() == 1

    def test_positive_factors(self):
        rates = generic_word_rates((2, 3), seed=32, q=F(3, 2))
        from qtsetlin.combinatorics import word_states

        for word in word_states(rates.m):
            pre, nums, dens = word_factors(word, rates)
            assert pre > 0 and all(f > 0 for f in nums) and all(f > 0 for f in dens)


class TestFlagStationary:
    def test_six_coset_values(self):
        psi = stationary_flags_formula(RATES, 2)
        x1, x2, x3 = RATES.x
        expected = {
            (3, 2, 1): x2 * x3 / (x1 + x2),
            (3, 1, 2): x1 * x3 / (2 * (x1 + x2)),
            (2, 3, 1): x2 * (x2 + 2 * x3) / (2 * (2 * x1 + x2 + 2 * x3)),
            (2, 1, 3): x1 * x2 / (2 * (2 * x1 + x2 + 2 * x3)),
            (1, 3, 2): x1 * (x1 + 4 * x3) / (4 * (3 * x1 + 4 * x2 + 4 * x3)),
            (1, 2, 3): x1 * (x1 + 2 * x2) / (4 * (3 * x1 + 4 * x2 + 4 * x3)),
        }
        for flag, value in zip(psi.states, psi.values):
            assert value == expected[coset_to_perm(flag)]

    def test_constant_on_cosets_and_sums_to_one(self):
        rates = generic_perm_rates(3, seed=41, q=3)
        psi = stationary_flags_formula(rates, 3)
        by_perm = {}
        for flag, value in zip(psi.states, psi.values):
            by_perm.setdefault(coset_to_perm(flag), set()).add(value)
        assert all(len(vals) == 1 for vals in by_perm.values())
        assert psi.total() == 1

    def test_last_factor_is_one_when_normalized(self):
        rates = generic_perm_rates(4, seed=42, q=2)
        for perm in perm_states(4):
            nums, dens = flag_coset_factors(perm, rates)
            assert nums[-1] == dens[-1]

    def test_eigenvector(self):
        rates = generic_perm_rates(3, seed=43, q=2)
        op = transition_matrix_flags(rates, 2)
        psi = stationary_flags_formula(rates, 2)
        assert psi.is_left_eigenvector(op, 1)

    def test_three_methods_agree(self):
        rates = generic_perm_rates(3, seed=44, q=2)
        op = transition_matrix_flags(rates, 2)
        psi = stationary_flags_formula(rates, 2)
        oracle = stationary_oracle(op, 1)
        assert oracle.values == psi.values
        assert all(rcayley_stationary(rates, 2, f) == psi[f] for f in psi.states)

    def test_oracle_agrees_at_p5(self):
        rates = generic_perm_rates(3, seed=46, q=5)
        op = transition_matrix_flags(rates, 5)
        assert len(op.states) == 186
        psi = stationary_flags_formula(rates, 5)
        assert stationary_oracle(op, 1).values == psi.values

    def test_positive_factors(self):
        rates = generic_perm_rates(3, seed=45, q=5)
        for perm in perm_states(3):
            nums, dens = flag_coset_factors(perm, rates)
            assert all(f > 0 for f in nums) and all(f > 0 for f in dens)


class TestBridges:
    def test_perm_mass_is_q_coinv_times_flag_mass(self):
        for p in (2, 3):
            rates = generic_perm_rates(3, seed=51, q=p)
            psi_perm = stationary_perm_formula(rates)
            psi_flag = stationary_flags_formula(rates, p)
            for flag, value in zip(psi_flag.states, psi_flag.values):
                perm = coset_to_perm(flag)
                assert psi_perm[perm] == F(p) ** coinv(perm) * value

    def test_word_mass_is_fiber_sum(self):
        from qtsetlin.combinatorics import destandardize

        for m in ((1, 2), (2, 2), (1, 3)):
            wrates = generic_word_rates(m, seed=52, q=F(2))
            rates = map_rates_word_to_perm(wrates)
            psi_perm = stationary_perm_formula(rates)
            psi_word = stationary_word_formula(wrates)
            fibers = {}
            for perm, value in zip(psi_perm.states, psi_perm.values):
                fibers.setdefault(destandardize(perm, m), F(0))
                fibers[destandardize(perm, m)] += value
            for word, value in zip(psi_word.states, psi_word.values):
                assert fibers[word] == value

    def test_q_inv_mass_constant_on_fibers(self):
        from qtsetlin.combinatorics import destandardize

        m = (2, 2)
        wrates = generic_word_rates(m, seed=53, q=F(3))
        rates = map_rates_word_to_perm(wrates)
        psi = stationary_perm_formula(rates)
        fibers = {}
        for perm, value in zip(psi.states, psi.values):
            fibers.setdefault(destandardize(perm, m), set()).add(
                rates.q ** inv(perm) * value
            )
        assert all(len(vals) == 1 for vals in fibers.values())


class TestOracle:
    def test_oracle_detects_wrong_rate(self):
        op = transition_matrix_perm(RATES)
        with pytest.raises(ValueError, match="dimension"):
            stationary_oracle(op, F(1, 2))

    def test_oracle_detects_degenerate_kernel(self):
        ident = LinearOperator(((1,), (2,)), Matrix.identity(2))
        with pytest.raises(ValueError, match="dimension"):
            stationary_oracle(ident, 1)


def _compositions(n):
    out = []
    for cuts in range(2 ** (n - 1)):
        parts = []
        run = 1
        for i in range(n - 1):
            if cuts >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out
