"""
Acceptance suite: one test per criterion, each printing a PASS/FAIL line and
holding its stated runtime budget.  Every comparison is exact; there are no
tolerances anywhere (run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from qtsetlin.combinatorics import (
    coinv,
    derangement,
    destandardize,
    perm_states,
    q_int,
    word_states,
)
from qtsetlin.exact import Matrix, mat_mul
from qtsetlin.flags import (
    PartialFlag,
    coset_to_perm,
    hecke_generator_coset,
    lrb_product,
    rcayley_stationary,
    transition_matrix_flags,
)
from qtsetlin.hecke_chains import (
    PermRates,
    WordRates,
    hecke_generator_perm,
    hecke_generator_word,
    transition_matrix_perm,
    transition_matrix_word,
)
from qtsetlin.lumping import check_commuting, map_rates_word_to_perm
from qtsetlin.spectra import (
    eigen_catalog_flags,
    eigen_catalog_perm,
    eigen_catalog_word,
    generic_perm_rates,
    generic_word_rates,
    merge_catalog,
    verify_annihilation,
    verify_multiplicities,
)
from qtsetlin.stationary import (
    classical_tsetlin_stationary,
    flag_coset_factors,
    stationary_flags_formula,
    stationary_oracle,
    stationary_perm_formula,
    stationary_word_formula,
    word_factors,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
    )
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")


def reference_perm_matrix_n3(rates):
    q = rates.q
    x1, x2, x3 = rates.x
    return Matrix(
        [
            [(q * q - q + 1) * x1 / q**2, (q - 1) * x1 / q**2, x2, 0, x3, 0],
            [(q - 1) * x1 / q, x1 / q, x2, 0, x3, 0],
            [x1, 0, x2 / q, (q - 1) * x2 / q, 0, x3],
            [x1, 0, 0, x2, 0, x3],
            [0, x1, 0, x2, x3, 0],
            [0, x1, 0, x2, 0, x3],
        ]
    )


def reference_word_matrix_m12(rates):
    q = rates.q
    x1, x2 = rates.xbar
    two = q_int(2, q)
    return Matrix([[x1, x2, 0], [x1, x2 / two, q * x2 / two], [x1, 0, x2]])


def reference_perm_stationary_n3(rates):
    q = rates.q
    x1, x2, x3 = rates.x
    s = x1 + x2 + x3
    return {
        (1, 2, 3): q * x1 * (q * (x1 + x2) - x1) / (q**2 * s - x1) / s,
        (1, 3, 2): x1 * ((q - 1) * x1 + q**2 * x3) / (q**2 * s - x1) / s,
        (2, 1, 3): q * x1 * x2 / (q * s - x2) / s,
        (2, 3, 1): x2 * ((q - 1) * x2 + q * x3) / (q * s - x2) / s,
        (3, 1, 2): x1 * x3 / (x1 + x2) / s,
        (3, 2, 1): x2 * x3 / (x1 + x2) / s,
    }


def sample_normalized(rng, count):
    vals = [F(rng.randint(1, 25), rng.randint(26, 60)) for _ in range(count)]
    total = sum(vals)
    return tuple(v / total for v in vals)


def test_criterion_1_perm_matrix():
    with criterion(1, "n=3 permutation matrix equals the reference form", 1.0):
        rng = random.Random(101)
        for q in (F(2), F(3), F(5, 2)):
            for _ in range(3):
                rates = PermRates(q, sample_normalized(rng, 3))
                got = transition_matrix_perm(rates)
                assert got.matrix == reference_perm_matrix_n3(rates)


def test_criterion_2_perm_stationary():
    with criterion(2, "n=3 stationary equals the reference form, oracle agrees", 1.0):
        rng = random.Random(102)
        for q in (F(2), F(5, 2)):
            rates = PermRates(q, sample_normalized(rng, 3))
            assert rates.total() == 1
            op = transition_matrix_perm(rates)
            psi = stationary_perm_formula(rates)
            expected = reference_perm_stationary_n3(rates)
            for perm, value in expected.items():
                assert psi[perm] == value
            assert psi.is_left_eigenvector(op, 1)
            assert stationary_oracle(op, 1).values == psi.values


def test_criterion_3_q1_reduction():
    with criterion(3, "q=1 reduces to the classical chain for n <= 5", 10.0):
        rng = random.Random(103)
        for n in range(2, 6):
            rates = PermRates(1, sample_normalized(rng, n))
            psi = stationary_perm_formula(rates)
            assert psi.values == classical_tsetlin_stationary(rates.x).values
            for entry in eigen_catalog_perm(rates):
                assert entry.value == sum((rates.x[i - 1] for i in entry.label), F(0))
                assert entry.multiplicity == derangement(n - len(entry.label))


def test_criterion_4_perm_spectra():
    with criterion(4, "permutation spectra verified by nullity for n <= 4", 60.0):
        for n in range(2, 5):
            rates = generic_perm_rates(n, seed=104 + n)
            op = transition_matrix_perm(rates)
            catalog = eigen_catalog_perm(rates)
            assert len(catalog) == 2**n
            report = verify_multiplicities(op, catalog)
            assert report.all_pass
            for labels, _value, predicted, computed, ok in report.entries:
                assert ok and computed == predicted
            assert verify_annihilation(op, catalog)


def test_criterion_5_word_chain():
    with criterion(5, "word chain: reference m=(1,2) data and the m=(3,3) table", 60.0):
        rng = random.Random(105)
        # reference matrix and stationary state for content (1, 2)
        for q in (F(2), F(3), F(7, 2)):
            rates = WordRates(q, sample_normalized(rng, 2), (1, 2))
            op = transition_matrix_word(rates)
            assert op.matrix == reference_word_matrix_m12(rates)
            psi = stationary_word_formula(rates)
            x1, x2 = rates.xbar
            assert psi[(1, 2, 2)] == x1 / (x1 + x2)
            assert psi[(2, 1, 2)] == (1 + 1 / q) * x1 * x2 / (
                (x1 + x2) * ((1 + 1 / q) * x1 + x2)
            )
            assert psi[(2, 2, 1)] == x2**2 / ((x1 + x2) * ((1 + 1 / q) * x1 + x2))
            assert psi.is_left_eigenvector(op, 1)
        # reference eigenvalue table for content (3, 3)
        rates = generic_word_rates((3, 3), seed=105, q=F(2))
        q = rates.q
        x1, x2 = rates.xbar
        three = 1 + q + q**2
        table = {
            (0, 0): (F(0), 6),
            (1, 0): (x1 / (q**3 * three), 3),
            (0, 1): (x2 / three, 3),
            (2, 0): (x1 * (1 + q) / (q**3 * three), 1),
            (0, 2): (x2 * (1 + q) / three, 1),
            (1, 1): ((x1 + x2 * q**2) / (q**2 * three), 2),
            (2, 1): ((x1 * (1 + q) + x2 * q**2) / (q**2 * three), 1),
            (1, 2): ((x1 + x2 * (q + q**2)) / (q * three), 1),
            (2, 2): ((1 + q) * (x1 + x2 * q) / (q * three), 1),
            (3, 3): (x1 + x2, 1),
        }
        catalog = eigen_catalog_word(rates)
        merged = merge_catalog(catalog)
        assert len(merged) == 16  # all values distinct at generic rates
        nonzero = {e.label[0]: (e.value, e.multiplicity) for e in merged if e.multiplicity}
        assert nonzero == table
        assert sorted((mult for _, mult in nonzero.values()), reverse=True) == [
            6, 3, 3, 2, 1, 1, 1, 1, 1, 1,
        ]
        assert sum(e.multiplicity for e in catalog) == len(word_states((3, 3)))
        report = verify_multiplicities(transition_matrix_word(rates), catalog)
        assert report.all_pass


def test_criterion_6_flag_chain():
    with criterion(6, "flag chains: reference p=2 n=3 data; oracle at 52 and 315 states", 300.0):
        # p=2, n=3 with the reference rates: 21 states, six reference coset values
        rates = PermRates(2, (F(1, 2), F(1, 3), F(1, 6)))
        op = transition_matrix_flags(rates, 2)
        assert len(op.states) == 21
        psi = stationary_flags_formula(rates, 2)
        x1, x2, x3 = rates.x
        reference = {
            (3, 2, 1): x2 * x3 / (x1 + x2),
            (3, 1, 2): x1 * x3 / (2 * (x1 + x2)),
            (2, 3, 1): x2 * (x2 + 2 * x3) / (2 * (2 * x1 + x2 + 2 * x3)),
            (2, 1, 3): x1 * x2 / (2 * (2 * x1 + x2 + 2 * x3)),
            (1, 3, 2): x1 * (x1 + 4 * x3) / (4 * (3 * x1 + 4 * x2 + 4 * x3)),
            (1, 2, 3): x1 * (x1 + 2 * x2) / (4 * (3 * x1 + 4 * x2 + 4 * x3)),
        }
        for flag, value in zip(psi.states, psi.values):
            assert value == reference[coset_to_perm(flag)]
        # multiplicities (6, 8, 4, 2, 1) by exact nullity, at generic rates
        grates = generic_perm_rates(3, seed=106, q=2)
        gop = transition_matrix_flags(grates, 2)
        catalog = eigen_catalog_flags(grates, 2)
        assert sorted((e.multiplicity for e in catalog if e.multiplicity), reverse=True) == [
            8, 6, 4, 2, 1,
        ]
        report = verify_multiplicities(gop, catalog)
        assert report.all_pass
        # three stationary methods agree exactly
        gpsi = stationary_flags_formula(grates, 2)
        assert stationary_oracle(gop, 1).values == gpsi.values
        assert all(rcayley_stationary(grates, 2, f) == gpsi[f] for f in gpsi.states)
        # p=3, n=3 (52 states) and p=2, n=4 (315 states): formula vs oracle
        for n, p, size in ((3, 3, 52), (4, 2, 315)):
            r = generic_perm_rates(n, seed=106 + p, q=p)
            t = transition_matrix_flags(r, p)
            assert len(t.states) == size
            f = stationary_flags_formula(r, p)
            assert f.is_left_eigenvector(t, 1)
            assert stationary_oracle(t, 1).values == f.values


def test_criterion_7_commuting_diagrams():
    with criterion(7, "commuting diagrams and lumped stationary identities", 300.0):
        for p in (2, 3):
            rates = generic_perm_rates(3, seed=107, q=p)
            assert check_commuting("flags-perms-proj", rates, p=p)
            assert check_commuting("flags-perms-incl", rates, p=p)
            psi_perm = stationary_perm_formula(rates)
            psi_flag = stationary_flags_formula(rates, p)
            for flag, value in zip(psi_flag.states, psi_flag.values):
                perm = coset_to_perm(flag)
                assert psi_perm[perm] == F(p) ** coinv(perm) * value
        wrates = generic_word_rates((2, 2), seed=107, q=F(2))
        rates = map_rates_word_to_perm(wrates)
        assert check_commuting("perms-words-proj", rates, m=(2, 2))
        assert check_commuting("perms-words-incl", rates, m=(2, 2))
        psi_perm = stationary_perm_formula(rates)
        psi_word = stationary_word_formula(wrates)
        fibers = {w: F(0) for w in psi_word.states}
        for perm, value in zip(psi_perm.states, psi_perm.values):
            fibers[destandardize(perm, (2, 2))] += value
        for word, value in zip(psi_word.states, psi_word.values):
            assert fibers[word] == value


def _relations_hold(gens, q):
    size = gens[0].rows
    ident = Matrix.identity(size)
    for i, ti in enumerate(gens):
        if not mat_mul(ti + ident, ti - q * ident).is_zero():
            return False
        for j in range(i + 2, len(gens)):
            if mat_mul(ti, gens[j]) != mat_mul(gens[j], ti):
                return False
        if i + 1 < len(gens):
            tj = gens[i + 1]
            if mat_mul(mat_mul(ti, tj), ti) != mat_mul(mat_mul(tj, ti), tj):
                return False
    return True


def test_criterion_8_hecke_relations():
    with criterion(8, "Hecke relations hold on all three representations, n <= 4", 60.0):
        q = F(9, 4)
        for n in (2, 3, 4):
            gens = [hecke_generator_perm(i, n, q).matrix for i in range(1, n)]
            assert _relations_hold(gens, q)
        for n in (2, 3, 4):
            for m in _compositions(n):
                if len(m) == 1:
                    continue
                gens = [hecke_generator_word(i, m, q).matrix for i in range(1, n)]
                assert _relations_hold(gens, q)
        for n in (2, 3, 4):
            gens = [hecke_generator_coset(i, n, 2).matrix for i in range(1, n)]
            assert _relations_hold(gens, F(2))


def test_criterion_9_property_suite():
    with criterion(9, "row sums, positivity, semigroup axioms, catalog totals", 300.0):
        rng = random.Random(109)
        # 50 random configurations: row sums equal the total rate
        for _ in range(25):
            n = rng.randint(2, 5)
            rates = PermRates(
                F(rng.randint(2, 7), rng.randint(1, 2)),
                tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)),
            )
            assert set(transition_matrix_perm(rates).matrix.row_sums()) == {rates.total()}
        for _ in range(20):
            n = rng.randint(2, 5)
            m = rng.choice([c for c in _compositions(n) if len(c) > 1])
            wrates = WordRates(
                F(rng.randint(2, 7)),
                tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in m),
                m,
            )
            assert set(transition_matrix_word(wrates).matrix.row_sums()) == {wrates.total()}
        for _ in range(5):
            p = rng.choice((2, 3))
            rates = PermRates(p, tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)))
            assert set(transition_matrix_flags(rates, p).matrix.row_sums()) == {rates.total()}
        # positivity of every stationary factor at q >= 1, rates > 0
        for n in (2, 3, 4):
            rates = generic_perm_rates(n, seed=109 + n, q=F(rng.randint(2, 5), 2))
            for perm in perm_states(n):
                pre, nums, dens = word_factors(perm, rates)
                assert pre > 0 and all(v > 0 for v in nums) and all(v > 0 for v in dens)
        wrates = generic_word_rates((2, 2), seed=109, q=F(3, 2))
        for word in word_states((2, 2)):
            pre, nums, dens = word_factors(word, wrates)
            assert pre > 0 and all(v > 0 for v in nums) and all(v > 0 for v in dens)
        frates = generic_perm_rates(3, seed=110, q=2)
        for perm in perm_states(3):
            nums, dens = flag_coset_factors(perm, frates)
            assert all(v > 0 for v in nums) and all(v > 0 for v in dens)
        # idempotence and aba = ab on 100 random partial-flag pairs
        for _ in range(100):
            a = _random_partial_flag(rng, 4, 2)
            b = _random_partial_flag(rng, 4, 2)
            assert lrb_product(a, a) == a
            ab = lrb_product(a, b)
            assert lrb_product(ab, a) == ab
        # catalog multiplicities always sum to the state-space size
        import math

        for n in (2, 3, 4):
            rates = generic_perm_rates(n, seed=111 + n)
            assert sum(e.multiplicity for e in eigen_catalog_perm(rates)) == math.factorial(n)
        for m in ((1, 2), (2, 2), (3, 3)):
            wrates = generic_word_rates(m, seed=112)
            assert sum(e.multiplicity for e in eigen_catalog_word(wrates)) == len(word_states(m))
        for n, p in ((3, 2), (3, 3), (4, 2)):
            frates = generic_perm_rates(n, seed=113, q=p)
            expected = 1
            for k in range(1, n + 1):
                expected *= int(q_int(k, p))
            assert sum(e.multiplicity for e in eigen_catalog_flags(frates, p)) == expected


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


def _random_partial_flag(rng, n, p):
    batches = []
    for _ in range(rng.randint(1, n)):
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            batches.append([v])
    if not batches:
        batches = [[tuple([1] + [0] * (n - 1))]]
    return PartialFlag.from_vectors(batches, n, p)
