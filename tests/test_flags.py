import random
from collections import Counter
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import coinv, perm_states, q_int
from qtsetlin.exact import Matrix, mat_mul
from qtsetlin.flags import (
    Line,
    PartialFlag,
    coset_to_perm,
    enumerate_flags,
    enumerate_lines,
    hecke_generator_coset,
    insert_line,
    PRIME_TEST_BOUND,
    is_prime,
    lrb_product,
    rcayley_stationary,
    span_basis,
    transition_matrix_flags,
    transition_matrix_flags_hecke,
    weight_op_flags,
)
from qtsetlin.hecke_chains import PermRates
from test_flag_kernel import canonicalize_coset

RATES = PermRates(2, (F(1, 2), F(1, 3), F(1, 6)))


def flag_from_rows(rows, p):
    return canonicalize_coset(rows, p)


class TestLines:
    def test_counts(self):
        assert len(enumerate_lines(2, 2)) == 3
        assert len(enumerate_lines(3, 2)) == 7
        assert len(enumerate_lines(3, 3)) == 13
        assert len(enumerate_lines(4, 2)) == 15
        assert q_int(3, 3) == 13 and q_int(4, 2) == 15

    def test_n2_p2_lines(self):
        vectors = {line.vector(2) for line in enumerate_lines(2, 2)}
        assert vectors == {(1, 0), (0, 1), (1, 1)}

    def test_weights(self):
        n = 3
        lead_n = Line(3, ())
        assert RATES.y(lead_n.lead) == RATES.x[2]
        # the q^(n-i) lines with a fixed lead carry equal weight; totals add to 1
        per_lead = Counter()
        total = F(0)
        for line in enumerate_lines(n, 2):
            w = RATES.y(line.lead)
            assert w == RATES.x[line.lead - 1] / F(2) ** (n - line.lead)
            per_lead[line.lead] += 1
            total += w
        assert per_lead == {1: 4, 2: 2, 3: 1}
        assert total == 1

    def test_example_weight_x1_over_q2(self):
        # the reduced p=3 coset of the worked insertion example has lead row 1
        assert PermRates(3, (F(1, 2), F(1, 4), F(1, 4))).y(Line(1, (1, 0)).lead) == F(1, 2) / 9

    def test_nonprime_rejected(self):
        assert not is_prime(1) and not is_prime(4) and is_prime(13)
        with pytest.raises(ValueError):
            enumerate_lines(2, 4)

    def test_miller_rabin_is_exact_up_to_its_bound(self):
        def trial_division(p):
            return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

        assert [p for p in range(3000) if is_prime(p)] == [p for p in range(3000) if trial_division(p)]
        assert is_prime(2) and not is_prime(1) and not is_prime(0) and not is_prime(-7)
        assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
        # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to the
        # bases 2, 3, 5 and 7; 318665857834031151167461 to every prime base up
        # to 37, so it takes the 13th base, 41, to see it is composite.
        for composite in (561, 3215031751, 318665857834031151167461):
            assert not is_prime(composite)
        with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
            is_prime(PRIME_TEST_BOUND)


class TestCanonicalize:
    def test_idempotent_on_representatives(self):
        for flag in enumerate_flags(3, 2):
            assert canonicalize_coset(flag.rows(), 2) == flag

    def test_permutation_matrices_fixed(self):
        for perm in perm_states(3):
            rows = [[0] * 3 for _ in range(3)]
            for c, r in enumerate(perm):
                rows[r - 1][c] = 1
            flag = canonicalize_coset(rows, 3)
            assert coset_to_perm(flag) == perm

    def test_reference_p3_reduction(self):
        # inserting line (1,1,0) into the p=3 flag reduces to the known form
        before = [[1, 0, 1, 0], [1, 1, 0, 0], [0, 1, 2, 1]]
        from qtsetlin.flags import _vector_codes

        codes = _vector_codes(3, 3)
        out, _ = codes.reduce([codes.encode(col) for col in zip(*before)])
        reduced = tuple(zip(*map(codes.decode, out)))
        assert reduced == ((1, 0, 0), (1, 1, 0), (0, 1, 1))

    def test_constant_on_cosets(self):
        rng = random.Random(10)
        p = 3
        flags = enumerate_flags(3, p)
        for _ in range(25):
            g = rng.choice(flags)
            rows = [list(r) for r in g.rows()]
            # right-multiply by a random invertible upper-triangular matrix
            b = [[0] * 3 for _ in range(3)]
            for i in range(3):
                b[i][i] = rng.randint(1, p - 1)
                for j in range(i + 1, 3):
                    b[i][j] = rng.randrange(p)
            product = [
                [sum(rows[r][k] * b[k][c] for k in range(3)) % p for c in range(3)]
                for r in range(3)
            ]
            assert canonicalize_coset(product, p) == g

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_coset([[1, 1], [1, 1]], 2)


class TestEnumerateFlags:
    def test_count_21(self):
        assert len(enumerate_flags(3, 2)) == 21

    def test_counts_by_coset(self):
        flags = enumerate_flags(3, 2)
        sizes = Counter(coset_to_perm(f) for f in flags)
        assert all(sizes[perm] == 2 ** coinv(perm) for perm in perm_states(3))

    def test_factorial_counts(self):
        assert len(enumerate_flags(3, 3)) == 52
        assert len(enumerate_flags(4, 2)) == 315

    def test_n2_p2_reps_match_example(self):
        reps = {f.rows() for f in enumerate_flags(2, 2)}
        assert reps == {
            ((1, 0), (0, 1)),
            ((1, 0), (1, 1)),
            ((0, 1), (1, 0)),
        }

    def test_doublecoset_pattern_example(self):
        # the [213] family: rightmost nonzero entries form the matrix of 213
        flag = flag_from_rows([[0, 1, 0], [1, 0, 0], [1, 1, 1]], 2)
        assert coset_to_perm(flag) == (2, 1, 3)

    def test_unique(self):
        flags = enumerate_flags(3, 3)
        assert len(set(flags)) == len(flags)

    def test_single_point_space(self):
        flags = enumerate_flags(1, 2)
        assert len(flags) == 1
        rates = PermRates(2, (F(1),))
        assert transition_matrix_flags(rates, 2).matrix.data == [[F(1)]]

    def test_larger_prime(self):
        assert len(enumerate_flags(2, 5)) == 6
        rates = PermRates(5, (F(2, 3), F(1, 3)))
        op = transition_matrix_flags(rates, 5)
        assert set(op.matrix.row_sums()) == {F(1)}
        assert op.matrix == transition_matrix_flags_hecke(rates, 5).matrix


class TestInsertLine:
    def test_reference_p3_example(self):
        flag = flag_from_rows([[0, 1, 0], [1, 0, 0], [1, 2, 1]], 3)
        result = insert_line(flag, Line(1, (1, 0)))
        assert result.rows() == ((1, 0, 0), (1, 1, 0), (0, 1, 1))

    def test_inserting_own_first_line_fixes_flag(self):
        for flag in enumerate_flags(3, 2):
            first = flag.cols[0]
            lead = next(r for r, a in enumerate(first) if a) + 1
            line = Line(lead, tuple(first[lead:]))
            assert insert_line(flag, line) == flag

    def test_n2_images_match_example(self):
        # F = (<e1> in <e1,e2>): the three lines produce the three flags
        flag = flag_from_rows([[1, 0], [0, 1]], 2)
        images = {insert_line(flag, line) for line in enumerate_lines(2, 2)}
        assert images == set(enumerate_flags(2, 2))

    def test_first_subspace_is_the_line(self):
        rng = random.Random(11)
        flags = enumerate_flags(3, 3)
        lines = enumerate_lines(3, 3)
        for _ in range(30):
            flag = rng.choice(flags)
            line = rng.choice(lines)
            result = insert_line(flag, line)
            assert span_basis([result.cols[0]], 3) == span_basis([line.vector(3)], 3)
            # the full space is preserved
            assert span_basis(result.cols, 3) == span_basis(flag.cols, 3)


class TestHeckeOnCosets:
    def test_sum_over_coset_identities(self):
        # descent case maps [sigma] onto [sigma s_i]; ascent case gives
        # q [sigma s_i] + (q-1) [sigma]
        n, p = 3, 2
        op = hecke_generator_coset(1, n, p)
        flags = op.states
        index = op.index()
        by_perm = {}
        for f in flags:
            by_perm.setdefault(coset_to_perm(f), []).append(f)
        for sigma, members in by_perm.items():
            total = [F(0)] * len(flags)
            for f in members:
                row = op.matrix.data[index[f]]
                for c in range(len(flags)):
                    total[c] += row[c]
            swapped = (sigma[1], sigma[0]) + sigma[2:]
            expected = [F(0)] * len(flags)
            if sigma[1] < sigma[0]:
                for g in by_perm[swapped]:
                    expected[index[g]] += 1
            else:
                for g in by_perm[swapped]:
                    expected[index[g]] += p
                for g in members:
                    expected[index[g]] += p - 1
            assert total == expected

    def test_quadratic_relation_on_21_flags(self):
        p = 2
        op = hecke_generator_coset(2, 3, p)
        m = op.matrix
        ident = Matrix.identity(m.rows)
        assert mat_mul(m + ident, m - p * ident).is_zero()

    def test_row_counts(self):
        # every row of the generator matrix has total mass q
        for p in (2, 3):
            op = hecke_generator_coset(1, 3, p)
            assert set(op.matrix.row_sums()) == {F(p)}


class TestTransitionFlags:
    def test_example_row_n2(self):
        rates = PermRates(2, (F(1, 3), F(2, 3)))
        op = transition_matrix_flags(rates, 2)
        index = op.index()
        source = flag_from_rows([[1, 0], [0, 1]], 2)
        same = source
        shifted = flag_from_rows([[1, 0], [1, 1]], 2)
        swapped = flag_from_rows([[0, 1], [1, 0]], 2)
        row = op.matrix.data[index[source]]
        x1, x2 = rates.x
        assert row[index[same]] == x1 / 2
        assert row[index[shifted]] == x1 / 2
        assert row[index[swapped]] == x2

    def test_row_sums(self):
        sums = set(transition_matrix_flags(RATES, 2).matrix.row_sums())
        assert sums == {F(1)}

    def test_matches_hecke_composition(self):
        for p in (2, 3):
            rates = PermRates(p, (F(1, 2), F(1, 3), F(1, 6)))
            a = transition_matrix_flags(rates, p)
            b = transition_matrix_flags_hecke(rates, p)
            assert a.states == b.states
            assert a.matrix == b.matrix

    def test_weight_requires_q_equal_p(self):
        with pytest.raises(ValueError):
            transition_matrix_flags(PermRates(3, (F(1, 2), F(1, 2))), 2)

    def test_left_multiplication_equivariance(self):
        # conjugating by a lower-triangular h permutes flags and commutes
        # with the transition matrix
        p = 2
        rng = random.Random(12)
        op = transition_matrix_flags(RATES, p)
        flags = op.states
        index = op.index()
        n = 3
        for _ in range(5):
            h = [[0] * n for _ in range(n)]
            for i in range(n):
                h[i][i] = rng.randint(1, p - 1) if p > 2 else 1
                for j in range(i):
                    h[i][j] = rng.randrange(p)
            mapping = []
            for f in flags:
                rows = f.rows()
                product = [
                    [sum(h[r][k] * rows[k][c] for k in range(n)) % p for c in range(n)]
                    for r in range(n)
                ]
                mapping.append(index[canonicalize_coset(product, p)])
            for r in range(len(flags)):
                for c in range(len(flags)):
                    assert op.matrix.data[r][c] == op.matrix.data[mapping[r]][mapping[c]]

    def test_weight_op_diagonal(self):
        op = weight_op_flags(RATES, 2)
        for r, flag in enumerate(op.states):
            lead = next(row for row, a in enumerate(flag.cols[0]) if a) + 1
            assert op.matrix.data[r][r] == RATES.y(lead)


class TestPartialFlags:
    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_partial_flag(rng, 4, 2)
            assert lrb_product(a, a) == a

    def test_reference_products_noncommuting(self):
        p, n = 2, 4
        e = lambda *idx: tuple(1 if i + 1 in idx else 0 for i in range(n))
        v = PartialFlag.from_vectors([[e(1, 2)], [e(2)]], n, p)
        w = PartialFlag.from_vectors([[e(2)], [e(3)]], n, p)
        vw = lrb_product(v, w)
        wv = lrb_product(w, v)
        assert vw.chain == (
            span_basis([e(1, 2)], p),
            span_basis([e(1, 2), e(2)], p),
            span_basis([e(1, 2), e(2), e(3)], p),
        )
        assert wv.chain == (
            span_basis([e(2)], p),
            span_basis([e(2), e(3)], p),
            span_basis([e(2), e(3), e(1, 2)], p),
        )
        assert vw != wv

    def test_aba_equals_ab(self):
        rng = random.Random(14)
        for _ in range(100):
            a = random_partial_flag(rng, 4, 2)
            b = random_partial_flag(rng, 4, 2)
            ab = lrb_product(a, b)
            assert lrb_product(ab, a) == ab


def random_partial_flag(rng, n, p):
    batches = []
    for _ in range(rng.randint(1, n)):
        v = tuple(rng.randrange(p) for _ in range(n))
        if any(v):
            batches.append([v])
    if not batches:
        batches = [[tuple([1] + [0] * (n - 1))]]
    flag = PartialFlag.from_vectors(batches, n, p)
    chain = []
    for sub in flag.chain:
        if not chain or sub != chain[-1]:
            chain.append(sub)
    return PartialFlag(tuple(chain), n, p)


class TestRightCayleyStationary:
    def test_f132_reference_value(self):
        y = [None] + [RATES.x[i - 1] / F(2) ** (3 - i) for i in range(1, 4)]
        flag = flag_from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]], 2)
        assert coset_to_perm(flag) == (1, 3, 2)
        expected = y[1] * (y[3] + y[1]) / (1 - y[1])
        assert rcayley_stationary(RATES, 2, flag) == expected

    def test_antidominant_flag(self):
        x1, x2, x3 = RATES.x
        flag = flag_from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]], 2)
        assert coset_to_perm(flag) == (3, 2, 1)
        assert rcayley_stationary(RATES, 2, flag) == x2 * x3 / (x1 + x2)

    def test_requires_normalized_rates(self):
        with pytest.raises(ValueError):
            rcayley_stationary(PermRates(2, (F(1), F(1), F(1))), 2, enumerate_flags(3, 2)[0])

    def test_masses_sum_to_one(self):
        total = sum(rcayley_stationary(RATES, 2, f) for f in enumerate_flags(3, 2))
        assert total == 1


class TestSerialization:
    def test_flag_string(self):
        flag = flag_from_rows([[0, 1, 0], [1, 0, 0], [1, 0, 1]], 2)
        assert flag.to_str() == "010|100|101"
