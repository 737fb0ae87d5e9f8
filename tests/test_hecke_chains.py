import random
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import enumerate_upper_sets, perm_states, q_int
from qtsetlin.exact import Matrix, mat_mul
from qtsetlin.hecke_chains import (
    LinearOperator,
    PermRates,
    WordRates,
    hecke_generator_perm,
    hecke_generator_word,
    transition_matrix_perm,
    transition_matrix_word,
    weight_op_perm,
    weight_op_word,
)
from qtsetlin.suites import compositions

Q = F(7, 3)


def reference_matrix_n3(rates):
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


def reference_matrix_m12(rates):
    q = rates.q
    x1, x2 = rates.xbar
    two = q_int(2, q)
    return Matrix([[x1, x2, 0], [x1, x2 / two, q * x2 / two], [x1, 0, x2]])


def rand_rates(rng, n, q=Q, normalized=True):
    vals = [F(rng.randint(1, 20), rng.randint(21, 50)) for _ in range(n)]
    if normalized:
        s = sum(vals)
        vals = [v / s for v in vals]
    return PermRates(q, tuple(vals))


def hecke_relations_hold(gens, q):
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


class TestGenerators:
    def test_n2_action(self):
        op = hecke_generator_perm(1, 2, Q)
        assert op.states == ((1, 2), (2, 1))
        # 12 . T1 = 21 + (q-1) 12 ; 21 . T1 = q 12
        assert op.matrix.data == [[Q - 1, F(1)], [Q, F(0)]]

    def test_q1_is_transposition_action(self):
        for n in (2, 3, 4):
            for i in range(1, n):
                op = hecke_generator_perm(i, n, 1)
                states = op.states
                index = {s: r for r, s in enumerate(states)}
                for r, s in enumerate(states):
                    swapped = list(s)
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    expected = [F(0)] * len(states)
                    expected[index[tuple(swapped)]] = F(1)
                    assert op.matrix.data[r] == expected

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            hecke_generator_perm(3, 3, Q)
        with pytest.raises(ValueError):
            hecke_generator_word(0, (1, 2), Q)

    def test_relations_perm(self):
        for n in range(2, 6):
            gens = [hecke_generator_perm(i, n, Q).matrix for i in range(1, n)]
            assert hecke_relations_hold(gens, Q)

    def test_relations_word(self):
        for m in ((1, 2), (2, 2), (2, 1, 2), (3, 2)):
            n = sum(m)
            gens = [hecke_generator_word(i, m, Q).matrix for i in range(1, n)]
            assert hecke_relations_hold(gens, Q)

    def test_word_equal_letters_pick_up_q(self):
        op = hecke_generator_word(1, (2,), Q)
        assert op.states == ((1, 1),)
        assert op.matrix.data == [[Q]]

    def test_word_12_action(self):
        op = hecke_generator_word(1, (1, 1), Q)
        index = op.index()
        row = op.matrix.data[index[(1, 2)]]
        assert row[index[(2, 1)]] == 1 and row[index[(1, 2)]] == Q - 1


class TestWeightOps:
    def test_perm_diagonal_n3(self):
        rates = PermRates(Q, (F(1, 2), F(1, 3), F(1, 6)))
        op = weight_op_perm(rates)
        x1, x2, x3 = rates.x
        expected = [x1 / Q**2, x1 / Q**2, x2 / Q, x2 / Q, x3, x3]
        assert [op.matrix.data[i][i] for i in range(6)] == expected
        assert all(
            op.matrix.data[i][j] == 0 for i in range(6) for j in range(6) if i != j
        )

    def test_perm_q1_recovers_plain_rates(self):
        rates = PermRates(1, (F(1, 2), F(1, 3), F(1, 6)))
        op = weight_op_perm(rates)
        for r, s in enumerate(op.states):
            assert op.matrix.data[r][r] == rates.x[s[0] - 1]

    def test_word_diagonal_m12(self):
        rates = WordRates(Q, (F(2, 5), F(3, 5)), (1, 2))
        op = weight_op_word(rates)
        index = op.index()
        assert op.matrix.data[index[(1, 2, 2)]][index[(1, 2, 2)]] == rates.xbar[0] / Q**2
        assert op.matrix.data[index[(2, 1, 2)]][index[(2, 1, 2)]] == rates.xbar[1] / q_int(2, Q)

    def test_word_single_letter(self):
        rates = WordRates(Q, (F(1),), (3,))
        op = weight_op_word(rates)
        assert op.matrix.data[0][0] == 1 / q_int(3, Q)


class TestTransitionPerm:
    def test_matches_reference_matrix(self):
        rng = random.Random(4)
        for q in (F(2), F(3), F(5, 2)):
            rates = rand_rates(rng, 3, q=q)
            assert transition_matrix_perm(rates).matrix == reference_matrix_n3(rates)

    def test_classical_random_to_top(self):
        n = 4
        rates = PermRates(1, tuple(F(1, n) for _ in range(n)))
        op = transition_matrix_perm(rates)
        index = op.index()
        for r, perm in enumerate(op.states):
            expected = [F(0)] * len(op.states)
            for i in range(n):
                target = (perm[i],) + perm[:i] + perm[i + 1 :]
                expected[index[target]] += F(1, n)
            assert op.matrix.data[r] == expected

    def test_q1_is_classical_tsetlin(self):
        # against an independently built move-to-front matrix with rates x_{pi_i}
        rng = random.Random(5)
        rates = rand_rates(rng, 4, q=F(1))
        op = transition_matrix_perm(rates)
        index = op.index()
        for r, perm in enumerate(op.states):
            expected = [F(0)] * len(op.states)
            for i in range(len(perm)):
                target = (perm[i],) + perm[:i] + perm[i + 1 :]
                expected[index[target]] += rates.x[perm[i] - 1]
            assert op.matrix.data[r] == expected

    def test_specialization_to_unweighted_shuffle(self):
        # x_i = q^(n-i)/[n]_q turns the weight into 1/[n]_q times the identity
        n, q = 4, Q
        x = tuple(q ** (n - i) / q_int(n, q) for i in range(1, n + 1))
        rates = PermRates(q, x)
        weighted = transition_matrix_perm(rates)
        from qtsetlin.hecke_chains import _generator_matrix, _shuffle_sum

        states = tuple(perm_states(n))
        gens = [_generator_matrix(states, i, q) for i in range(1, n)]
        shuffle = _shuffle_sum(gens, len(states)) * (1 / q_int(n, q))
        assert weighted.matrix == shuffle

    def test_row_sums(self):
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randint(2, 5)
            rates = rand_rates(rng, n, q=F(rng.randint(2, 5)), normalized=False)
            sums = set(transition_matrix_perm(rates).matrix.row_sums())
            assert sums == {rates.total()}

    def test_single_state_space(self):
        rates = PermRates(2, (F(1),))
        op = transition_matrix_perm(rates)
        assert op.states == ((1,),)
        assert op.matrix.data == [[F(1)]]

    def test_zero_rate_allowed(self):
        rates = PermRates(2, (F(1, 2), F(0), F(1, 2)))
        op = transition_matrix_perm(rates)
        assert set(op.matrix.row_sums()) == {F(1)}

    def test_nonnegative_entries(self):
        rng = random.Random(7)
        rates = rand_rates(rng, 4, q=F(3, 2))
        op = transition_matrix_perm(rates)
        assert all(v >= 0 for row in op.matrix.data for v in row)


class TestTransitionWord:
    def test_matches_reference_matrix(self):
        rng = random.Random(8)
        for q in (F(2), F(7, 2)):
            vals = [F(rng.randint(1, 9), 10) for _ in range(2)]
            s = sum(vals)
            rates = WordRates(q, (vals[0] / s, vals[1] / s), (1, 2))
            assert transition_matrix_word(rates).matrix == reference_matrix_m12(rates)

    def test_single_word_space(self):
        rates = WordRates(Q, (F(1),), (4,))
        op = transition_matrix_word(rates)
        assert len(op.states) == 1
        assert op.matrix.data == [[F(1)]]

    def test_row_sums(self):
        rng = random.Random(9)
        for m in ((1, 2), (2, 2), (1, 3), (2, 1, 1)):
            vals = tuple(F(rng.randint(1, 9), rng.randint(10, 19)) for _ in m)
            rates = WordRates(F(rng.randint(2, 5)), vals, m)
            sums = set(transition_matrix_word(rates).matrix.row_sums())
            assert sums == {rates.total()}

    def test_q1_lex_word_states(self):
        rates = WordRates(1, (F(1, 2), F(1, 2)), (1, 2))
        op = transition_matrix_word(rates)
        assert op.states == ((1, 2, 2), (2, 1, 2), (2, 2, 1))


def apply_generator_to_combination(vec, i, q, equal_goes_first):
    """Generator action on a formal linear combination kept as a dict."""
    out = {}
    for state, coeff in vec.items():
        a, b = state[i - 1], state[i]
        swapped = state[: i - 1] + (state[i], state[i - 1]) + state[i + 1 :]
        if b < a or (equal_goes_first and b == a):
            out[swapped] = out.get(swapped, 0) + q * coeff
        else:
            out[swapped] = out.get(swapped, 0) + coeff
            out[state] = out.get(state, 0) + (q - 1) * coeff
    return {s: c for s, c in out.items() if c}


class TestBruteForceOracle:
    """Rebuild rows by expanding the operator sum on formal combinations,
    with no matrix algebra involved, and compare entrywise."""

    def brute_row(self, state, q, weight_of, equal_goes_first):
        n = len(state)
        total = {}
        for i in range(1, n + 1):
            vec = {state: F(1)}
            for j in range(i - 1, 0, -1):
                vec = apply_generator_to_combination(vec, j, q, equal_goes_first)
            for target, coeff in vec.items():
                total[target] = total.get(target, 0) + coeff * weight_of(target)
        return total

    def test_perm_matrix_n4(self):
        rng = random.Random(30)
        rates = rand_rates(rng, 4, q=F(7, 2))
        op = transition_matrix_perm(rates)
        weight_of = lambda s: rates.y(s[0])
        for r, state in enumerate(op.states):
            brute = self.brute_row(state, rates.q, weight_of, equal_goes_first=False)
            for c, target in enumerate(op.states):
                assert op.matrix.data[r][c] == brute.get(target, 0)

    def test_word_matrix_m22(self):
        rng = random.Random(31)
        vals = tuple(F(rng.randint(1, 9), 10) for _ in range(2))
        rates = WordRates(F(5, 3), vals, (2, 2))
        op = transition_matrix_word(rates)
        weight_of = lambda w: rates.ybar(w[0])
        for r, state in enumerate(op.states):
            brute = self.brute_row(state, rates.q, weight_of, equal_goes_first=True)
            for c, target in enumerate(op.states):
                assert op.matrix.data[r][c] == brute.get(target, 0)


class TestRates:
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError):
            PermRates(0, (F(1),))
        with pytest.raises(ValueError):
            WordRates(0, (F(1),), (2,))

    def test_word_rate_count_must_match(self):
        with pytest.raises(ValueError):
            WordRates(2, (F(1, 2),), (1, 2))

    def test_operator_requires_square(self):
        with pytest.raises(ValueError):
            LinearOperator(((1, 2),), Matrix.zeros(2, 3))


def reference_upper_set_values(rates):
    """lambda_a = sum_j ybar_j q^(a_{j+1} + ... + a_l) [a_j]_q in Fractions,
    term by term, as the rates computed it before it ran on integers."""
    q = rates.q
    out = {}
    for a in enumerate_upper_sets(rates.m):
        value = F(0)
        for j, aj in enumerate(a):
            if aj:
                value += rates.ybar(j + 1) * q ** sum(a[j + 1 :]) * q_int(aj, q)
        out[a] = value
    return out


UPPER_SET_QS = [F(2), F(3), F(5, 2), F(1), F(1, 2), F(-3, 7), F(-1), F(-2)]


@pytest.mark.parametrize("q", UPPER_SET_QS, ids=str)
@pytest.mark.parametrize("m", [()] + [m for n in range(1, 6) for m in compositions(n)] + [(3, 2, 2), (1, 4)], ids=str)
def test_upper_set_values_match_the_fraction_formula(m, q):
    rng = random.Random(f"{m}:{q}")
    xbar = [F(rng.randint(1, 40), rng.randint(41, 97)) for _ in m]
    try:
        rates = WordRates(q, xbar, m)
    except ValueError:
        return  # [m_j]_q = 0 for a part: no chain at this q
    values = rates.upper_set_values
    reference = reference_upper_set_values(rates)
    assert list(values) == list(reference) == enumerate_upper_sets(m)
    assert dict(values) == reference
    assert all(type(v) is F for v in values.values())
