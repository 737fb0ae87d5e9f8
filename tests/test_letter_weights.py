"""The one integer form of the letter weights, `WordRates.ybar_ints`.

Every chain moves by the same rule: a letter j (for flags, a line with lead
row j) is drawn with weight ybar_j, and the state is then acted on by
T_{j-1} ... T_1.  The word, perm and both flag matrices, the path method and
the upper-set eigenvalues all read the weights as (D, (D ybar_1, ...)) from
`ybar_ints`, and the kappa coefficients are ybar_j q^n.  A value planted in
a fresh rates object's `ybar_ints` must therefore show up in every builder.
"""

from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import q_int
from qtsetlin.exact import integer_numerators
from qtsetlin.flags import (
    _flag_states,
    rcayley_stationary,
    transition_matrix_flags,
    transition_matrix_flags_hecke,
)
from qtsetlin.hecke_chains import PermRates, WordRates, transition_matrix_perm, transition_matrix_word
from qtsetlin.suites import compositions

QS = (F(2), F(1, 2), F(-3, 7), F(1))
CONTENTS = [m for n in range(1, 6) for m in compositions(n)]


def rates_for(m, q):
    return WordRates(q, tuple(F(2 * j + 1, 3 * j + 4) for j in range(len(m))), m)


def reference_kappa_coeffs(rates):
    """The former loop: c_j = xbar_j q^(n_j) / [m_j]_q with n_j = m_1 + ... + m_j."""
    q = rates.q
    out = []
    n_j = 0
    for xbar, part in zip(rates.xbar, rates.m):
        n_j += part
        out.append(xbar * q**n_j / q_int(part, q))
    return tuple(out)


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_ybar_ints_are_the_weights_over_their_lcm(m, q):
    rates = rates_for(m, q)
    d, ints = integer_numerators(rates._ybar)
    assert rates.ybar_ints == (d, tuple(ints))
    assert rates.ybar_ints is rates.ybar_ints
    assert [F(y, d) for y in rates.ybar_ints[1]] == [rates.ybar(j) for j in range(1, len(m) + 1)]


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_kappa_coeffs_are_ybar_times_q_to_the_n(m, q):
    rates = rates_for(m, q)
    d, ints = rates.ybar_ints
    assert rates.kappa_coeffs == reference_kappa_coeffs(rates)
    assert rates.kappa_coeffs == tuple(F(y, d) * q**rates.n for y in ints)


def planted(rates):
    """rates with D ybar_1 raised by D in its `ybar_ints`, that is ybar_1 + 1."""
    d, ints = rates.ybar_ints
    rates.__dict__["ybar_ints"] = d, (ints[0] + d, *ints[1:])
    return rates


def raised(rates):
    """Fresh rates whose ybar_1 is one more: xbar_1 + q^(n - m_1) [m_1]_q."""
    q, m = rates.q, rates.m
    xbar = (rates.xbar[0] + q ** (rates.n - m[0]) * q_int(m[0], q), *rates.xbar[1:])
    return PermRates(q, xbar) if type(rates) is PermRates else WordRates(q, xbar, m)


@pytest.mark.parametrize("m", [(2, 1), (1, 2, 1), (3, 2)], ids=str)
@pytest.mark.parametrize("q", [F(2), F(-3, 7)], ids=str)
def test_a_planted_weight_shows_in_the_word_matrix(m, q):
    got = transition_matrix_word(planted(rates_for(m, q))).matrix
    assert got != transition_matrix_word(rates_for(m, q)).matrix
    assert got == transition_matrix_word(raised(rates_for(m, q))).matrix


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_planted_weight_shows_in_the_perm_matrix(n):
    def fresh():
        return PermRates(F(5, 2), tuple(F(i + 1, 2 * i + 5) for i in range(n)))

    got = transition_matrix_perm(planted(fresh())).matrix
    assert got != transition_matrix_perm(fresh()).matrix
    assert got == transition_matrix_perm(raised(fresh())).matrix


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("build", [transition_matrix_flags, transition_matrix_flags_hecke], ids=lambda b: b.__name__)
def test_a_planted_weight_shows_in_both_flag_matrices(n, p, build):
    def fresh():
        return PermRates(p, tuple(F(i + 2, 3 * i + 7) for i in range(n)))

    got = build(planted(fresh()), p).matrix
    assert got != build(fresh(), p).matrix
    assert got == build(raised(fresh()), p).matrix


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (2, 3)])
def test_a_planted_weight_shows_in_the_path_method(n, p):
    def fresh():
        return PermRates(p, tuple(F(1, n) for _ in range(n)))

    space = _flag_states(n, p)
    clean = [rcayley_stationary(fresh(), p, f) for f in space]
    plant = fresh()
    d, ints = plant.ybar_ints
    # y_n + 1/D raises the lines' total weight from D to D + 1; the lines
    # outside any V_j with j < n weigh more than 1, so no stabilizer
    # weight reaches D.
    plant.__dict__["ybar_ints"] = d, (*ints[:-1], ints[-1] + 1)
    assert [rcayley_stationary(plant, p, f) for f in space] != clean
