"""The prefix-tree walk of the word closed form and the integer path method
against the per-state code they replaced.

`stationary_word_formula` visits every prefix of the word tree once and
carries the inversion number and the integer numerator and denominator of
the factors fixed so far.  `reference_word_formula` is the former per-state
product: every factor of every word evaluated from scratch, multiplied out
on integers and reduced once.  `rcayley_stationary` sums the line weights
as integers over their lcm; `reference_path_value` is the former `Fraction`
path method.  Values and error messages must agree exactly.
"""

import itertools
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import inv, perm_states, state_key, word_states
from qtsetlin.flags import enumerate_flags, enumerate_lines, rcayley_stationary
from qtsetlin.hecke_chains import PermRates, WordRates
from qtsetlin.spectra import generic_perm_rates
from qtsetlin.stationary import (
    StationaryVector,
    _fiber_factor,
    kappa_word,
    stationary_perm_formula,
    stationary_word_formula,
)
from qtsetlin.suites import compositions
from test_flag_kernel import _entry_step

QS = (F(2), F(1), F(5, 2), F(-3, 7))


def reference_word_factors(word, rates):
    """(prefactor, numerator factors, denominator factors) of one word."""
    n = rates.n
    q = rates.q
    pre = q ** -inv(word) * _fiber_factor(rates.m, q)
    nums = []
    dens = []
    for k in range(1, n):
        prefix = word[: k - 1]
        dens.append(rates.total() - q ** (k - n - 1) * kappa_word(prefix, rates))
        v = word[k - 1]
        i = next((j for j in range(k - 1) if word[j] < v), k - 1)
        nums.append(kappa_word(word[i:k], rates) - kappa_word(word[i : k - 1], rates) / q)
    return pre, nums, dens


def reference_product(state, pre, nums, dens):
    a, b = pre.numerator, pre.denominator
    for f in nums:
        a *= f.numerator
        b *= f.denominator
    for k, d in enumerate(dens, start=1):
        if d == 0:
            raise ValueError(
                f"word formula denominator factor k={k} vanishes at state {state_key(state)}"
            )
        a *= d.denominator
        b *= d.numerator
    return F(a, b)


def reference_word_formula(rates):
    states = tuple(word_states(rates.m))
    values = tuple(
        reference_product(w, *reference_word_factors(w, rates)) for w in states
    )
    return states, values


def reference_path_value(rates, p, flag):
    """The path method on Fractions: line counts per (entry step, lead),
    step weights, and one division per stabilizer prefix."""
    if rates.total() != 1:
        raise ValueError("the path method requires rates summing to 1")
    n = flag.n
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for line in enumerate_lines(n, p):
        counts[_entry_step(flag, line.vector(n))][line.lead] += 1
    ys = [rates.y(i) for i in range(1, n + 1)]
    step_weight = [sum((c * y for c, y in zip(row[1:], ys) if c), F(0)) for row in counts]
    value = F(1)
    for j in range(1, n + 1):
        value *= step_weight[j]
    stab = F(0)
    for j in range(1, n):
        stab += step_weight[j]
        denom = 1 - stab
        if denom == 0:
            raise ValueError(f"stabilizer weight of prefix {j} reaches 1; path method undefined")
        value /= denom
    return value


def _outcome(fn, *args):
    """The result of fn, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _word_rates(q, m):
    return WordRates(q, tuple(F(j + 2, 2 * j + 7) for j in range(len(m))), m)


def _walk(rates):
    vec = stationary_word_formula(rates)
    return vec.states, vec.values


# The walk and the reference get rates objects of their own, so neither
# reads factors the other put in the memo.


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("n", range(1, 7))
def test_walk_matches_reference_on_perms(n, q):
    x = tuple(F(2 * i + 1, 5 * i + 3) for i in range(n))
    walked = stationary_perm_formula(PermRates(q, x))
    assert walked.states == tuple(perm_states(n))
    assert (walked.states, walked.values) == reference_word_formula(PermRates(q, x))


@pytest.mark.parametrize("q", QS, ids=str)
def test_walk_matches_reference_on_every_composition_up_to_n5(q):
    for n in range(1, 6):
        for m in compositions(n):
            assert _walk(_word_rates(q, m)) == reference_word_formula(_word_rates(q, m)), m


@pytest.mark.parametrize("q", (F(1), F(2), F(-3, 7)), ids=str)
@pytest.mark.parametrize("m", [(1, 1, 1, 1), (1, 1, 1, 1, 1), (2, 1, 2), (1, 2, 1)], ids=str)
def test_walk_matches_reference_with_zero_rates(m, q):
    # Zero rates make numerators vanish; at q = 1 a prefix holding every
    # positive rate also makes a later denominator vanish.
    for mask in itertools.product((0, 1), repeat=len(m)):
        if not any(mask):
            continue
        xbar = tuple(F(b * (j + 2), 2 * j + 7) for j, b in enumerate(mask))
        walked = _outcome(_walk, WordRates(q, xbar, m))
        assert walked == _outcome(reference_word_formula, WordRates(q, xbar, m)), mask


def test_zero_denominator_below_a_zero_numerator_is_reported():
    # c_1 = 0 zeroes every numerator factor below the prefix 1; the prefix
    # 1 2 3 holds all the weight, so the k=4 denominator vanishes at 12345.
    rates = PermRates(1, (F(0), F(1, 2), F(1, 2), F(0), F(0)))
    message = "word formula denominator factor k=4 vanishes at state 12345"
    assert _outcome(reference_word_formula, rates) == message
    with pytest.raises(ValueError, match=f"^{message}$"):
        stationary_perm_formula(rates)


def _path_rates(n, p):
    return PermRates(p, tuple(F(2 * i, n * (n + 1)) for i in range(1, n + 1)))


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_path_method_matches_reference_on_every_flag(n, p):
    for rates in (_path_rates(n, p), generic_perm_rates(n, seed=n + p, q=p)):
        for flag in enumerate_flags(n, p):
            assert rcayley_stationary(rates, p, flag) == reference_path_value(rates, p, flag), flag


def test_path_method_matches_reference_on_a_sample_of_n4_p3():
    rates = generic_perm_rates(4, seed=7, q=3)
    flags = enumerate_flags(4, 3)
    for flag in flags[::13]:
        assert rcayley_stationary(rates, 3, flag) == reference_path_value(rates, 3, flag), flag


def test_path_method_stabilizer_reaching_one():
    # y = (0, 1): the line e_2 carries all the weight, so the flag whose
    # first subspace is e_2 stabilizes weight 1 after one step.
    rates = PermRates(2, (F(0), F(1)))
    for flag in enumerate_flags(2, 2):
        expected = _outcome(reference_path_value, rates, 2, flag)
        assert _outcome(rcayley_stationary, rates, 2, flag) == expected, flag
    flag = next(f for f in enumerate_flags(2, 2) if f.cols[0] == (0, 1))
    with pytest.raises(ValueError, match="^stabilizer weight of prefix 1 reaches 1"):
        rcayley_stationary(rates, 2, flag)


def test_path_method_requires_rates_summing_to_one():
    with pytest.raises(ValueError, match="rates summing to 1"):
        rcayley_stationary(PermRates(2, (F(1, 2), F(1, 3))), 2, enumerate_flags(2, 2)[0])


def test_normalized_values_at_total_one_and_otherwise():
    states = ("a", "b", "c")
    unit = StationaryVector(states, (F(1, 6), F(1, 3), F(1, 2)))
    assert unit.normalized() is unit
    tripled = StationaryVector(states, tuple(3 * v for v in unit.values))
    assert tripled.normalized().values == unit.values
    negative = StationaryVector(states, tuple(-v for v in unit.values))
    assert negative.normalized().values == unit.values
    with pytest.raises(ValueError, match="sums to zero"):
        StationaryVector(states, (F(1), F(-1), F(0))).normalized()
