"""Each formula has one evaluator.

The upper-set eigenvalues are read through `kappa_word`
(lambda_a = q^(|a| - n) kappa(b_a)), the fiber factor through `q_factorial`,
the blockwise inversions through `inv`, and the word rates of a lumping from
`block_sets`.  The loops these replaced are kept here as references, and
must give the same values on every composition with n <= 6.
"""

import random
from fractions import Fraction as F

import pytest

from qtsetlin import hecke_chains, stationary
from qtsetlin.combinatorics import block_sets, enumerate_upper_sets, q_factorial, q_int
from qtsetlin.hecke_chains import WordRates
from qtsetlin.lumping import (
    inv_blockwise,
    is_m_compatible,
    map_rates_perm_to_word,
    map_rates_word_to_perm,
    young_subgroup,
)
from qtsetlin.stationary import _fiber_factor
from qtsetlin.suites import compositions

QS = [F(2), F(1), F(-3, 7), F(1, 2), F(5, 2)]
CONTENTS = [m for n in range(1, 7) for m in compositions(n)]


def word_rates(m, q):
    """Random positive letter rates at content m, or None where [m_j]_q = 0."""
    rng = random.Random(f"{m}:{q}")
    try:
        return WordRates(q, [F(rng.randint(1, 40), rng.randint(41, 97)) for _ in m], m)
    except ValueError:
        return None


def former_upper_set_values(rates):
    """The integer Horner loop `WordRates.upper_set_values` ran on its own:
    sum_{t < |a|} ybar_{j(t)} q^t over D qd^(n-1)."""
    d, ints = rates.ybar_ints
    qn, qd = rates.q.numerator, rates.q.denominator
    top = max(rates.n - 1, 0)
    powers = [qn**t * qd ** (top - t) for t in range(rates.n)]
    den = d * qd**top
    out = {}
    for a in enumerate_upper_sets(rates.m):
        num, t = 0, 0
        for j in range(len(a) - 1, -1, -1):
            for _ in range(a[j]):
                num += ints[j] * powers[t]
                t += 1
        out[a] = F(num, den)
    return out


def former_fiber_factor(m, q):
    out = F(1)
    for part in m:
        out *= q ** (-(part * (part - 1) // 2)) * q_factorial(part, q)
    return out


def former_inv_blockwise(tau, m):
    total = 0
    for block in block_sets(m):
        images = [tau[v] for v in block]
        total += sum(1 for i in range(len(images)) for j in range(i + 1, len(images)) if images[i] > images[j])
    return total


def former_word_rates(rates, m):
    """`map_rates_perm_to_word` with its running n_j."""
    xbar = []
    n_j = 0
    for part in m:
        n_j += part
        xbar.append(q_int(part, rates.q) * rates.x[n_j - 1])
    return WordRates(rates.q, tuple(xbar), tuple(m))


def test_kappa_word_has_one_home():
    assert stationary.kappa_word is hecke_chains.kappa_word
    assert "kappa_word" in stationary.__all__


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_upper_set_values_equal_the_former_integer_loop(m, q):
    rates = word_rates(m, q)
    if rates is None:
        return
    values = rates.upper_set_values
    assert list(values) == enumerate_upper_sets(m)
    assert dict(values) == former_upper_set_values(rates)


def test_upper_set_values_read_kappa_word_once_per_upper_set(monkeypatch):
    calls = []
    kappa_word = hecke_chains.kappa_word

    def counted(b, rates):
        calls.append(b)
        return kappa_word(b, rates)

    monkeypatch.setattr(hecke_chains, "kappa_word", counted)
    m = (2, 1, 3)
    rates = WordRates(F(5, 2), (F(1, 3), F(1, 4), F(5, 12)), m)
    values = rates.upper_set_values
    assert len(calls) == len(values) == len(enumerate_upper_sets(m))
    assert sorted(calls) == sorted(tuple(j for j, c in enumerate(a, 1) for _ in range(c)) for a in values)


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_fiber_factor_equals_the_former_loop_and_the_young_subgroup_sum(m, q):
    young_sum = sum((q ** -inv_blockwise(tau, m) for tau in young_subgroup(m)), F(0))
    assert _fiber_factor(m, q) == former_fiber_factor(m, q) == young_sum
    assert type(_fiber_factor(m, q)) is F


@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_inv_blockwise_equals_the_former_pairwise_loop(m):
    for tau in young_subgroup(m):
        assert inv_blockwise(tau, m) == former_inv_blockwise(tau, m)


@pytest.mark.parametrize("q", QS, ids=str)
@pytest.mark.parametrize("m", CONTENTS, ids=str)
def test_word_rates_from_block_sets_equal_the_running_n_j(m, q):
    rates = word_rates(m, q)
    if rates is None:
        return
    perm_rates = map_rates_word_to_perm(rates)
    assert is_m_compatible(perm_rates, m)
    assert map_rates_perm_to_word(perm_rates, m) == former_word_rates(perm_rates, m) == rates
