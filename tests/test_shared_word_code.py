"""The permutation rates, the subset catalog and the poset extensions run on
the word code; each is checked here against an independent reference.

- `linear_extensions` against a brute-force filter of all orderings.
- `PermRates` as the word rates at content (1^n).
- The subset catalog against the paper's subset formula.
"""

import itertools
from fractions import Fraction as F

import pytest

from qtsetlin.combinatorics import block_sets, enumerate_upper_sets, linear_extensions
from qtsetlin.hecke_chains import PermRates, WordRates
from qtsetlin.spectra import eigen_catalog_perm

QS = [F(1), F(2), F(5, 2), F(-3, 7)]


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def brute_force_extensions(m, removed):
    """Orderings of the surviving labels in which every chain rises, sorted by
    the word of chain indices they spell."""
    chains = [block[: len(block) - cut] for block, cut in zip(block_sets(m), removed)]
    chain_of = {v: j for j, chain in enumerate(chains) for v in chain}
    out = []
    for order in itertools.permutations(sorted(chain_of)):
        if all(
            [v for v in order if chain_of[v] == j] == list(chain) for j, chain in enumerate(chains)
        ):
            out.append(order)
    return sorted(out, key=lambda order: [chain_of[v] for v in order])


@pytest.mark.parametrize("n", range(7))
def test_linear_extensions_match_brute_force_in_order(n):
    for m in compositions(n):
        for a in enumerate_upper_sets(m):
            assert linear_extensions(m, a) == brute_force_extensions(m, a), (m, a)


@pytest.mark.parametrize("q", QS, ids=str)
def test_perm_rates_are_word_rates_at_content_ones(q):
    for n in range(1, 6):
        x = tuple(F(i + 2, 3 * i + 1) for i in range(n))
        rates = PermRates(q, x)
        assert isinstance(rates, WordRates)
        assert rates.m == (1,) * n
        assert rates.n == n
        assert rates.x == rates.xbar == x
        for i in range(1, n + 1):
            assert rates.y(i) == rates.ybar(i)
        assert rates != WordRates(q, x, (1,) * n)


def test_perm_rates_reject_q_zero():
    with pytest.raises(ValueError):
        PermRates(0, (F(1, 2), F(1, 2)))


def subset_eigenvalue(subset_desc, rates):
    """The paper's lambda_S = sum_j x_{i_j} / q^(n - i_j - j + 1) for
    S = {i_1 > i_2 > ...}."""
    n = len(rates.x)
    return sum(
        (rates.x[i - 1] / rates.q ** (n - i - j + 1) for j, i in enumerate(subset_desc, start=1)),
        F(0),
    )


@pytest.mark.parametrize("q", QS, ids=str)
def test_perm_catalog_values_follow_subset_formula(q):
    for n in range(1, 6):
        rates = PermRates(q, tuple(F(2 * i + 1, i + 4) for i in range(n)))
        catalog = eigen_catalog_perm(rates)
        assert len(catalog) == 2**n
        for e in catalog:
            assert e.value == subset_eigenvalue(e.label, rates), e.label
