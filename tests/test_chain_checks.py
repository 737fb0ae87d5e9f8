"""The checks that the CLI and the suites share, defined once on `Chain`.

`Chain.stationary(method)` must give the vector each method gave when the
CLI computed it from the builders directly, and `Chain.diagrams()` the
verdict `check_commuting` gives for each of the chain's two diagrams, true
or planted false.  `check_commuting` keeps the last two matrices it built,
keyed by builder and arguments, so `lump-check` builds each of its two
matrices once.
"""

from fractions import Fraction as F

import pytest

from qtsetlin import flags, lumping, spectra
from qtsetlin.cli import main
from qtsetlin.combinatorics import perm_states, state_key, state_names, word_states
from qtsetlin.exact import Matrix
from qtsetlin.flags import _flag_states, enumerate_flags, rcayley_stationary, transition_matrix_flags
from qtsetlin.hecke_chains import (
    Chain,
    generic_perm_rates,
    generic_word_rates,
    transition_matrix_perm,
    transition_matrix_word,
)
from qtsetlin.lumping import DIAGRAMS, check_commuting, map_rates_word_to_perm
from qtsetlin.stationary import (
    StationaryVector,
    stationary_flags_formula,
    stationary_oracle,
    stationary_perm_formula,
    stationary_word_formula,
)
from qtsetlin.suites import compositions

QS = (F(2), F(1, 2), F(-3, 7))
PERM_WORD_CHAINS = [Chain("perm", generic_perm_rates(n, seed=n, q=q)) for q in QS for n in (1, 2, 3)] + [
    Chain("word", generic_word_rates(m, seed=n, q=q))
    for q in QS
    for n in (1, 2, 3)
    for m in compositions(n)
    if len(m) < n
]
FLAG_CHAINS = [Chain("flag", generic_perm_rates(n, seed=n, q=p), p) for p in (2, 3) for n in (1, 2, 3)]


def direct(chain, method):
    """The vector the CLI computed from the builders before `Chain.stationary`."""
    rates = chain.rates
    if chain.space == "flag":
        formula = stationary_flags_formula(rates, chain.p)
        op = transition_matrix_flags(rates, chain.p)
    elif chain.space == "perm":
        formula = stationary_perm_formula(rates)
        op = transition_matrix_perm(rates)
    else:
        formula = stationary_word_formula(rates)
        op = transition_matrix_word(rates)
    if method == "formula":
        return formula.normalized()
    if method == "oracle":
        return stationary_oracle(op, rates.total())
    states = _flag_states(rates.n, chain.p)
    return StationaryVector(states, tuple(rcayley_stationary(rates, chain.p, f) for f in states))


@pytest.mark.parametrize("chain", PERM_WORD_CHAINS + FLAG_CHAINS, ids=lambda c: f"{c.name} q={c.rates.q}")
def test_stationary_equals_the_direct_path(chain):
    methods = ("formula", "oracle", "semigroup") if chain.space == "flag" else ("formula", "oracle")
    for method in methods:
        assert chain.stationary(method) == direct(chain, method)
    assert chain.stationary("oracle", chain.operator()) == direct(chain, "oracle")
    if chain.space != "flag":
        with pytest.raises(ValueError, match="no stationary method 'semigroup'"):
            chain.stationary("semigroup")


def expected_diagrams(chain):
    if chain.space == "flag":
        return {d: check_commuting(d, chain.rates, p=chain.p) for d in DIAGRAMS[:2]}
    rates = map_rates_word_to_perm(chain.rates)
    return {d: check_commuting(d, rates, m=chain.rates.m) for d in DIAGRAMS[2:]}


@pytest.mark.parametrize("chain", PERM_WORD_CHAINS + FLAG_CHAINS, ids=lambda c: f"{c.name} q={c.rates.q}")
def test_diagrams_equal_check_commuting(chain):
    got = chain.diagrams()
    assert got == expected_diagrams(chain)
    assert list(got) == list(DIAGRAMS[:2] if chain.space == "flag" else DIAGRAMS[2:])
    assert all(got.values())


@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize(
    "chain, coarse",
    [
        (Chain("flag", generic_perm_rates(3, seed=2, q=3), 3), "transition_matrix_perm"),
        (Chain("word", generic_word_rates((2, 1, 1), seed=2, q=F(2))), "transition_matrix_word"),
    ],
    ids=["flag", "word"],
)
def test_planted_wrong_coarse_matrix_fails_both_diagrams(chain, coarse, row, monkeypatch):
    """Built once with the real builder, then with one entry of one coarse
    row moved by 1/7 (the row sum kept): the memo is keyed by builder, so
    the planted matrix is the one compared."""
    assert all(chain.diagrams().values())
    build = getattr(lumping, coarse)

    def planted(*args):
        op = build(*args)
        rows = op.matrix.data
        rows[row][0] += F(1, 7)
        rows[row][1] -= F(1, 7)
        return op._replace(matrix=Matrix(rows))

    monkeypatch.setattr(lumping, coarse, planted)
    got = chain.diagrams()
    assert got == expected_diagrams(chain)
    assert not any(got.values())


def count_builds(monkeypatch, homes):
    """Count the calls of each (module, builder name), patched in place."""
    calls = {name: 0 for _, name in homes}
    for home, name in homes:
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(home, name, counting)
    return calls


def test_flag_lump_check_builds_each_matrix_once(monkeypatch, capsys):
    calls = count_builds(monkeypatch, [(flags, "transition_matrix_flags"), (lumping, "transition_matrix_perm")])
    assert main(["lump-check", "--n", "4", "--p", "2"]) == 0
    assert '"flags-perms-incl": true' in capsys.readouterr().out
    assert calls == {"transition_matrix_flags": 1, "transition_matrix_perm": 1}


def test_word_lump_check_builds_each_matrix_once(monkeypatch, capsys):
    calls = count_builds(monkeypatch, [(lumping, "transition_matrix_perm"), (lumping, "transition_matrix_word")])
    assert main(["lump-check", "--m", "3,2,2", "--q", "2"]) == 0
    assert '"perms-words-incl": true' in capsys.readouterr().out
    assert calls == {"transition_matrix_perm": 1, "transition_matrix_word": 1}


def test_report_ends_with_the_annihilation_verdict():
    chain = Chain("perm", generic_perm_rates(3, seed=1, q=2))
    report = spectra.verify_multiplicities(chain.operator(), chain.catalog())
    payload = report.as_json()
    assert list(payload)[-2:] == ["all_pass", "annihilation"]
    assert payload["all_pass"] is payload["annihilation"] is True
    assert not report._replace(annihilates=False).all_pass


@pytest.mark.parametrize(
    "states",
    [perm_states(3), word_states((2, 1)), enumerate_flags(2, 3), [(1, 10), (10, 1)], [(3, 1), (12, 1)], []],
    ids=["perm", "word", "flag", "letters above 9", "mixed", "empty"],
)
def test_state_names_are_the_state_keys(states):
    assert list(state_names(states)) == [state_key(s) for s in states]
