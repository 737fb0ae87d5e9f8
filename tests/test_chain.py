"""`Chain`, the one handle on a chain that the CLI and the suites use.

`Chain.size()` is the closed-form state count; it must equal the number of
states each space enumerates.  Routing the suites through `Chain` must not
move a single sampled rate: tests/golden/suite_rates_n4_p23.json holds, for
each suite at n_max=4, p_list=(2, 3), seed=0, every (builder, rates, p) at
which the suite built a transition matrix, closed form or eigenvalue
catalog, recorded before `Chain` existed.

To re-record after an intended change of the suites' rates:

    PYTHONPATH=src python tests/test_chain.py
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qtsetlin import flags, hecke_chains, spectra, stationary, suites
from qtsetlin.combinatorics import perm_states, word_states
from qtsetlin.flags import enumerate_flags
from qtsetlin.hecke_chains import PermRates, WordRates
from qtsetlin.suites import Chain, compositions

REFERENCE = Path(__file__).resolve().parent / "golden" / "suite_rates_n4_p23.json"

# Each builder `Chain` calls, with the module `Chain` reads it from.
BUILDERS = {
    "transition_matrix_perm": hecke_chains,
    "transition_matrix_word": hecke_chains,
    "transition_matrix_flags": flags,
    "stationary_perm_formula": stationary,
    "stationary_word_formula": stationary,
    "stationary_flags_formula": stationary,
    "eigen_catalog_perm": spectra,
    "eigen_catalog_word": spectra,
    "eigen_catalog_flags": spectra,
}
CHAIN_CODE = {f.__code__ for f in vars(Chain).values() if hasattr(f, "__code__")}


def record_rates(monkeypatch, suite):
    """Every (builder, rates, p) at which `suite` builds an operator, closed
    form or catalog through `Chain`, as sorted strings.  `Chain` reads each
    builder off its home module, where it is patched; calls from elsewhere
    (a perm builder calling its word version, `check_commuting`) are not
    recorded."""
    # The helpers of `run_suite` would build in processes whose calls this
    # recorder cannot see: one core keeps every build in this process.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    seen = set()
    for name, home in BUILDERS.items():
        original = getattr(home, name)

        def recording(rates, p=None, _name=name, _original=original):
            if sys._getframe(1).f_code in CHAIN_CODE:
                xbar = ",".join(str(x) for x in rates.xbar)
                m = ",".join(str(v) for v in rates.m)
                seen.add(f"{_name} q={rates.q} xbar={xbar} m={m} p={p}")
            return _original(rates) if p is None else _original(rates, p)

        monkeypatch.setattr(home, name, recording)
    checks = suites.run_suite(suite, n_max=4, p_list=(2, 3), seed=0)
    assert all(ok for _, ok in checks)
    return sorted(seen)


@pytest.mark.parametrize("suite", [s for s in suites.SUITES if s != "all"])
def test_suites_build_at_the_recorded_rates(suite, monkeypatch):
    reference = json.loads(REFERENCE.read_text())[suite]
    assert record_rates(monkeypatch, suite) == reference


@pytest.mark.parametrize("suite", suites.SUITES)
@pytest.mark.parametrize("n_max", [1, 0, -3])
def test_run_suite_refuses_n_max_below_2(suite, n_max):
    with pytest.raises(ValueError, match="n_max must be at least 2"):
        suites.run_suite(suite, n_max=n_max)


def uniform(n, q):
    return PermRates(Fraction(q), (Fraction(1, n),) * n)


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_size_is_the_state_count(n):
    assert Chain("perm", uniform(n, 2)).size() == len(perm_states(n))


@pytest.mark.parametrize("m", [m for n in range(1, 7) for m in compositions(n)], ids=str)
def test_word_size_is_the_state_count(m):
    chain = Chain("word", WordRates(Fraction(3), (Fraction(1, len(m)),) * len(m), m))
    assert chain.size() == len(word_states(m))


@pytest.mark.parametrize("n, p", [(n, p) for p in (2, 3, 5) for n in (1, 2, 3)] + [(4, 2)])
def test_flag_size_is_the_state_count(n, p):
    assert Chain("flag", uniform(n, p), p).size() == len(enumerate_flags(n, p))


@pytest.mark.parametrize(
    "chain, name",
    [
        (Chain("perm", uniform(3, 2)), "perm n=3"),
        (Chain("word", WordRates(Fraction(2), (Fraction(1, 2),) * 2, (1, 2))), "word m=(1, 2)"),
        (Chain("flag", uniform(3, 2), 2), "flag n=3 p=2"),
    ],
)
def test_name_is_the_check_prefix(chain, name):
    assert chain.name == name


if __name__ == "__main__":
    table = {}
    for suite in suites.SUITES:
        if suite != "all":
            with pytest.MonkeyPatch.context() as patch:
                table[suite] = record_rates(patch, suite)
    REFERENCE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {sum(map(len, table.values()))} records to {REFERENCE.name}")
