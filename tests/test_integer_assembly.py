"""Chain matrices assembled on integers, and `matrix` printed from the integer rows.

The builders run Horner's rule and line insertion on ints over one common
denominator per operator, and `state_matrix` stores the surviving sums as
they are, over that denominator with the common factor divided out.
The references below are the former versions: Horner's rule on Fractions,
w <- s + w . T_i with the Fraction action of T_i, every entry then scaled by
its Fraction weight; line insertion adding Fraction line weights; and the
`matrix` command printing `json.dumps(..., indent=2)` of the dense entries.
Each must agree with its reference entry for entry and byte for byte.
"""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest

from qtsetlin import flags
from qtsetlin.cli import main
from qtsetlin.combinatorics import state_key, word_states
from qtsetlin.exact import format_rational, state_matrix
from qtsetlin.flags import (
    _act_coset,
    _flag_weight,
    enumerate_flags,
    enumerate_lines,
    insert_line,
    transition_matrix_flags,
    transition_matrix_flags_hecke,
)
from qtsetlin.hecke_chains import PermRates, WordRates, transition_matrix_word
from qtsetlin.stationary import stationary_flags_formula, stationary_word_formula

QS = [F(2), F(5, 2), F(-3, 7), F(1, 3), F(1)]


def compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def rates_for(m, q):
    """Letter rates with unlike denominators, so the weights' lcm is not 1."""
    return WordRates(q, [F(j + 2, 3 * j + 5) for j in range(len(m))], m)


def flag_rates(n, p):
    return PermRates(p, [F(j + 1, 2 * j + 7) for j in range(n)])


def reference_act(s, i, q):
    out = list(s)
    out[i - 1], out[i] = out[i], out[i - 1]
    swapped = tuple(out)
    if s[i] <= s[i - 1]:
        return ((swapped, q),)
    return ((swapped, F(1)), (s, q - 1))


def reference_shuffle_rows(states, act, n, weight):
    """Sparse rows {column: Fraction} of sum_i T_{i-1} ... T_1 X by Horner's
    rule on Fractions."""
    index = {s: c for c, s in enumerate(states)}
    rows = []
    for s in states:
        w = {s: F(1)}
        for i in range(n - 1, 0, -1):
            nxt = {s: F(1)}
            for u, a in w.items():
                for t, c in act(u, i):
                    nxt[t] = nxt.get(t, 0) + a * c
            w = nxt
        row = {index[t]: a * weight(t) for t, a in w.items()}
        rows.append({c: x for c, x in row.items() if x})
    return rows


def reference_line_insertion_rows(states, rates, p):
    index = {s: c for c, s in enumerate(states)}
    lines = enumerate_lines(rates.n, p)
    rows = []
    for f in states:
        row = {}
        for line in lines:
            c = index[insert_line(f, line)]
            row[c] = row.get(c, F(0)) + rates.y(line.lead)
        rows.append({c: x for c, x in row.items() if x})
    return rows


def assert_rows(matrix, expected):
    """The stored entries of `matrix`, as Fractions, are the sparse rows
    `expected`, and every stored entry is an int."""
    d = matrix.denominator
    assert [{c: F(x, d) for c, x in row.items()} for row in matrix.int_rows] == expected
    assert all(type(x) is int for row in matrix.int_rows for x in row.values())


WORD_CASES = [(m, q) for n in range(1, 6) for m in compositions(n) for q in QS]


@pytest.mark.parametrize("m,q", WORD_CASES, ids=[f"{m}-{q}" for m, q in WORD_CASES])
def test_word_chain_matches_fraction_horner(m, q):
    rates = rates_for(m, q)
    states = tuple(word_states(m))
    ybar = [rates.ybar(j) for j in range(1, rates.letters + 1)]
    expected = reference_shuffle_rows(
        states, lambda u, i: reference_act(u, i, rates.q), rates.n, lambda t: ybar[t[0] - 1]
    )
    assert_rows(transition_matrix_word(rates).matrix, expected)


FLAG_CASES = [(n, p) for n in (1, 2, 3) for p in (2, 3)] + [(4, 2)]


@pytest.mark.parametrize("n,p", FLAG_CASES)
def test_flag_chains_match_fraction_assembly(n, p):
    rates = flag_rates(n, p)
    states = tuple(enumerate_flags(n, p))
    line_insertion = transition_matrix_flags(rates, p).matrix
    assert_rows(line_insertion, reference_line_insertion_rows(states, rates, p))
    hecke = reference_shuffle_rows(states, _act_coset, n, _flag_weight(rates))
    assert_rows(transition_matrix_flags_hecke(rates, p).matrix, hecke)


def test_flag_insertion_table_is_built_once_per_space(monkeypatch):
    """The target of each (flag, line) insertion does not depend on the
    rates, so a second set of rates reuses the table: the first build walks
    the prefix tree once, the second not at all, and the matrix still
    matches the reference."""
    calls = []
    original = flags._insertion_targets

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(flags, "_insertion_targets", counting)
    flags._insertion_table.cache_clear()
    n, p = 3, 3
    transition_matrix_flags(flag_rates(n, p), p)
    assert len(calls) == 1
    other = PermRates(p, [F(5, 11), F(1, 4), F(2, 9)])
    states = tuple(enumerate_flags(n, p))
    del calls[:]
    assert_rows(transition_matrix_flags(other, p).matrix, reference_line_insertion_rows(states, other, p))
    assert not calls


def test_state_matrix_adds_ints_and_divides_once():
    entries = {"s": (("t", 3), ("u", 2), ("t", -3), ("u", 4)), "t": (("s", 6),), "u": ()}
    m = state_matrix("stu", "stu", lambda s: entries[s], 4)
    assert (m.denominator, m.int_rows) == (2, [{2: 3}, {0: 3}, {}])
    mixed = state_matrix("s", "st", lambda s: (("t", 1), ("t", F(1, 3)), ("s", F(5, 7))), 2)
    assert (mixed.denominator, mixed.int_rows) == (42, [{1: 28, 0: 15}])
    assert mixed.data == [[F(5, 14), F(2, 3)]]


def test_left_eigenvector_check_on_integers():
    for rates in (rates_for((2, 1, 2), F(-3, 7)), rates_for((1, 1, 1, 1), F(5, 2))):
        op = transition_matrix_word(rates)
        psi = stationary_word_formula(rates).normalized()
        assert psi.is_left_eigenvector(op, rates.total())
        assert not psi.is_left_eigenvector(op, rates.total() + F(1, 10**6))
        bumped = type(psi)(psi.states, (psi.values[0] * (1 + F(1, 10**9)),) + psi.values[1:])
        assert not bumped.is_left_eigenvector(op, rates.total())
    rates = flag_rates(3, 3)
    psi = stationary_flags_formula(rates, 3).normalized()
    assert psi.is_left_eigenvector(transition_matrix_flags(rates, 3), rates.total())


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def reference_matrix_text(op, fmt):
    states = [state_key(s) for s in op.states]
    entries = [[format_rational(v) for v in row] for row in op.matrix.data]
    if fmt == "json":
        return json.dumps({"states": states, "entries": entries}, indent=2) + "\n"
    lines = ["state," + ",".join(states)]
    lines += [s + "," + ",".join(row) for s, row in zip(states, entries)]
    return "\n".join(lines) + "\n"


MATRIX_CASES = [
    (
        "--space perm --n 4 --q 5/2 --rates 1/2,1/3,1/12,1/12",
        WordRates(F(5, 2), [F(1, 2), F(1, 3), F(1, 12), F(1, 12)], (1,) * 4),
    ),
    (
        "--space word --m 2,1,2 --q=-3/7 --rates 1/5,1/3,7/15",
        WordRates(F(-3, 7), [F(1, 5), F(1, 3), F(7, 15)], (2, 1, 2)),
    ),
    ("--space flag --n 3 --p 3 --rates 1/2,1/3,1/6", PermRates(3, [F(1, 2), F(1, 3), F(1, 6)])),
    ("--space perm --n 1 --q 2 --rates 1", WordRates(2, [1], (1,))),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,rates", MATRIX_CASES, ids=[argv for argv, _ in MATRIX_CASES])
def test_matrix_text_matches_dense_json(argv, rates, fmt):
    out = run_cli(["matrix", *argv.split(), "--format", fmt])
    op = transition_matrix_flags(rates, 3) if "flag" in argv else transition_matrix_word(rates)
    assert out == reference_matrix_text(op, fmt)
