"""The closed forms on integers, from the prefix walk to the printed bytes.

`StationaryVector.total` adds (numerator, denominator) int pairs and makes
one Fraction; it must equal the Fraction sum.  `as_dict` picks its state
printer once per vector and prints values with `str`; it must equal the
per-state `state_key`/`format_rational` reference.  The path method checks
its rates and computes its line weights once per (rates, p); a failed check
is never kept.  `kappa_word` runs Horner's rule on integers and must equal
the Fraction form.  The walk must equal the per-word product at the two
word contents the benchmark and the frontier use.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qtsetlin import flags, stationary
from qtsetlin.combinatorics import perm_states, state_key
from qtsetlin.exact import format_rational
from qtsetlin.flags import enumerate_flags, rcayley_stationary
from qtsetlin.hecke_chains import PermRates, WordRates, generic_word_rates
from qtsetlin.stationary import (
    StationaryVector,
    kappa_word,
    stationary_flags_formula,
    stationary_perm_formula,
    stationary_word_formula,
)
from test_prefix_walk import reference_word_formula

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)


def _vector(values):
    return StationaryVector(tuple(range(len(values))), tuple(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(fractions, max_size=70))
def test_total_equals_the_fraction_sum(values):
    total = _vector(values).total()
    assert type(total) is F
    assert total == sum(values, F(0))


@pytest.mark.parametrize(
    "values",
    [
        (),
        (F(3, 7),),
        (F(-3, 7),),
        (F(1, 2), F(-1, 2)),
        (F(-5, 6), F(-1, 3), F(-1, 9)),
        (F(1, 6), F(1, 3), F(1, 2)),
        (F(4), F(-9), F(2)),
        (F(7, 3),) * 9,
    ],
    ids=str,
)
def test_total_on_edge_cases(values):
    total = _vector(values).total()
    assert type(total) is F
    assert total == sum(values, F(0))


def test_total_of_the_perm_n6_closed_form_is_one():
    rates = PermRates(2, tuple(F(i, 21) for i in range(1, 7)))
    psi = stationary_perm_formula(rates)
    assert psi.total() == 1 == sum(psi.values, F(0))


def reference_dict(vec):
    return {state_key(s): format_rational(v) for s, v in zip(vec.states, vec.values)}


def _assert_prints_as_reference(vec):
    out = vec.as_dict()
    assert out == reference_dict(vec)
    assert list(out) == list(reference_dict(vec))


@pytest.mark.parametrize("n", range(1, 6))
def test_as_dict_on_perms(n):
    rates = PermRates(F(5, 2), tuple(F(i, n * (n + 1) // 2) for i in range(1, n + 1)))
    _assert_prints_as_reference(stationary_perm_formula(rates))


def test_as_dict_on_a_word():
    _assert_prints_as_reference(stationary_word_formula(generic_word_rates((1, 2, 2), seed=3)))


@pytest.mark.parametrize("big", [10, 12])
def test_as_dict_with_letters_above_nine(big):
    # Every state has a letter above 9, as every word of a content with ten
    # or more parts does: all print with commas.
    states = tuple((big, *p) for p in perm_states(3)) + tuple((*p, big) for p in perm_states(3))
    vec = StationaryVector(states, tuple(F(i + 1, 13) for i in range(len(states))))
    _assert_prints_as_reference(vec)
    assert vec.as_dict()[f"{big},1,2,3"] == "1/13"
    # A vector mixing both kinds prints each state as state_key does.
    mixed = StationaryVector(((1, 2), (2, 11), (0, 9)), (F(1), F(-2, 3), F(0)))
    _assert_prints_as_reference(mixed)
    assert list(mixed.as_dict()) == ["12", "2,11", "09"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 15), st.integers(-3, 15), st.integers(0, 12)), max_size=12),
    st.data(),
)
def test_as_dict_equals_the_reference_on_any_int_states(states, data):
    values = data.draw(st.lists(fractions, min_size=len(states), max_size=len(states)))
    _assert_prints_as_reference(StationaryVector(tuple(states), tuple(values)))


def test_as_dict_with_integral_values():
    vec = StationaryVector(((1, 2), (2, 1), (1, 1)), (F(3), F(-2), F(0)))
    _assert_prints_as_reference(vec)
    assert vec.as_dict() == {"12": "3", "21": "-2", "11": "0"}


@pytest.mark.parametrize("p", [2, 3, 11, 13])
def test_as_dict_on_flags(p):
    rates = PermRates(p, (F(1, 3), F(2, 3)))
    vec = stationary_flags_formula(rates, p)
    _assert_prints_as_reference(vec)
    assert all(("," in key) == (p > 9) for key in vec.as_dict())


def _counted_is_prime(monkeypatch):
    calls = []
    real = flags.is_prime

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(flags, "is_prime", counted)
    return calls


def test_path_setup_runs_once_per_rates_and_p(monkeypatch):
    calls = _counted_is_prime(monkeypatch)
    x = (F(1, 6), F(1, 3), F(1, 2))
    space = enumerate_flags(3, 2)
    # The lines of the space are enumerated, and p checked, once per (n, p).
    rcayley_stationary(PermRates(2, x), 2, space[0])
    calls.clear()
    rates = PermRates(2, x)
    first = [rcayley_stationary(rates, 2, f) for f in space]
    assert calls == [2]
    assert [rcayley_stationary(rates, 2, f) for f in space] == first
    assert calls == [2]
    # Equal rates in a new object have a memo of their own.
    again = PermRates(2, x)
    assert [rcayley_stationary(again, 2, f) for f in space] == first
    assert calls == [2, 2]


def test_refused_path_setup_is_never_kept(monkeypatch):
    flag = enumerate_flags(2, 2)[0]
    rcayley_stationary(PermRates(2, (F(1, 2), F(1, 2))), 2, flag)
    calls = _counted_is_prime(monkeypatch)
    short = PermRates(2, (F(1, 2), F(1, 3)))
    for _ in range(3):
        with pytest.raises(ValueError, match="rates summing to 1"):
            rcayley_stationary(short, 2, flag)
    assert len(calls) == 3
    assert ("path", 2) not in short._factor_memo
    composite = PermRates(4, (F(1, 2), F(1, 2)))
    for _ in range(2):
        with pytest.raises(ValueError, match="field size 4 is not prime"):
            rcayley_stationary(composite, 4, flag)
    assert calls[3:] == [4, 4]
    assert composite._factor_memo == {}
    other_q = PermRates(3, (F(1, 2), F(1, 2)))
    for _ in range(2):
        with pytest.raises(ValueError, match="q equal to the field size"):
            rcayley_stationary(other_q, 2, flag)
    assert other_q._factor_memo == {}


def reference_kappa(b, rates):
    """Horner's rule in 1/q on Fractions."""
    c = rates.kappa_coeffs
    total = F(0)
    for v in sorted(b, reverse=True):
        total = (total + c[v - 1]) / rates.q
    return total


@settings(max_examples=80, deadline=None)
@given(
    m=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    xbar=st.lists(st.fractions(min_value=-3, max_value=5, max_denominator=90), min_size=4, max_size=4),
    q=st.sampled_from((F(2), F(1), F(5, 2), F(-3, 7), F(1, 3), F(-2))),
    data=st.data(),
)
def test_integer_kappa_equals_the_fraction_horner_rule(m, xbar, q, data):
    rates = WordRates(q, xbar[: len(m)], m)
    letters = [j for j, part in enumerate(m, start=1) for _ in range(part)]
    b = data.draw(st.lists(st.sampled_from(letters), max_size=len(letters)))
    assert kappa_word(b, rates) == reference_kappa(b, rates)


@pytest.mark.parametrize("m", [(1,) * 6, (2, 1, 2, 1)], ids=str)
def test_walk_evaluates_factors_only_on_memo_misses(m, monkeypatch):
    # The walk's integer content codes must find every factor that
    # `_position_factors` stored, so it is called at most once per entry.
    calls = 0
    real = stationary._position_factors

    def counted(word, k, rates):
        nonlocal calls
        calls += 1
        return real(word, k, rates)

    monkeypatch.setattr(stationary, "_position_factors", counted)
    rates = WordRates(F(5, 2), tuple(F(j + 1, 2 * j + 5) for j in range(len(m))), m)
    stationary_word_formula(rates)
    memo = rates._factor_memo
    assert 0 < calls <= len(memo["num"]) + len(memo["den"])


@pytest.mark.parametrize(
    "m, q, xbar",
    [
        ((1, 2, 2, 2), F(3), (F(712, 2655), F(548, 2655), F(967, 2655), F(428, 2655))),
        ((1, 2, 2, 2), F(3), None),
        ((3, 2, 2), F(5, 2), (F(1, 5), F(1, 2), F(3, 10))),
        ((3, 2, 2), F(5, 2), None),
    ],
)
def test_walk_equals_the_per_word_product(m, q, xbar):
    def rates():
        if xbar is None:
            sampled = generic_word_rates(m, seed=5, q=q)
            return WordRates(sampled.q, sampled.xbar, m)
        return WordRates(q, xbar, m)

    walked = stationary_word_formula(rates())
    assert (walked.states, walked.values) == reference_word_formula(rates())
    assert walked.total() == 1
