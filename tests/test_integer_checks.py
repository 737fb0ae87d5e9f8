"""verify's property and Hecke-relation checks on ints, against the forms
they replaced, and with planted failures.

The positivity check reads the ints the closed forms multiply (each a
factor times a positive scale), the row-sum check compares sum(D M[r]) with
t D, and the Hecke relations are checked row by row: the quadratic relation
as (A + dI)(bA - adI) = 0 for T = A/d and q = a/b, the commutations and
braids through `exact.products_equal`.  The references are the Fraction
flag factors and the whole-matrix relations of the earlier code.  Each
planted fault must turn its check line to a failure, so no check got
weaker.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qtsetlin import suites
from qtsetlin.exact import Matrix, mat_mul, shift
from qtsetlin.flags import PartialFlag, _flag_states, coset_to_perm, hecke_generator_coset, lrb_product
from qtsetlin.hecke_chains import (
    Chain,
    LinearOperator,
    PermRates,
    generic_perm_rates,
    generic_word_rates,
    hecke_generator_perm,
    hecke_generator_word,
)
from qtsetlin.stationary import _factor_memo, _flag_factor_ints, flag_coset_factors, stationary_flags_formula

# ---------------------------------------------------------------------------
# The flag factors over one integer scale


def reference_flag_coset_factors(perm, rates):
    """The former Fraction evaluation of `flag_coset_factors`."""
    n = len(perm)
    q = rates.q
    total = rates.total()
    if total == 0:
        raise ValueError("flag formula requires a nonzero total rate")
    nums = []
    dens = []
    for k in range(1, n + 1):
        prefix = perm[: k - 1]
        pik = perm[k - 1]

        def b(s):
            return sum(1 for t in prefix if t > s)

        f = F(0)
        for s in perm[:k]:
            if s <= pik:
                term = rates.x[s - 1] / (q ** (n - s - b(s)) * total)
                if s < pik:
                    term *= q - 1
                f += term
        d = total - sum((rates.x[s - 1] / q ** (n - s - b(s)) for s in prefix), F(0))
        nums.append(f)
        dens.append(d)
    return nums, dens


def _unnormalized_rates(n, q):
    return PermRates(q, tuple(F(2 * i + 1, 3 * i + 7) for i in range(n)))


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["sum 1", "sum not 1"])
def test_flag_coset_factors_equal_the_fraction_reference_on_every_perm(n, p, kind):
    rates = generic_perm_rates(n, seed=n, q=p) if kind == "sum 1" else _unnormalized_rates(n, p)
    assert (rates.total() == 1) == (kind == "sum 1")
    for perm in itertools.permutations(range(1, n + 1)):
        assert flag_coset_factors(perm, rates) == reference_flag_coset_factors(perm, rates), perm


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.permutations(range(1, n + 1)),
            st.lists(st.fractions(-5, 20, max_denominator=40), min_size=n, max_size=n),
        )
    ),
    st.sampled_from([F(2), F(5, 2), F(-3, 7), F(1, 3)]),
)
def test_flag_coset_factors_equal_the_reference_at_any_rates_and_q(case, q):
    perm, x = case
    rates = PermRates(q, tuple(x))
    if rates.total() == 0:
        with pytest.raises(ValueError, match="nonzero total rate"):
            flag_coset_factors(tuple(perm), rates)
        return
    nums, dens = reference_flag_coset_factors(tuple(perm), rates)
    assert flag_coset_factors(tuple(perm), rates) == (nums, dens)
    # The positivity check reads the ints, so their signs are the factors'.
    scale, int_nums, int_dens = _flag_factor_ints(tuple(perm), rates)
    assert scale > 0 and [F(f, scale) for f in int_nums + int_dens] == nums + dens


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (3, 5)])
def test_flag_formula_is_the_product_of_the_reference_factors(n, p):
    for rates in (generic_perm_rates(n, seed=7, q=p), _unnormalized_rates(n, p)):
        psi = stationary_flags_formula(rates, p)
        assert psi.states == _flag_states(n, p)
        for f, value in zip(psi.states, psi.values):
            nums, dens = reference_flag_coset_factors(coset_to_perm(f), rates)
            want = F(1)
            for a, b in zip(nums, dens):
                want *= a / b
            assert value == want, f


@pytest.mark.parametrize(
    "x, p, message",
    [
        ((0, 1), 2, "flag formula denominator factor k=2 vanishes at state 21"),
        ((0, 0, 1), 3, "flag formula denominator factor k=3 vanishes at state 132"),
        ((F(1, 2), F(-1, 2)), 2, "flag formula requires a nonzero total rate"),
    ],
)
def test_flag_formula_names_the_vanishing_factor(x, p, message):
    with pytest.raises(ValueError) as err:
        stationary_flags_formula(PermRates(p, x), p)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Planted faults in the properties suite (n_max = 3, p = 2, seed 0)

POSITIVE = "every stationary factor is positive"
ROW_SUMS = "row sums equal the total rate"
PARTIAL_FLAGS = "partial flags: idempotent and aba = ab"


def _line(prefix):
    """The verdict of the properties line that starts with prefix."""
    return next(ok for name, ok in suites._properties_checks(3, (2,), 0) if name.startswith(prefix))


def _suite_rates():
    """Rates objects the positivity check reads: sampled rates are memoized,
    so these are the suite's own."""
    return {
        "perm": generic_perm_rates(3, seed=3),
        "word": generic_word_rates((2, 1), seed=0),
        "flag": generic_perm_rates(2, seed=2, q=2),
    }


def test_every_properties_line_passes_unplanted():
    assert all(ok for _, ok in suites._properties_checks(3, (2,), 0))


@pytest.mark.parametrize("space", ["perm", "word"])
@pytest.mark.parametrize("table", ["num", "den"])
@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("which", [0, -1])
def test_a_planted_word_factor_fails_positivity(space, table, value, which):
    rates = _suite_rates()[space]
    assert _line(POSITIVE)
    memo = _factor_memo(rates)
    try:
        memo[table][list(memo[table])[which]] = value
        assert not _line(POSITIVE)
    finally:
        rates._factor_memo.clear()
    assert _line(POSITIVE)


@pytest.mark.parametrize("pair", [(0, 1), (-3, 2)])
def test_a_planted_prefactor_fails_positivity(pair):
    rates = _suite_rates()["perm"]
    assert _line(POSITIVE)
    memo = _factor_memo(rates)
    try:
        memo["pre"][len(memo["pre"]) - 1] = pair
        assert not _line(POSITIVE)
    finally:
        rates._factor_memo.clear()
    assert _line(POSITIVE)


@pytest.mark.parametrize("plant", ["zero denominator", "negative numerators"])
def test_a_planted_flag_factor_fails_positivity(plant):
    rates = _suite_rates()["flag"]
    assert _line(POSITIVE)
    memo = rates._factor_memo
    scale, table, qt, dmul, fmul, below, at = memo["flag"]
    try:
        if plant == "zero denominator":
            # perm 21 at k = 2 subtracts x_2 / q^0, the entry W_2(0)
            table = [list(row) for row in table]
            table[1][0] = qt
        else:
            fmul = -fmul
        memo["flag"] = scale, table, qt, dmul, fmul, below, at
        assert not _line(POSITIVE)
    finally:
        rates._factor_memo.clear()
    assert _line(POSITIVE)


def _with_entry(m: Matrix, r, c, delta):
    """m with delta / D added to entry (r, c)."""
    rows = [dict(row) for row in m.int_rows]
    rows[r][c] = rows[r].get(c, 0) + delta
    if not rows[r][c]:
        del rows[r][c]
    return Matrix._from_int_rows(rows, m.cols, m.denominator)


@pytest.mark.parametrize("draw", [0, 29, 49])
@pytest.mark.parametrize("delta", [1, -2])
def test_a_row_with_a_wrong_sum_fails_its_line(draw, delta, monkeypatch):
    real = Chain.operator
    calls = []

    def planted(chain):
        op = real(chain)
        calls.append(chain)
        if len(calls) - 1 != draw:
            return op
        m = op.matrix
        return LinearOperator(op.states, _with_entry(m, m.rows - 1, m.cols - 1, delta))

    monkeypatch.setattr(Chain, "operator", planted)
    assert not _line(ROW_SUMS)
    assert len(calls) == draw + 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.fractions(-3, 3, max_denominator=12), min_size=3, max_size=3), min_size=1, max_size=4),
    st.fractions(-3, 3, max_denominator=12),
    st.booleans(),
)
def test_integer_row_sums_agree_with_the_fraction_sums(rows, total, fit):
    if fit:
        rows = [[*row[:-1], total - sum(row[:-1], F(0))] for row in rows]
    m = Matrix(rows)
    assert suites._rows_sum_to(m, total) == (set(m.row_sums()) == {total})


def test_row_sums_over_a_denominator_the_total_does_not_share():
    m = Matrix([[F(1, 3), F(1, 3)], [F(2, 3), 0]])
    assert suites._rows_sum_to(m, F(2, 3))
    assert not suites._rows_sum_to(m, F(1, 3))
    assert not suites._rows_sum_to(m, F(2, 3) + F(1, 10**6))


@pytest.mark.parametrize(
    "product",
    [
        pytest.param(lambda a, b: PartialFlag(a.chain[:-1], a.n, a.p) if a == b else lrb_product(a, b), id="aa != a"),
        pytest.param(lambda a, b: b, id="right zero: aba = a, not ab"),
    ],
)
def test_a_planted_partial_flag_product_fails_its_line(product, monkeypatch):
    assert _line(PARTIAL_FLAGS)
    monkeypatch.setattr(suites, "lrb_product", product)
    assert not _line(PARTIAL_FLAGS)


# ---------------------------------------------------------------------------
# The Hecke relations


def reference_hecke_relations(gens, q):
    """The former whole-matrix check."""
    for i, ti in enumerate(gens):
        if not mat_mul(shift(ti, -1), shift(ti, q)).is_zero():
            return False
        for j in range(i + 2, len(gens)):
            if mat_mul(ti, gens[j]) != mat_mul(gens[j], ti):
                return False
        if i + 1 < len(gens):
            tj = gens[i + 1]
            if mat_mul(mat_mul(ti, tj), ti) != mat_mul(mat_mul(tj, ti), tj):
                return False
    return True


Q = F(7, 3)


def _perm_gens(n, q=Q):
    return [hecke_generator_perm(i, n, q).matrix for i in range(1, n)]


GENERATOR_SETS = {
    "perm n=2": (lambda: _perm_gens(2), Q),
    "perm n=4": (lambda: _perm_gens(4), Q),
    "word (2,1,1)": (lambda: [hecke_generator_word(i, (2, 1, 1), Q).matrix for i in range(1, 4)], Q),
    "flag n=3 p=3": (lambda: [hecke_generator_coset(i, 3, 3).matrix for i in range(1, 3)], F(3)),
}


@pytest.mark.parametrize("name", GENERATOR_SETS)
def test_true_generators_satisfy_every_relation(name):
    make, q = GENERATOR_SETS[name]
    assert suites._hecke_relations(make(), q) is True
    assert reference_hecke_relations(make(), q)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(GENERATOR_SETS)), st.data())
def test_a_wrong_entry_gets_the_reference_verdict(name, data):
    make, q = GENERATOR_SETS[name]
    gens = make()
    g = data.draw(st.integers(0, len(gens) - 1))
    size = gens[g].rows
    r, c = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
    delta = data.draw(st.sampled_from([-2, -1, 1, 3]))
    gens[g] = _with_entry(gens[g], r, c, delta)
    assert suites._hecke_relations(gens, q) == reference_hecke_relations(gens, q)


def _spied(monkeypatch):
    """Record every relation the check evaluates, with its verdict."""
    seen = []
    quadratic, products = suites._quadratic_vanishes, suites.products_equal

    def spy_quadratic(t, q):
        seen.append(("quadratic", (t,), quadratic(t, q)))
        return seen[-1][2]

    def spy_products(a, b, c, d):
        seen.append(("products", (a, b, c, d), products(a, b, c, d)))
        return seen[-1][2]

    monkeypatch.setattr(suites, "_quadratic_vanishes", spy_quadratic)
    monkeypatch.setattr(suites, "products_equal", spy_products)
    return seen


@pytest.mark.parametrize("where", ["first", "last"])
def test_one_wrong_entry_fails_the_quadratic_relation(where, monkeypatch):
    seen = _spied(monkeypatch)
    for make, q in (GENERATOR_SETS["perm n=2"], GENERATOR_SETS["flag n=3 p=3"]):
        t = make()[0]
        k = 0 if where == "first" else t.rows - 1
        bad = _with_entry(t, k, k, 1)
        assert not suites._hecke_relations([bad], q)
        assert seen[-1] == ("quadratic", (bad,), False)


@pytest.mark.parametrize("where", ["first", "last"])
def test_one_wrong_entry_fails_a_commutation(where, monkeypatch):
    gens = _perm_gens(4)
    k = 0 if where == "first" else gens[2].rows - 1
    gens[2] = _with_entry(gens[2], k, k, 1)
    seen = _spied(monkeypatch)
    assert not suites._hecke_relations(gens, Q)
    # T_1 passes its quadratic relation; then T_1 T_3 = T_3 T_1 fails.
    assert [kind for kind, _, _ in seen] == ["quadratic", "products"]
    kind, (a, b, c, d), ok = seen[-1]
    assert not ok and a is d is gens[0] and b is c is gens[2]


@pytest.mark.parametrize("where", ["first", "last"])
def test_one_wrong_entry_fails_a_braid(where, monkeypatch):
    gens = _perm_gens(3)
    k = 0 if where == "first" else gens[1].rows - 1
    gens[1] = _with_entry(gens[1], k, k, 1)
    seen = _spied(monkeypatch)
    assert not suites._hecke_relations(gens, Q)
    # T_1 passes its quadratic relation; then T_1 T_2 T_1 = T_2 T_1 T_2 fails.
    assert [kind for kind, _, _ in seen] == ["quadratic", "products"]
    kind, (ab, a, ba, b), ok = seen[-1]
    assert not ok and a is gens[0] and b is gens[1]


def test_a_planted_generator_fails_its_line():
    def planted(i, n, q):
        op = hecke_generator_perm(i, n, q)
        if i != n - 1:
            return op
        return LinearOperator(op.states, _with_entry(op.matrix, 0, 1, 1))

    assert suites._hecke_checks("perms", hecke_generator_perm, 4, 4, Q) == [("Hecke relations on perms", True)]
    assert suites._hecke_checks("perms", planted, 4, 4, Q) == [("Hecke relations on perms", False)]
