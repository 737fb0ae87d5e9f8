"""The packed spectral certificate against the dense Fraction reference and
the row-by-row pass it replaced.

The reference is the plain statement of both checks: the nullity of the
Fraction matrix M - lambda I by `rank_nullity`, and the dense product of the
M - lambda I over the distinct catalog values compared with zero.
`reference_spectral_pass` is the former pass, one unit row vector at a time
with a gcd division per factor; the packed pass must return the same
(scaled, traces) or None on every input, with any column blocking.

`verify_multiplicities` proves the nullities by annihilation plus the trace
identities and runs elimination only when that certificate fails; the cost
guard below makes `rank_nullity` raise to show that a passing certificate
never reaches it.
"""

import os
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtsetlin.spectra as spectra
import qtsetlin.suites as suites
from qtsetlin.exact import Matrix, mat_mul, rank_nullity
from qtsetlin.flags import transition_matrix_flags
from qtsetlin.hecke_chains import (
    LinearOperator,
    PermRates,
    transition_matrix_perm,
    transition_matrix_word,
)
from qtsetlin.spectra import (
    EigenEntry,
    eigen_catalog_flags,
    eigen_catalog_perm,
    eigen_catalog_word,
    generic_perm_rates,
    generic_word_rates,
    merge_catalog,
    verify_annihilation,
    verify_multiplicities,
)
from qtsetlin.cli import main
from qtsetlin.suites import compositions, run_suite


def reference_annihilation(m, catalog):
    values = []
    for e in catalog:
        if e.value not in values:
            values.append(e.value)
    product = Matrix.identity(m.rows)
    for v in values:
        product = mat_mul(product, m - v * Matrix.identity(m.rows))
    return product.is_zero()


def reference_nullities(m, catalog):
    return [
        rank_nullity(m - e.value * Matrix.identity(m.rows))[1] for e in merge_catalog(catalog)
    ]


def assert_agrees(op, catalog):
    report = verify_multiplicities(op, catalog)
    assert [computed for *_, computed, _ in report.entries] == reference_nullities(
        op.matrix, catalog
    )
    assert verify_annihilation(op, catalog) == reference_annihilation(op.matrix, catalog)
    return report


CHAINS = (
    [("perm", n) for n in range(1, 5)]
    + [("word", m) for n in range(1, 5) for m in compositions(n)]
    + [("flags", (n, p)) for n in range(1, 4) for p in (2, 3)]
    # q = 1 with equal rates: the values collide and the catalog merges them
    + [("uniform", n) for n in (3, 4)]
)


def chain(kind, arg):
    if kind == "perm":
        rates = generic_perm_rates(arg, seed=arg)
        return transition_matrix_perm(rates), eigen_catalog_perm(rates)
    if kind == "uniform":
        rates = PermRates(F(1), (F(1, arg),) * arg)
        return transition_matrix_perm(rates), eigen_catalog_perm(rates)
    if kind == "word":
        rates = generic_word_rates(arg, seed=sum(arg))
        return transition_matrix_word(rates), eigen_catalog_word(rates)
    n, p = arg
    rates = generic_perm_rates(n, seed=n, q=p)
    return transition_matrix_flags(rates, p), eigen_catalog_flags(rates, p)


@pytest.mark.parametrize("kind,arg", CHAINS, ids=[f"{k}-{a}" for k, a in CHAINS])
def test_chain_certificate_matches_reference(kind, arg):
    op, catalog = chain(kind, arg)
    report = assert_agrees(op, catalog)
    assert report.all_pass
    assert verify_annihilation(op, catalog)


def no_elimination(monkeypatch):
    def refuse(m):
        raise AssertionError("rank_nullity ran although the certificate holds")

    monkeypatch.setattr(spectra, "rank_nullity", refuse)


@pytest.mark.parametrize("kind,arg", CHAINS, ids=[f"{k}-{a}" for k, a in CHAINS])
def test_certificate_alone_proves_every_chain(kind, arg, monkeypatch):
    op, catalog = chain(kind, arg)
    expected = reference_nullities(op.matrix, catalog)
    no_elimination(monkeypatch)
    report = verify_multiplicities(op, catalog)
    assert [computed for *_, computed, _ in report.entries] == expected
    assert report.all_pass


def counted_elimination(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return rank_nullity(m)

    monkeypatch.setattr(spectra, "rank_nullity", counting)
    return calls


def assert_rejected_with_nullities(op, catalog, monkeypatch):
    """The report fails and carries the nullities of elimination, one
    `rank_nullity` per merged value."""
    calls = counted_elimination(monkeypatch)
    report = assert_agrees(op, catalog)
    assert not report.all_pass
    assert len(calls) == len(merge_catalog(catalog))
    return report


FAILING_CHAINS = [("perm", 4), ("word", (2, 1, 1)), ("flags", (3, 2))]


@pytest.mark.parametrize("kind,arg", FAILING_CHAINS, ids=[f"{k}-{a}" for k, a in FAILING_CHAINS])
@pytest.mark.parametrize("shift", [1, -1])
def test_moved_multiplicities_with_the_same_sum_are_rejected(kind, arg, shift, monkeypatch):
    op, catalog = chain(kind, arg)
    merged = merge_catalog(catalog)
    up, down = [e for e in merged if e.multiplicity > 0][:2]
    moved = {up.value: shift, down.value: -shift}
    wrong = [EigenEntry(e.label, e.value, e.multiplicity + moved.get(e.value, 0)) for e in merged]
    assert sum(e.multiplicity for e in wrong) == op.matrix.rows
    report = assert_rejected_with_nullities(op, wrong, monkeypatch)
    assert report.dimension_ok
    failed = {value for _, value, _, _, ok in report.entries if not ok}
    assert failed == set(moved)


@pytest.mark.parametrize("kind,arg", FAILING_CHAINS, ids=[f"{k}-{a}" for k, a in FAILING_CHAINS])
def test_dropped_value_is_rejected(kind, arg, monkeypatch):
    op, catalog = chain(kind, arg)
    drop = next(e for e in merge_catalog(catalog) if e.multiplicity > 0)
    kept = [e for e in catalog if e.value != drop.value]
    report = assert_rejected_with_nullities(op, kept, monkeypatch)
    assert not report.dimension_ok
    assert not verify_annihilation(op, kept)


def test_missing_value_breaks_chain_annihilation():
    rates = generic_perm_rates(4, seed=4)
    op = transition_matrix_perm(rates)
    catalog = eigen_catalog_perm(rates)
    for drop in [e for e in catalog if e.multiplicity > 0][:2]:
        kept = [e for e in catalog if e.value != drop.value]
        assert not verify_annihilation(op, kept)
        assert not reference_annihilation(op.matrix, kept)


def unit_upper(size, above):
    """I + N for the strictly upper entries `above`, and its inverse
    sum_k (-N)^k (N is nilpotent)."""
    it = iter(above)
    n = Matrix([[next(it) if c > r else 0 for c in range(size)] for r in range(size)])
    ident = Matrix.identity(size)
    inverse, term = ident, ident
    for _ in range(size):
        term = mat_mul(term, F(-1) * n)
        inverse = inverse + term
    return ident + n, inverse


def diagonal(values, jordan_at=None):
    size = len(values)
    rows = [[values[r] if c == r else 0 for c in range(size)] for r in range(size)]
    if jordan_at is not None:
        rows[jordan_at][jordan_at + 1] = 1
    return Matrix(rows)


small = st.fractions(min_value=-3, max_value=3, max_denominator=5)
pool = st.lists(small, min_size=1, max_size=3, unique=True)


@st.composite
def planted(draw, jordan=False):
    """P D P^-1 with P unit upper triangular, so upper triangular with the
    diagonal of D; with jordan=True, D has a 2x2 Jordan block."""
    values = draw(pool)
    size = draw(st.integers(2 if jordan else 1, 5))
    diag = [draw(st.sampled_from(values)) for _ in range(size)]
    jordan_at = None
    if jordan:
        jordan_at = draw(st.integers(0, size - 2))
        diag[jordan_at + 1] = diag[jordan_at]
    above = draw(st.lists(small, min_size=size * size, max_size=size * size))
    p, p_inv = unit_upper(size, above)
    m = mat_mul(mat_mul(p, diagonal(diag, jordan_at)), p_inv)
    catalog = [EigenEntry((i,), v, diag.count(v)) for i, v in enumerate(values)]
    extra = draw(st.lists(small, max_size=2))
    catalog += [EigenEntry(("extra",), v, 0) for v in extra]
    return LinearOperator(tuple(range(size)), m), catalog, diag


@settings(max_examples=60, deadline=None)
@given(planted())
def test_planted_diagonalizable_spectrum(case):
    op, catalog, diag = case
    report = assert_agrees(op, catalog)
    assert verify_annihilation(op, catalog)
    for _, value, _, computed, _ in report.entries:
        assert computed == diag.count(value)


@settings(max_examples=60, deadline=None)
@given(planted(jordan=True))
def test_planted_jordan_block_is_rejected(case):
    op, catalog, _ = case
    report = assert_agrees(op, catalog)
    assert not report.all_pass
    assert report.dimension_ok
    assert not verify_annihilation(op, catalog)


@settings(max_examples=60, deadline=None)
@given(planted(), st.data())
def test_planted_value_removed_is_rejected(case, data):
    op, catalog, diag = case
    drop = data.draw(st.sampled_from(sorted(set(diag))))
    kept = [e for e in catalog if e.value != drop]
    report = assert_agrees(op, kept)
    assert not report.all_pass
    assert not verify_annihilation(op, kept)


def test_one_spectral_pass_per_certified_chain(monkeypatch, capsys):
    """The suite and `spectrum --verify` read the annihilation verdict from
    the pass that certifies the multiplicities; none runs a second pass."""
    calls = []
    original = spectra._spectral_pass

    def counting(m, values):
        calls.append(m.rows)
        return original(m, values)

    monkeypatch.setattr(spectra, "_spectral_pass", counting)
    # One core: a pass run in a forked helper of `run_suite` is not counted here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    checks = run_suite("spectra", n_max=3, p_list=(2,))
    chains = [name for name, _ in checks if "nullities match" in name]
    assert all(ok for _, ok in checks)
    # perm n=2, 3; words (1,1), (1,2), (2,1), (1,1,1); flags n=2, 3 over F_2
    assert len(calls) == len(chains) == 8
    del calls[:]
    assert main(["spectrum", "--space", "flag", "--n", "3", "--p", "2", "--verify"]) == 0
    assert '"annihilation": true' in capsys.readouterr().out
    assert calls == [21]


def test_suite_and_cli_read_the_annihilation_verdict(monkeypatch, capsys):
    """A report whose product did not vanish fails the one spectral
    verdict: every chain's nullity line, the perm annihilation line and
    `spectrum --verify`."""
    real = spectra.verify_multiplicities

    def not_annihilating(op, catalog):
        return real(op, catalog)._replace(annihilates=False)

    monkeypatch.setattr(spectra, "verify_multiplicities", not_annihilating)
    monkeypatch.setattr(suites, "verify_multiplicities", not_annihilating)
    failed = [name for name, ok in run_suite("spectra", n_max=2, p_list=(2,)) if not ok]
    assert failed == [
        "perm n=2: nullities match derangement multiplicities",
        "perm n=2: annihilation product vanishes",
        "word m=(1, 1): nullities match poset-derangement multiplicities",
        "flag n=2 p=2: nullities match q-derangement multiplicities",
    ]
    assert main(["spectrum", "--space", "flag", "--n", "2", "--p", "2", "--verify", "--format", "csv"]) == 1
    assert capsys.readouterr().out.endswith("all_pass,false,\n")


# ---------------------------------------------------------------------------
# The packed pass against the row-by-row pass


def reference_spectral_pass(m: Matrix, values: tuple):
    """(D l_i, traces) when the product of (M - l_i I) over `values` is zero,
    else None; traces[t] is the trace of prod_{i<t} (D M - D l_i I).

    Row s of the product is e_s times the factors, one after the other; on
    the integer rows of D M a factor is w <- w (D M) - (D l) w.  Dividing w
    by the gcd of its entries keeps it exactly as zero as it was, and the
    product of the gcds divided out so far restores its diagonal entry w[s]
    for the traces.  A row that vanishes stops and adds nothing to the
    later traces.
    """
    scale = lcm(m.denominator, *(v.denominator for v in values))
    factor = scale // m.denominator
    rows = [tuple((k, x * factor) for k, x in row.items()) for row in m.int_rows]
    scaled = [int(v * scale) for v in values]
    traces = [0] * len(scaled)
    size = m.rows
    for s in range(size):
        w = [0] * size
        w[s] = 1
        divided = 1
        for t, lam in enumerate(scaled):
            if w[s]:
                traces[t] += w[s] * divided
            nxt = [-lam * a for a in w]
            for a, row in zip(w, rows):
                if a:
                    for k, x in row:
                        nxt[k] += a * x
            g = gcd(*nxt)
            if not g:
                break
            if g > 1:
                nxt = [x // g for x in nxt]
                divided *= g
            w = nxt
        else:
            return None
    return scaled, traces


def assert_pass_matches_reference(m, values):
    got = spectra._spectral_pass(m, values)
    assert got == reference_spectral_pass(m, values)
    return got


def merged_values(catalog):
    return tuple(e.value for e in merge_catalog(catalog))


@pytest.mark.parametrize("kind,arg", CHAINS, ids=[f"{k}-{a}" for k, a in CHAINS])
def test_packed_pass_matches_row_pass_on_every_chain(kind, arg):
    op, catalog = chain(kind, arg)
    values = merged_values(catalog)
    assert assert_pass_matches_reference(op.matrix, values) is not None
    assert assert_pass_matches_reference(op.matrix, values[::-1]) is not None
    for drop in [e.value for e in merge_catalog(catalog) if e.multiplicity > 0][:2]:
        kept = tuple(v for v in values if v != drop)
        assert assert_pass_matches_reference(op.matrix, kept) is None


@settings(max_examples=60, deadline=None)
@given(st.one_of(planted(), planted(jordan=True)))
def test_packed_pass_matches_row_pass_on_planted_matrices(case):
    op, catalog, _ = case
    values = merged_values(catalog)
    assert_pass_matches_reference(op.matrix, values)
    assert_pass_matches_reference(op.matrix, values[:-1])


square = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=100, deadline=None)
@given(square, pool)
def test_packed_pass_matches_row_pass_on_any_small_matrix(rows, values):
    assert_pass_matches_reference(Matrix(rows), tuple(values))


EDGE_CASES = {
    "zero 1x1 at 0": ([[0]], (0,)),
    "zero 3x3 at 0": ([[0] * 3] * 3, (0,)),
    "zero 2x2 at 1 then 0": ([[0, 0], [0, 0]], (1, 0)),
    "zero 2x2 without 0": ([[0, 0], [0, 0]], (1, -2)),
    "1x1": ([[F(-5, 3)]], (F(-5, 3),)),
    "1x1 after another value": ([[F(-5, 3)]], (F(7, 2), F(-5, 3))),
    "1x1 missed": ([[F(-5, 3)]], (F(5, 3),)),
    "negative entries and values": ([[-2, F(1, 3)], [0, F(-7, 4)]], (F(-7, 4), -2)),
    "vanishes before the last value": ([[1, 0, 0], [0, 2, 0], [0, 0, 1]], (1, 2, -3)),
    "vanishes after the first value": ([[F(-1, 2), 0], [0, F(-1, 2)]], (F(-1, 2), 4, 5)),
    "nilpotent": ([[0, 1], [0, 0]], (0,)),
    "nilpotent with another value": ([[0, 1], [0, 0]], (0, 1)),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_packed_pass_edge_cases(name):
    rows, values = EDGE_CASES[name]
    m = Matrix(rows)
    values = tuple(F(v) for v in values)
    result = assert_pass_matches_reference(m, values)
    assert (result is not None) == reference_annihilation(m, [EigenEntry((), v, 0) for v in values])


def recorded_widths(monkeypatch):
    widths = []
    original = spectra._slot_width

    def recording(rows, scaled):
        widths.append(original(rows, scaled))
        return widths[-1]

    monkeypatch.setattr(spectra, "_slot_width", recording)
    return widths


def chain_n(kind, arg):
    return arg[0] if kind == "flags" else sum(arg) if kind == "word" else arg


SMALL_CHAINS = [(kind, arg) for kind, arg in CHAINS if chain_n(kind, arg) <= 3]


@pytest.mark.parametrize("kind,arg", SMALL_CHAINS, ids=[f"{k}-{a}" for k, a in SMALL_CHAINS])
def test_slot_width_exceeds_every_entry_of_every_partial_product(kind, arg, monkeypatch):
    op, catalog = chain(kind, arg)
    values = merged_values(catalog)
    widths = recorded_widths(monkeypatch)
    assert spectra._spectral_pass(op.matrix, values) is not None
    (width,) = widths
    scale = lcm(op.matrix.denominator, *(v.denominator for v in values))
    a = op.matrix * scale
    ident = Matrix.identity(a.rows)
    product = ident
    for v in values:
        product = mat_mul(product, a - (v * scale) * ident)
        assert product.denominator == 1
        largest = max((abs(x) for row in product.int_rows for x in row.values()), default=0)
        assert largest.bit_length() < width


@pytest.mark.parametrize("kind,arg", CHAINS, ids=[f"{k}-{a}" for k, a in CHAINS])
def test_column_blocks_give_the_same_result(kind, arg, monkeypatch):
    op, catalog = chain(kind, arg)
    size = op.matrix.rows
    values = merged_values(catalog)
    widths = recorded_widths(monkeypatch)
    whole = spectra._spectral_pass(op.matrix, values)
    short = spectra._spectral_pass(op.matrix, values[:-1])
    # one column per block, then about three blocks
    for budget in (1, widths[0] * size * max(1, size // 3)):
        monkeypatch.setattr(spectra, "_BLOCK_BITS", budget)
        assert spectra._spectral_pass(op.matrix, values) == whole
        assert spectra._spectral_pass(op.matrix, values[:-1]) == short
