"""The F_p kernel of `flags` against the code it replaced.

Every flag operation runs on the int-coded `_VectorCodes`: its column
reduction `reduce` and its entry-step walk `entry_step`.  The references
below are the former versions: the tuple column reduction (with the coset
representative built on it) and the tuple entry step that the coded walks
replaced, the coset action with its shear a + t*b taken entrywise on tuples,
a span built by reducing each vector against a reduced echelon basis, a
partial flag that spans every vector seen so far at each step, a product
that spans the left factor's top with each step of the right one, and a path
method that builds every prefix span of the flag and tests each line for
containment prefix by prefix.  Each must agree with its reference result for
result.
"""

import bisect
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from qtsetlin.flags import (
    FlagRep,
    PartialFlag,
    _act_coset,
    _flag_codes,
    _vector_codes,
    coset_to_perm,
    enumerate_flags,
    enumerate_lines,
    lrb_product,
    rcayley_stationary,
    span_basis,
)
from qtsetlin.hecke_chains import PermRates
from qtsetlin.spectra import generic_perm_rates
from qtsetlin.stationary import stationary_flags_formula


# ---------------------------------------------------------------------------
# The former tuple kernel, as it stood in `flags`


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


def _canonical_columns(cols, p):
    """Column-reduce to canonical form; dependent columns drop out.

    Returns the columns in input order and the (pivot row, column) pairs
    sorted by pivot row.  Sweeping the placed pivot rows from top to bottom
    suffices, because clearing a pivot row only disturbs the rows below it.
    """
    out = []
    placed = []
    for col in cols:
        col = [a % p for a in col]
        for row, ocol in placed:
            c = col[row]
            if c:
                col = [(a - c * b) % p for a, b in zip(col, ocol)]
        lead = next((r for r, a in enumerate(col) if a), None)
        if lead is None:
            continue
        s = _inv_mod(col[lead], p)
        col = tuple([(a * s) % p for a in col])
        out.append(col)
        bisect.insort(placed, (lead, col))
    return tuple(out), tuple(placed)


def canonicalize_coset(rows, p: int) -> FlagRep:
    """Canonical representative of the coset of an invertible matrix (given
    as rows), by the tuple column reduction."""
    cols, _ = _canonical_columns(list(zip(*rows)), p)
    if len(cols) != len(rows):
        raise ValueError("matrix is singular")
    return FlagRep(cols, p)


def _entry_step(flag: FlagRep, v) -> int:
    """The least j with v in V_j, for a canonical flag.

    v is reduced against the columns in order, each at its pivot row (the
    row of the column's first 1).  A column vanishes at the pivot rows of the
    earlier columns, so this writes v in the column basis, and V_j holds v
    exactly when every coefficient after column j is zero.
    """
    p = flag.p
    v = list(v)
    step = 0
    for j, col in enumerate(flag.cols, start=1):
        c = v[col.index(1)]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, col)]
            step = j
    return step


def reference_act_coset(flag, i):
    p = flag.p
    head, (a, b), tail = flag.cols[: i - 1], flag.cols[i - 1 : i + 1], flag.cols[i + 1 :]
    pairs = [(b, a)] + [(tuple((x + t * y) % p for x, y in zip(a, b)), b) for t in range(1, p)]
    return tuple((FlagRep(_canonical_columns(head + pair + tail, p)[0], p), 1) for pair in pairs)


@st.composite
def column_lists(draw):
    """Columns over F_p with zero columns and combinations of earlier
    columns mixed in, entries drawn from a range wider than [0, p)."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    n = draw(st.integers(1, 5))
    entry = st.integers(-p, 2 * p)
    cols = []
    for _ in range(draw(st.integers(0, n + 2))):
        kind = draw(st.sampled_from(("zero", "free", "dependent")))
        if kind == "zero":
            cols.append((0,) * n)
        elif kind == "dependent" and cols:
            coeffs = [draw(entry) for _ in cols]
            cols.append(tuple(sum(c * col[r] for c, col in zip(coeffs, cols)) for r in range(n)))
        else:
            cols.append(tuple(draw(entry) for _ in range(n)))
    return n, p, cols


@settings(max_examples=400, deadline=None)
@given(column_lists())
def test_coded_reduction_matches_tuple_reduction(case):
    n, p, cols = case
    codes = _vector_codes(n, p)
    out, placed = codes.reduce([codes.encode(col) for col in cols])
    want_out, want_placed = _canonical_columns(cols, p)
    assert tuple(map(codes.decode, out)) == want_out
    assert tuple((row, codes.decode(col)) for row, col in placed) == want_placed


def test_span_of_nothing_is_empty():
    assert span_basis([], 3) == ()
    assert PartialFlag.from_vectors([], 2, 3).chain == ()


@pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 3) for p in (2, 3, 5)])
def test_act_coset_matches_tuple_shear_on_every_flag(n, p):
    for flag in enumerate_flags(n, p):
        for i in range(1, n):
            assert _act_coset(flag, i) == reference_act_coset(flag, i), (flag, i)


# ---------------------------------------------------------------------------
# Subspaces and the path method


def reference_coset_to_perm(flag):
    """The former scan: the row of each column's first nonzero entry."""
    return tuple(next(r for r, a in enumerate(col) if a) + 1 for col in flag.cols)


@pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 3, 4) for p in (2, 3)])
def test_coset_to_perm_reads_the_leading_one_of_every_column(n, p):
    for flag in enumerate_flags(n, p):
        assert coset_to_perm(flag) == reference_coset_to_perm(flag)


def _lead(v):
    return next(r for r, a in enumerate(v) if a)


def _reduce_vector(v, basis, p):
    v = list(v)
    for b in basis:
        c = v[_lead(b)]
        if c:
            v = [(a - c * bb) % p for a, bb in zip(v, b)]
    return tuple(v)


def reference_span_basis(vectors, p):
    basis = []
    for v in vectors:
        v = _reduce_vector(v, basis, p)
        if any(v):
            lead = _lead(v)
            v = tuple((a * pow(v[lead], p - 2, p)) % p for a in v)
            basis = [tuple((a - b[lead] * vv) % p for a, vv in zip(b, v)) for b in basis]
            basis.append(v)
            basis.sort(key=_lead)
    return tuple(basis)


# Neither reference keeps the zero subspace as a step, so the empty flag is
# the identity of the product.


def reference_from_vectors(vector_chains, n, p):
    chain = []
    seen = []
    for vecs in vector_chains:
        seen.extend(vecs)
        sub = reference_span_basis(seen, p)
        if sub and (not chain or sub != chain[-1]):
            chain.append(sub)
    return PartialFlag(tuple(chain), n, p)


def reference_lrb_product(a, b):
    chain = [sub for sub in a.chain if sub]
    top = list(a.chain[-1]) if a.chain else []
    for w in b.chain:
        joined = reference_span_basis(top + list(w), a.p)
        if joined and (not chain or joined != chain[-1]):
            chain.append(joined)
    return PartialFlag(tuple(chain), a.n, a.p)


def reference_prefixes(flag):
    return [reference_span_basis(flag.cols[:j], flag.p) for j in range(1, flag.n + 1)]


def reference_entry_step(prefixes, v, p):
    return next(j for j, sub in enumerate(prefixes, start=1) if not any(_reduce_vector(v, sub, p)))


def reference_path_value(rates, p, flag):
    n = flag.n
    prefixes = reference_prefixes(flag)
    step_weight = [F(0)] * (n + 1)
    for line in enumerate_lines(n, p):
        step_weight[reference_entry_step(prefixes, line.vector(n), p)] += rates.y(line.lead)
    value = F(1)
    for j in range(1, n + 1):
        value *= step_weight[j]
    stab = F(0)
    for j in range(1, n):
        stab += step_weight[j]
        value /= 1 - stab
    return value


@pytest.mark.parametrize("n, p", [(3, 2), (2, 3)])
def test_span_basis_matches_reference_on_every_short_list(n, p):
    space = list(itertools.product(range(p), repeat=n))
    for k in range(4):
        for vectors in itertools.product(space, repeat=k):
            assert span_basis(vectors, p) == reference_span_basis(vectors, p), vectors


@st.composite
def vector_lists(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    return draw(st.lists(vector, max_size=6)), p


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_span_basis_matches_reference_on_random_lists(case):
    vectors, p = case
    assert span_basis(vectors, p) == reference_span_basis(vectors, p)


def _normalized_rates(n, p):
    """Distinct positive rates summing to 1, as the path method requires."""
    return PermRates(p, tuple(F(2 * i, n * (n + 1)) for i in range(1, n + 1)))


@pytest.mark.parametrize("n, p", [(2, 2), (3, 2), (4, 2), (3, 3), (3, 5)])
def test_entry_step_is_the_first_prefix_holding_the_line(n, p):
    # The path value depends only on how many lines of each lead index enter
    # at each step, so it cannot tell some wrong entry steps from right ones.
    # Every multiple of a line vector enters at the same step.
    for flag in enumerate_flags(n, p):
        prefixes = reference_prefixes(flag)
        codes, cols = _flag_codes(flag)
        leads = [col.index(1) for col in flag.cols]
        for line in enumerate_lines(n, p):
            v = line.vector(n)
            step = reference_entry_step(prefixes, v, p)
            assert _entry_step(flag, v) == step, (flag, v)
            for c in range(1, p):
                assert codes.entry_step(cols, leads, codes.encode([c * a for a in v])) == step, (flag, v, c)


@pytest.mark.parametrize("n, p", [(1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (3, 5)])
def test_path_method_matches_reference_on_every_flag(n, p):
    rates = _normalized_rates(n, p)
    for flag in enumerate_flags(n, p):
        assert rcayley_stationary(rates, p, flag) == reference_path_value(rates, p, flag), flag


def _random_partial_flag(rng, n, p):
    batches = [[tuple(rng.randrange(p) for _ in range(n)) for _ in range(rng.randint(1, 2))]]
    for _ in range(rng.randint(0, n)):
        batches.append([tuple(rng.randrange(p) for _ in range(n))])
    flag = PartialFlag.from_vectors(batches, n, p)
    assert flag == reference_from_vectors(batches, n, p), batches
    return flag


@pytest.mark.parametrize("p", [2, 3, 5])
def test_from_vectors_and_lrb_product_match_reference_on_random_pairs(p):
    rng = random.Random(900 + p)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = _random_partial_flag(rng, n, p)
        b = _random_partial_flag(rng, n, p)
        assert lrb_product(a, b) == reference_lrb_product(a, b), (a, b)


def test_path_method_equals_closed_form_on_every_flag_n4_p3():
    rates = generic_perm_rates(4, seed=4, q=3)
    psi = stationary_flags_formula(rates, 3).normalized()
    assert len(psi.states) == 2080
    assert all(rcayley_stationary(rates, 3, f) == psi[f] for f in psi.states)


@pytest.mark.parametrize("n, p", [(1, 2), (2, 3), (3, 2), (4, 5)])
def test_zero_batches_give_the_empty_flag_which_is_the_identity(n, p):
    zero = (0,) * n
    e = PartialFlag((), n, p)
    assert PartialFlag.from_vectors([[zero]], n, p) == e
    assert PartialFlag.from_vectors([[zero, zero], [], [zero]], n, p) == e
    assert reference_from_vectors([[zero]], n, p) == e
    assert span_basis([zero], p) == ()
    rng = random.Random(40 + n + p)
    for _ in range(30):
        x = _random_partial_flag(rng, n, p)
        assert () not in x.chain
        assert lrb_product(e, x) == x == lrb_product(x, e)
        assert reference_lrb_product(e, x) == x == reference_lrb_product(x, e)
    # a zero batch in front is not a step either
    first = (1,) + (0,) * (n - 1)
    assert PartialFlag.from_vectors([[zero], [first]], n, p).chain == ((first,),)


# ---------------------------------------------------------------------------
# The product on codes against the reference product


def all_partial_flags(n, p):
    """Every chain of nonzero subspaces of F_p^n, the empty one included."""
    space = list(itertools.product(range(p), repeat=n))
    subspaces = {reference_span_basis(vs, p) for k in range(n + 1) for vs in itertools.combinations(space, k)}
    subspaces = sorted(subspaces - {()}, key=lambda sub: (len(sub), sub))

    def chains(prefix):
        yield PartialFlag(tuple(prefix), n, p)
        for sub in subspaces:
            if not prefix or (len(sub) > len(prefix[-1]) and reference_span_basis(sub + prefix[-1], p) == sub):
                yield from chains([*prefix, sub])

    return list(chains([]))


@pytest.mark.parametrize("n, p, count", [(2, 2, 8), (2, 3, 10), (3, 2, 72)])
def test_lrb_product_matches_reference_on_every_pair(n, p, count):
    flags = all_partial_flags(n, p)
    assert len(flags) == count
    empty = PartialFlag((), n, p)
    fulls = [a for a in flags if a.chain and len(a.chain[-1]) == n]
    assert empty in flags and fulls
    for a in flags:
        for b in flags:
            assert lrb_product(a, b) == reference_lrb_product(a, b), (a, b)
        assert lrb_product(empty, a) == a == lrb_product(a, empty)
    for full in fulls:
        assert all(lrb_product(full, b) == full for b in flags)


@st.composite
def partial_flag_pairs(draw):
    n, p = draw(st.sampled_from([(4, 3), (4, 5)]))
    vector = st.tuples(*[st.integers(0, p - 1)] * n)
    batches = st.lists(st.lists(vector, min_size=1, max_size=2), max_size=5)
    a, b = (reference_from_vectors(draw(batches), n, p) for _ in range(2))
    return a, b


@settings(max_examples=300, deadline=None)
@given(partial_flag_pairs())
def test_lrb_product_matches_reference_on_random_pairs_n4(pair):
    a, b = pair
    assert lrb_product(a, b) == reference_lrb_product(a, b)
    assert lrb_product(b, a) == reference_lrb_product(b, a)
    assert lrb_product(a, a) == a
