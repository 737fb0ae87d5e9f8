"""
Eigenvalue catalogs with predicted multiplicities for the three chains, and
their exact verification.

The permutation chain is the word chain at content (1^n), whose upper sets
are the 0/1 indicators of subsets of [n]; its catalog keeps only its own
labels (subsets) and multiplicities.

Characteristic polynomials are never expanded.  Entries whose values
collide (non-generic rates) are merged, multiplicities added, before
checking.  One exact pass over Q proves every predicted multiplicity: the
product of (M - lambda I) over the distinct values vanishes, so M is
diagonalizable with its spectrum among them, and the traces of the partial
products fix the multiplicities (see `_certified`).  Only when that
certificate fails is each nullity computed by fraction-free elimination
(`exact.rank_nullity`), so the report still names the wrong value.

The pass runs on the integer rows of D M, where D is the lcm of M's stored
denominator and those of the catalog values (the stored rows are rescaled
only when it is larger), so each D lambda is an integer.  It keeps each row
of the running product as one int, one fixed-width slot per column, wide
enough for a proved bound on every entry, so one factor costs one big-int
multiply-add per nonzero of M.  Nothing is modular or randomized.
"""

from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul

from .combinatorics import derangement, poset_derangements, q_derangement
from .exact import Matrix, format_rational, rank_nullity, record, shift
# The rate sampler lives with the rates; `bench/tracer.py` and callers of
# `spectra` find it here too.
from .hecke_chains import LinearOperator, PermRates, WordRates, generic_perm_rates, generic_word_rates

__all__ = [
    "EigenEntry",
    "eigen_catalog_perm",
    "eigen_catalog_word",
    "eigen_catalog_flags",
    "merge_catalog",
    "verify_multiplicities",
    "verify_annihilation",
    "generic_perm_rates",
    "generic_word_rates",
]


# Bits of packed rows held at once by one column block of `_spectral_pass`.
_BLOCK_BITS = 1 << 27


class EigenEntry(record("EigenEntry", "label value multiplicity")):
    """label: subset of [n] as a decreasing tuple, or a weak composition for
    the word chain; multiplicity may be zero."""


def eigen_catalog_perm(rates: PermRates):
    """One entry per subset S of [n], labelled by S as a decreasing tuple;
    the value is the upper-set eigenvalue of S's 0/1 indicator, and the
    multiplicity derangement(n - |S|)."""
    n = rates.n
    values = rates.upper_set_values
    out = []
    for k in range(n + 1):
        for combo in combinations(range(1, n + 1), k):
            indicator = tuple(int(i in combo) for i in range(1, n + 1))
            out.append(EigenEntry(combo[::-1], values[indicator], derangement(n - k)))
    return out


def eigen_catalog_word(rates: WordRates):
    """One entry per upper set of the chain-union poset; multiplicity is the
    poset-derangement count of the truncated poset."""
    return [
        EigenEntry(a, value, poset_derangements(rates.m, a))
        for a, value in rates.upper_set_values.items()
    ]


def eigen_catalog_flags(rates: PermRates, p: int):
    """The labels and values of `eigen_catalog_perm`; multiplicity
    d_{n-k}(q) q^((n - i_1) + (n-1 - i_2) + ... + (n-k+1 - i_k)), and 1 for
    the full subset.  Multiplicities sum to the number of flags."""
    from .flags import _check_rates

    _check_rates(rates, p)
    n = rates.n
    out = []
    for e in eigen_catalog_perm(rates):
        k = len(e.label)
        if k == n:
            mult = 1
        else:
            exponent = sum(n - j + 1 - i for j, i in enumerate(e.label, start=1))
            value = q_derangement(n - k, p) * Fraction(p) ** exponent
            if value.denominator != 1:
                raise ValueError("flag multiplicity is not an integer")
            mult = int(value)
        out.append(e._replace(multiplicity=mult))
    return out


def merge_catalog(entries):
    """Group entries with equal values; multiplicities add, labels collect."""
    by_value = {}
    order = []
    for e in entries:
        if e.value not in by_value:
            by_value[e.value] = [[], 0]
            order.append(e.value)
        by_value[e.value][0].append(e.label)
        by_value[e.value][1] += e.multiplicity
    return [
        EigenEntry(tuple(by_value[v][0]), v, by_value[v][1]) for v in order
    ]


class MultiplicityReport(record("MultiplicityReport", "entries dimension total_predicted annihilates")):
    """entries: (labels, value, predicted, computed, ok) per merged value.
    `all_pass`, the one spectral verdict, also asks `annihilates`, which the
    dimension and nullity checks imply (then M is diagonalizable)."""

    @property
    def dimension_ok(self):
        return self.total_predicted == self.dimension

    @property
    def all_pass(self):
        return self.dimension_ok and self.annihilates and all(ok for *_, ok in self.entries)

    def as_json(self):
        return {
            "checks": [
                {
                    "label": [list(l) for l in labels],
                    "value": format_rational(value),
                    "predicted": predicted,
                    "computed": computed,
                    "pass": ok,
                }
                for labels, value, predicted, computed, ok in self.entries
            ],
            "dimension": self.dimension,
            "total_predicted": self.total_predicted,
            "all_pass": self.all_pass,
            "annihilation": self.annihilates,
        }


def verify_multiplicities(op: LinearOperator, catalog) -> MultiplicityReport:
    """The nullity of (M - lambda I) against the predicted multiplicity for
    every merged catalog value, the total-dimension check, and in
    `annihilates` whether the product of (M - lambda I) over them vanishes.

    The nullities are proved without elimination when the spectral
    certificate holds (see `_certified`); otherwise each one is computed by
    `rank_nullity`, so the report names the values whose nullity is wrong.
    """
    m = op.matrix
    merged = merge_catalog(catalog)
    result = _spectral_pass(m, tuple(e.value for e in merged))
    if _certified(result, merged):
        nullities = [e.multiplicity for e in merged]
    else:
        nullities = [rank_nullity(shift(m, e.value))[1] for e in merged]
    rows = tuple(
        (e.label, e.value, e.multiplicity, nullity, nullity == e.multiplicity)
        for e, nullity in zip(merged, nullities)
    )
    total = sum(e.multiplicity for e in merged)
    return MultiplicityReport(rows, m.rows, total, result is not None)


def verify_annihilation(op: LinearOperator, catalog) -> bool:
    """True iff the product of (M - lambda I) over distinct catalog values is
    exactly zero (diagonalizability with the cataloged spectrum)."""
    values = tuple(dict.fromkeys(e.value for e in catalog))
    return _spectral_pass(op.matrix, values) is not None


def _certified(result, merged) -> bool:
    """True iff the annihilation product over the merged values vanishes and
    every trace identity holds, which proves each predicted multiplicity.

    With distinct values l_1..l_k and the product of (M - l_i I) zero, M is
    diagonalizable with eigenvalues among the l_i, each nullity is the
    algebraic multiplicity a_j, and for t = 0..k-1

        tr prod_{i<t} (M - l_i I) = sum_j a_j prod_{i<t} (l_j - l_i).

    Term j vanishes for j < t and not for j = t, so the k identities are a
    triangular system in the a_j with a nonzero diagonal: they hold for the
    predicted multiplicities exactly when those are the a_j.  Both sides
    are taken on D M and the D l_i, which scales identity t by D^t.
    """
    if result is None:
        return False
    scaled, traces = result
    expected = [0] * len(scaled)
    for lam, e in zip(scaled, merged):
        term = e.multiplicity
        for t, other in enumerate(scaled):
            if not term:
                break
            expected[t] += term
            term *= lam - other
    return traces == expected


def _spectral_pass(m: Matrix, values: tuple):
    """(D l_i, traces) when the product of (M - l_i I) over `values` is zero,
    else None; traces[t] is the trace of P_t = prod_{i<t} (D M - D l_i I).

    Each row of P_t is kept as one int, with one slot of `width` bits per
    column (Kronecker substitution).  On the integer rows of A = D M a
    factor is row_r(P_{t+1}) = sum_j A[r, j] row_j(P_t) - (D l_t) row_r(P_t),
    one multiply-add per nonzero of A on whole packed rows; the factors
    commute, so multiplying from the left builds the same product.

    With R the largest row sum of |A|, every entry of every P_t is at most
    B = prod_i max(1, R + |D l_i|), and a slot of B.bit_length() + 1 bits
    holds it with its sign.  Packing is linear and one-to-one on such rows,
    so a packed row is zero exactly when the row is, and P_t[k, k] is slot
    k of row k: adding `half` to every slot leaves each slot in [0, 2^width)
    with no borrow from the slots below.

    The columns are taken in blocks whose packed rows hold about _BLOCK_BITS
    bits in all; P_t restricted to a block's columns obeys the same
    recurrence, and column k is slot k - start of its block.  A block whose
    product vanishes stops and adds nothing to the later traces.
    """
    scale = lcm(m.denominator, *(v.denominator for v in values))
    factor = scale // m.denominator
    rows = [(tuple(row), tuple(x * factor for x in row.values())) for row in m.int_rows]
    scaled = [int(v * scale) for v in values]
    width = _slot_width(rows, scaled)
    half, mask = 1 << (width - 1), (1 << width) - 1
    traces = [0] * len(scaled)
    size = m.rows
    block = max(1, _BLOCK_BITS // (width * size or 1))
    for start in range(0, size, block):
        diagonal = range(start, min(start + block, size))
        offset = half * ((1 << width * len(diagonal)) - 1) // mask
        packed = [0] * size
        for k in diagonal:
            packed[k] = 1 << width * (k - start)
        for t, lam in enumerate(scaled):
            traces[t] += sum(
                ((packed[k] + offset) >> width * (k - start)) & mask for k in diagonal
            ) - half * len(diagonal)
            get = packed.__getitem__
            packed = [
                sum(map(mul, coeffs, map(get, cols))) - lam * own
                for (cols, coeffs), own in zip(rows, packed)
            ]
            if not any(packed):
                break
        else:
            return None
    return scaled, traces


def _slot_width(rows, scaled) -> int:
    """Bits of one slot of `_spectral_pass`: B.bit_length() + 1 for
    B = prod_i max(1, R + |D l_i|), R the largest row sum of |D M|."""
    reach = max((sum(map(abs, coeffs)) for _, coeffs in rows), default=0)
    bound = 1
    for lam in scaled:
        bound *= max(1, reach + abs(lam))
    return bound.bit_length() + 1
