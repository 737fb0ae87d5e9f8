"""
Projection and inclusion maps between the three state spaces, rate
compatibility, and exact verification of the commuting diagrams.

Matrices follow the package-wide row-to-column convention (row = source
state).  With that convention a projection intertwiner multiplies transition
matrices on the right and an inclusion on the left:

    T_flags . P  = P . T_perm          J . T_flags = T_perm . J
    T_perm  . Pw = Pw . T_word         Jw . T_perm = T_word . Jw

`check_commuting` compares the two sides of an identity row by row, each
row multiplied out when it is compared, and stops at the first row that
differs; neither product is stored.

The flag maps import `flags` when they run, so the word diagrams do not load it.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

from .combinatorics import _content_states, block_sets, destandardize, inv, q_int, standardize
from .exact import products_equal, record, state_matrix
from .hecke_chains import (
    PermRates,
    WordRates,
    transition_matrix_perm,
    transition_matrix_word,
)

__all__ = [
    "IntertwinerMatrix",
    "proj_flags_to_perms",
    "incl_perms_to_flags",
    "proj_perms_to_words",
    "incl_words_to_perms",
    "is_m_compatible",
    "map_rates_perm_to_word",
    "map_rates_word_to_perm",
    "young_subgroup",
    "inv_blockwise",
    "check_commuting",
    "DIAGRAMS",
]


class IntertwinerMatrix(record("IntertwinerMatrix", "matrix source_states target_states kind")):
    """A state-indexed map between two spaces; kind is "projection" or "inclusion"."""


# Two-entry memo keyed by builder and arguments: the two diagrams of one
# chain build each of their fine and coarse matrices once.
@lru_cache(maxsize=2)
def _matrix(build, *args):
    return build(*args).matrix


def _projection(fine, coarse, to_class) -> IntertwinerMatrix:
    """0/1 matrix sending each fine state to its class among the coarse ones."""
    m = state_matrix(fine, coarse, lambda s: ((to_class(s), 1),))
    return IntertwinerMatrix(m, fine, coarse, "projection")


def proj_flags_to_perms(n: int, p: int) -> IntertwinerMatrix:
    """0/1 matrix sending each coset to its double-coset permutation."""
    from .flags import _flag_states, coset_to_perm

    return _projection(_flag_states(n, p), _content_states((1,) * n), coset_to_perm)


def incl_perms_to_flags(n: int, p: int) -> IntertwinerMatrix:
    """Each permutation spreads over its double coset with coefficient
    q^inv(pi)."""
    from .flags import _flag_states, coset_to_perm

    flags = _flag_states(n, p)
    perms = _content_states((1,) * n)
    cosets = {perm: [] for perm in perms}
    for f in flags:
        cosets[coset_to_perm(f)].append(f)

    def row(perm):
        c = Fraction(p) ** inv(perm)
        return ((f, c) for f in cosets[perm])

    m = state_matrix(perms, flags, row)
    return IntertwinerMatrix(m, perms, flags, "inclusion")


def proj_perms_to_words(m) -> IntertwinerMatrix:
    """0/1 matrix sending a permutation to its destandardized word."""
    perms, words = _content_states((1,) * sum(m)), _content_states(tuple(m))
    return _projection(perms, words, lambda perm: destandardize(perm, m))


def young_subgroup(m):
    """Elements of the direct product of symmetric groups on the blocks M_i,
    each as a value map over [n]."""
    blocks = block_sets(m)
    n = sum(m)
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        tau = list(range(n + 1))  # tau[v] = image of value v; index 0 unused
        for block, images in zip(blocks, parts):
            for v, img in zip(block, images):
                tau[v] = img
        out.append(tuple(tau))
    return out


def inv_blockwise(tau, m) -> int:
    """Inversions of a Young-subgroup element, summed block by block."""
    return sum(inv([tau[v] for v in block]) for block in block_sets(m))


def incl_words_to_perms(m, q) -> IntertwinerMatrix:
    """Each word spreads over its standardization fiber with coefficients
    q^(-inv_m(tau))."""
    q = Fraction(q)
    perms, words = _content_states((1,) * sum(m)), _content_states(tuple(m))
    taus = [(tau, q ** -inv_blockwise(tau, m)) for tau in young_subgroup(m)]

    def row(w):
        std = standardize(w)
        return ((tuple(tau[v] for v in std), c) for tau, c in taus)

    mat = state_matrix(words, perms, row)
    return IntertwinerMatrix(mat, words, perms, "inclusion")


def is_m_compatible(rates: PermRates, m) -> bool:
    """True iff y_i = x_i/q^(n-i) is constant on every block of m."""
    if sum(m) != rates.n:
        raise ValueError("composition does not match the rate vector")
    for block in block_sets(m):
        ys = {rates.y(i) for i in block}
        if len(ys) > 1:
            return False
    return True


def map_rates_perm_to_word(rates: PermRates, m) -> WordRates:
    """xbar_j = [m_j]_q x_{n_j}; only defined for m-compatible rates."""
    if not is_m_compatible(rates, m):
        raise ValueError("rates are not m-compatible")
    xbar = (q_int(len(block), rates.q) * rates.x[block[-1] - 1] for block in block_sets(m))
    return WordRates(rates.q, tuple(xbar), tuple(m))


def map_rates_word_to_perm(rates: WordRates) -> PermRates:
    """Fill each block by y-constancy: x_{n_{j-1}+i} = q^(m_j - i) xbar_j / [m_j]_q."""
    q = rates.q
    x = []
    for j, part in enumerate(rates.m, start=1):
        base = rates.xbar[j - 1] / q_int(part, q)
        for i in range(1, part + 1):
            x.append(q ** (part - i) * base)
    return PermRates(q, tuple(x))


DIAGRAMS = (
    "flags-perms-proj",
    "flags-perms-incl",
    "perms-words-proj",
    "perms-words-incl",
)


def check_commuting(diagram: str, rates: PermRates, p: int = None, m=None) -> bool:
    """Exact matrix identity for one of the four commuting diagrams, in the
    form its intertwiner's kind takes (see the module docstring), checked
    row by row without storing either product.

    The word diagrams take the permutation rates (which must be
    m-compatible) and derive the word rates from them.
    """
    proj = diagram.endswith("-proj")
    if diagram in ("flags-perms-proj", "flags-perms-incl"):
        if p is None:
            raise ValueError("flag diagrams need the field size")
        from .flags import transition_matrix_flags

        fine = _matrix(transition_matrix_flags, rates, p)
        coarse = _matrix(transition_matrix_perm, rates)
        intertwiner = proj_flags_to_perms(rates.n, p) if proj else incl_perms_to_flags(rates.n, p)
    elif diagram in ("perms-words-proj", "perms-words-incl"):
        if m is None:
            raise ValueError("word diagrams need the composition")
        coarse = _matrix(transition_matrix_word, map_rates_perm_to_word(rates, m))
        fine = _matrix(transition_matrix_perm, rates)
        intertwiner = proj_perms_to_words(m) if proj else incl_words_to_perms(m, rates.q)
    else:
        raise ValueError(f"unknown diagram {diagram!r}; expected one of {DIAGRAMS}")
    x = intertwiner.matrix
    if intertwiner.kind == "projection":
        return products_equal(fine, x, x, coarse)
    return products_equal(x, fine, coarse, x)
