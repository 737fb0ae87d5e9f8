"""
Permutation and word statistics, q-integers, derangement counts, and the
chain-union poset machinery behind the word-chain eigenvalue multiplicities.

Permutations are tuples in one-line notation with values 1..n; words are
tuples over the alphabet 1..l with content m = (m_1, ..., m_l), meaning the
letter j occurs exactly m_j times.  Chain j of the poset carries the labels
{n_{j-1}+1, ..., n_j} with n_j = m_1 + ... + m_j, bottom to top; an upper set
removes the top a_j elements of chain j.  A linear extension is a shuffle of
the chains: a word whose letter j stands for the next label of chain j.
"""

import itertools
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "inv",
    "coinv",
    "lrm_positions",
    "p_k",
    "content",
    "block_sets",
    "standardize",
    "destandardize",
    "q_int",
    "q_factorial",
    "derangement",
    "q_derangement",
    "perm_states",
    "word_states",
    "enumerate_upper_sets",
    "linear_extensions",
    "poset_derangements",
    "seq_to_str",
    "state_names",
]


def inv(seq) -> int:
    """Number of pairs i < j with seq[i] > seq[j]."""
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])


def coinv(seq) -> int:
    """Number of pairs i < j with seq[i] < seq[j]."""
    n = len(seq)
    return sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] < seq[j])


def lrm_positions(seq):
    """1-based positions j whose value has no strictly smaller value before it.

    For permutations this is the usual strict left-to-right minimum; for words
    it is the weak version (the value is weakly smallest in its prefix).
    Position 1 always qualifies.
    """
    out = []
    for j, v in enumerate(seq):
        if all(seq[i] >= v for i in range(j)):
            out.append(j + 1)
    return out


def p_k(seq, k: int) -> int:
    """Smallest 1-based position i < k with seq[i] < seq[k].

    Only defined off the left-to-right minima; raises ValueError otherwise.
    """
    v = seq[k - 1]
    for i in range(k - 1):
        if seq[i] < v:
            return i + 1
    raise ValueError(f"position {k} is a left-to-right minimum; no smaller value before it")


def content(word):
    """Content m of a word over 1..l (raises if some letter is missing)."""
    top = max(word)
    counts = [0] * top
    for v in word:
        counts[v - 1] += 1
    if any(c == 0 for c in counts):
        raise ValueError("word skips a letter; content parts must be positive")
    return tuple(counts)


def block_sets(m):
    """Blocks M_j = {n_{j-1}+1, ..., n_j} of a composition."""
    out = []
    lo = 1
    for part in m:
        out.append(tuple(range(lo, lo + part)))
        lo += part
    return out


def standardize(word):
    """Replace the letters equal to j, left to right, by the values of block M_j."""
    labels = [iter(block) for block in block_sets(content(word))]
    return tuple(next(labels[v - 1]) for v in word)


def destandardize(perm, m):
    """Send each value in block M_j to the letter j."""
    if sum(m) != len(perm):
        raise ValueError("composition does not match permutation size")
    letter = {}
    for j, block in enumerate(block_sets(m), start=1):
        for v in block:
            letter[v] = j
    return tuple(letter[v] for v in perm)


@lru_cache(maxsize=1024)
def q_int(k: int, q) -> Fraction:
    """[k]_q = 1 + q + ... + q^(k-1), valid at q = 1; memoized per (k, q)."""
    q = Fraction(q)
    total = Fraction(0)
    power = Fraction(1)
    for _ in range(k):
        total += power
        power *= q
    return total


def q_factorial(k: int, q) -> Fraction:
    """[k]_q! = [1]_q [2]_q ... [k]_q."""
    total = Fraction(1)
    for i in range(1, k + 1):
        total *= q_int(i, q)
    return total


def derangement(k: int) -> int:
    """Number of fixed-point-free permutations of k letters (d_0 = 1)."""
    if k < 0:
        raise ValueError("negative size")
    fact = 1
    for j in range(2, k + 1):
        fact *= j
    total = 0
    sign = 1
    jfact = 1
    for j in range(k + 1):
        total += sign * (fact // jfact)
        sign = -sign
        jfact *= j + 1
    return total


def q_derangement(k: int, q) -> Fraction:
    """[k]_q! sum_j (-1)^j q^binom(j,2) / [j]_q!; equals derangement(k) at q = 1."""
    q = Fraction(q)
    total = Fraction(0)
    for j in range(k + 1):
        # [k]_q! / [j]_q! = [j+1]_q [j+2]_q ... [k]_q
        ratio = Fraction(1)
        for t in range(j + 1, k + 1):
            ratio *= q_int(t, q)
        total += (-1) ** j * q ** (j * (j - 1) // 2) * ratio
    return total


def perm_states(n: int):
    """All of S_n in lexicographic order on one-line notation."""
    return list(_content_states((1,) * n))


def word_states(m):
    """All words of content m in lexicographic order."""
    return list(_content_states(tuple(m)))


@lru_cache(maxsize=64)
def _content_states(m) -> tuple:
    """The words of the content tuple m in lexicographic order, S_n at
    (1^n): enumerated once per content, and shared by every caller."""
    if all(part == 1 for part in m):
        return tuple(itertools.permutations(range(1, len(m) + 1)))
    letters = len(m)
    out = []

    def build(prefix, remaining):
        if sum(remaining) == 0:
            out.append(tuple(prefix))
            return
        for j in range(letters):
            if remaining[j]:
                remaining[j] -= 1
                prefix.append(j + 1)
                build(prefix, remaining)
                prefix.pop()
                remaining[j] += 1

    build([], list(m))
    return tuple(out)


def enumerate_upper_sets(m):
    """All weak compositions a with 0 <= a_j <= m_j (upper sets of the poset)."""
    return [a for a in itertools.product(*(range(part + 1) for part in m))]


def linear_extensions(m, removed=None):
    """Linear extensions of the chain-union poset with an upper set removed.

    Removing the upper set `removed` drops the top removed[j] labels of chain
    j.  Extensions are the words of `word_states` on the surviving chain
    lengths, each letter j replaced by the next original label of chain j.
    """
    if removed is None:
        removed = (0,) * len(m)
    if len(removed) != len(m) or any(a < 0 or a > part for a, part in zip(removed, m)):
        raise ValueError("upper set does not fit the composition")
    chains = [block[: part - cut] for block, part, cut in zip(block_sets(m), m, removed)]
    chains = [chain for chain in chains if chain]
    out = []
    for word in _content_states(tuple(len(chain) for chain in chains)):
        labels = [iter(chain) for chain in chains]
        out.append(tuple(next(labels[j - 1]) for j in word))
    return out


def poset_derangements(m, removed=None) -> int:
    """Linear extensions of the truncated poset with no fixed point.

    The surviving elements are relabelled consecutively within chains bottom
    up, so the truncated poset is again a naturally labelled union of chains;
    an extension (e_1, ..., e_N) is a derangement when e_j != j for all j.
    """
    if removed is None:
        removed = (0,) * len(m)
    return _chain_union_derangements(tuple(part - cut for part, cut in zip(m, removed) if part - cut > 0))


@lru_cache(maxsize=1024)
def _chain_union_derangements(m) -> int:
    """poset_derangements of the chain union with content m, once per m."""
    return sum(1 for ext in linear_extensions(m) if all(e != j for j, e in enumerate(ext, start=1)))


def seq_to_str(seq) -> str:
    """Digit string for values <= 9 ("3142"), comma-separated otherwise."""
    if all(v <= 9 for v in seq):
        return "".join(str(v) for v in seq)
    return ",".join(str(v) for v in seq)


def state_key(state) -> str:
    """Printed name of a chain state: a flag's `to_str()`, else `seq_to_str`."""
    return state.to_str() if hasattr(state, "to_str") else seq_to_str(state)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def state_names(states):
    """`state_key` of every state, made one at a time: `to_str` for flags, a
    digit string for every state when each letter of each is 0..9, and
    otherwise `state_key` state by state (commas for the states with a letter
    above 9)."""
    if states and hasattr(states[0], "to_str"):
        return (s.to_str() for s in states)
    try:
        digits = max(bytes(itertools.chain.from_iterable(states)), default=0) <= 9
    except (TypeError, ValueError):
        digits = False
    if digits:
        return (bytes(s).translate(_DIGITS).decode() for s in states)
    return map(state_key, states)
