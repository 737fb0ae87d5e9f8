"""
Complete flags over a prime field, their distinguished coset representatives,
the line-insertion Markov chain on flags, and the partial-flag semigroup with
its right-Cayley-graph stationary formula.

A flag is stored through its representative matrix, kept as a tuple of
columns over Z/pZ.  The representative is canonical: the rightmost nonzero
entry of every row is 1 and is a column pivot (equivalently, every column's
pivot is its topmost nonzero entry and pivot rows vanish in later columns).
Column operations only ever add earlier columns to later ones or rescale, so
they never change the chain of column spans.

All F_p vector arithmetic runs on `_VectorCodes`, one per (n, p), on
vectors coded as ints, through three walks: `reduce` to canonical columns
(for `insert_line` and the coset action), `extend`, which grows a reduced
echelon basis one vector at a time (for the subspaces of partial flags,
whose pivot rows are cleared in every other basis vector, so subspace
equality is tuple equality), and `entry_step`, the step at which a vector
enters a flag (for the path method); the line-insertion table uses its
memos directly.  Codes are decoded only where a `FlagRep` or a basis is
returned.

`insert_line` re-canonicalizes the whole flag with the line in front; the
line-insertion table does not.  A canonical column c_k is the unique
normalized vector of c_k + V_{k-1} that vanishes on the lead rows of
V_{k-1}.  Inserting v with entry step j (the least j with v in V_j) leaves
V_{k-1} unchanged for every k > j, so the new flag's columns are the
canonical columns of (v, c_1, ..., c_{j-1}) followed by c_{j+1}, ..., c_n as
they are.  `insert_line` stays as its reference.

The table is built in one depth-first walk over the prefix tree of the
flags sorted by their column codes, where the flags below a node, those
with the canonical prefix c_1..c_k, form one contiguous range.  Prefix
lemma: the flags of that range share V_1..V_k, so a line's entry step, and
the canonical columns of (v, c_1, ..., c_k), are fixed at the node; the
walk carries both down the tree one column per level.  Subtree pairing: a
line entering at step j below the node (c_1..c_j) goes to the node
canonical(v, c_1..c_{j-1}); both nodes span V_j, and the suffixes
c_{j+1}, ..., c_n that complete a canonical flag depend only on V_j, so the
two ranges list the same suffixes in the same order and pair up by
position.
"""

import bisect
import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod

from .combinatorics import _content_states
from .exact import record, state_matrix
from .hecke_chains import LinearOperator, PermRates, _shuffle_operator

__all__ = [
    "is_prime",
    "Line",
    "enumerate_lines",
    "FlagRep",
    "enumerate_flags",
    "coset_to_perm",
    "insert_line",
    "hecke_generator_coset",
    "weight_op_flags",
    "transition_matrix_flags",
    "transition_matrix_flags_hecke",
    "PartialFlag",
    "span_basis",
    "lrb_product",
    "rcayley_stationary",
]


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Miller-Rabin on the first 13 primes as bases, which is exact below
    PRIME_TEST_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)); a
    ValueError at or above it."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"field size {p} is too large: the primality test is exact only below {PRIME_TEST_BOUND}")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s is the largest power of 2 dividing p - 1
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x != 1 and all(pow(x, 2**r, p) != p - 1 for r in range(s)):
            return False
    return True


def _check_prime(p):
    if not is_prime(p):
        raise ValueError(f"field size {p} is not prime")


class Line(record("Line", "lead tail")):
    """Line <e_i + sum_{k>i} c_k e_k>: lead index i (1-based) plus the tail c."""

    def vector(self, n: int) -> tuple:
        v = [0] * n
        v[self.lead - 1] = 1
        for k, c in enumerate(self.tail, start=self.lead):
            v[k] = c
        return tuple(v)


def enumerate_lines(n: int, p: int):
    """All [n]_p lines of the space, in canonical lead-index form."""
    _check_prime(p)
    out = []
    for lead in range(1, n + 1):
        for tail in itertools.product(range(p), repeat=n - lead):
            out.append(Line(lead, tail))
    return out


class FlagRep(record("FlagRep", "cols p")):
    """Canonical coset representative; cols[j] spans V_{j+1} together with
    the earlier columns."""

    @property
    def n(self):
        return len(self.cols)

    def rows(self):
        return tuple(zip(*self.cols))

    def to_str(self) -> str:
        sep = "" if self.p <= 9 else ","
        return "|".join(sep.join(str(a) for a in row) for row in self.rows())


class _Memo(dict):
    """Dict that fills a missing key with `fill(key)` and keeps it."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _VectorCodes:
    """F_p^n with each vector coded as the int sum_r v[r] p^(n-1-r) in
    [0, p^n).  Entry r of code x is x // weights[r] % p.  `decode(x)` is
    the tuple of entries of x, `minus[x, c, y]` the code of x - c*y and
    `pivot[x]` (lead row, code of x scaled so its lead entry is 1), all
    three read from memos filled on first use."""

    def __init__(self, n, p):
        self.p = p
        self.weights = tuple(p ** (n - 1 - r) for r in range(n))
        self.decode = _Memo(self._digits).__getitem__
        self.minus = _Memo(self._minus)
        self.pivot = _Memo(self._pivot)

    def encode(self, v) -> int:
        x = 0
        for a in v:
            x = x * self.p + a % self.p
        return x

    def _digits(self, x) -> tuple:
        return tuple(x // w % self.p for w in self.weights)

    def _minus(self, key):
        x, c, y = key
        return self.encode([a - c * b for a, b in zip(self.decode(x), self.decode(y))])

    def _pivot(self, x):
        v = self.decode(x)
        lead = next(r for r, a in enumerate(v) if a)
        s = pow(v[lead], self.p - 2, self.p)
        return lead, self.encode([a * s for a in v])

    def reduce(self, cols):
        """Column-reduce codes to canonical form; dependent columns drop out.

        Returns the columns in input order and the (pivot row, column) pairs
        sorted by pivot row.  Sweeping the placed pivot rows from top to
        bottom suffices, because clearing a pivot row only disturbs the rows
        below it.
        """
        p, weights, minus, pivot = self.p, self.weights, self.minus, self.pivot
        out, placed = [], []
        for col in cols:
            for row, other in placed:
                c = col // weights[row] % p
                if c:
                    col = minus[col, c, other]
            if col:
                lead, col = pivot[col]
                out.append(col)
                bisect.insort(placed, (lead, col))
        return out, placed

    def extend(self, placed, vectors):
        """Add the vectors to `placed`, the (lead row, code) pairs of a
        reduced echelon basis sorted by lead row, in place.

        Each vector is reduced at the placed pivot rows and normalized; its
        lead row is then cleared from the placed columns.  The vector
        vanishes at their pivot rows, so they stay reduced.  A column is
        changed only when it is nonzero at the vector's lead row, which then
        lies below the column's lead, and the vector is zero above that row,
        so every lead stays in place.
        """
        p, weights, minus, pivot = self.p, self.weights, self.minus, self.pivot
        for v in vectors:
            x = self.encode(v)
            for row, col in placed:
                c = x // weights[row] % p
                if c:
                    x = minus[x, c, col]
            if x:
                lead, x = pivot[x]
                weight = weights[lead]
                for i, (row, col) in enumerate(placed):
                    c = col // weight % p
                    if c:
                        placed[i] = row, minus[col, c, x]
                bisect.insort(placed, (lead, x))

    def entry_step(self, cols, leads, v) -> int:
        """The least j with v in V_j (0 for v = 0), for the column codes of
        a complete canonical flag and their pivot rows.

        v is reduced against the columns in order, each at its pivot row.  A
        column vanishes at the pivot rows of the earlier columns, so this
        writes v in the column basis, and V_j holds v exactly when every
        coefficient after column j is zero.
        """
        p, weights, minus = self.p, self.weights, self.minus
        for j, (col, lead) in enumerate(zip(cols, leads), start=1):
            c = v // weights[lead] % p
            if c:
                v = minus[v, c, col]
                if not v:
                    return j
        return 0


# One per (n, p): the memos carry over between the calls on a space.
@lru_cache(maxsize=8)
def _vector_codes(n, p):
    return _VectorCodes(n, p)


def _flag_codes(flag: FlagRep):
    codes = _vector_codes(flag.n, flag.p)
    return codes, [codes.encode(col) for col in flag.cols]


def _decoded_flag(codes, cols) -> FlagRep:
    return FlagRep(tuple(map(codes.decode, cols)), codes.p)


def coset_to_perm(flag: FlagRep) -> tuple:
    """Permutation pi with pi_j = pivot row of column j (1-based): the
    first nonzero entry of a canonical column is its leading 1."""
    return tuple(col.index(1) + 1 for col in flag.cols)


def enumerate_flags(n: int, p: int):
    """All canonical representatives: cosets grouped by their permutation in
    lexicographic order, free entries in column-major lexicographic order."""
    _check_prime(p)
    out = []
    for perm in _content_states((1,) * n):
        col_of_row = {row: c for c, row in enumerate(perm, start=1)}
        free = [
            (r, c)
            for c in range(1, n + 1)
            for r in range(perm[c - 1] + 1, n + 1)
            if col_of_row[r] > c
        ]
        free.sort(key=lambda rc: (rc[1], rc[0]))
        for values in itertools.product(range(p), repeat=len(free)):
            cols = [[0] * n for _ in range(n)]
            for c in range(1, n + 1):
                cols[c - 1][perm[c - 1] - 1] = 1
            for (r, c), v in zip(free, values):
                cols[c - 1][r - 1] = v
            out.append(FlagRep(tuple(tuple(col) for col in cols), p))
    return out


# Memo keyed by (n, p): the suites build each flag space they reach
# several times, at different rates.
@lru_cache(maxsize=8)
def _flag_states(n, p):
    return tuple(enumerate_flags(n, p))


def insert_line(flag: FlagRep, line: Line) -> FlagRep:
    """Prepend the line as a new first column and re-canonicalize; the
    dependent column drops out, leaving the flag with the line in front."""
    codes, cols = _flag_codes(flag)
    out, _ = codes.reduce([codes.encode(line.vector(flag.n)), *cols])
    if len(out) != flag.n:
        raise ValueError("line insertion lost a dimension")
    return _decoded_flag(codes, out)


@lru_cache(maxsize=8)
def _line_codes(n, p):
    """(lead, code) of every line, in `enumerate_lines` order."""
    codes = _vector_codes(n, p)
    return tuple((line.lead, codes.encode(line.vector(n))) for line in enumerate_lines(n, p))


@lru_cache(maxsize=8)
def _insertion_table(n, p):
    """(flags, leads, targets): targets[f][l] is the index of the flag that
    inserting line l of `_line_codes`, of lead index leads[l], in front of
    flag f gives, at any rates."""
    states = _flag_states(n, p)
    leads, line_codes = zip(*_line_codes(n, p))
    return states, leads, _insertion_targets(states, line_codes, n, p)


def _insertion_targets(states, line_codes, n, p):
    """The targets of `_insertion_table`, in one walk over the prefix tree.

    The walk (see the module docstring) visits the nodes of the prefix tree
    as ranges of the flags sorted by their column codes; a node of depth k
    spans [n-k]_p! flags.  The children of a node are the normalized
    vectors that vanish on the lead rows of its V_k, in ascending code
    order, so where a node starts follows from its columns' ranks among
    them.  Each line not yet in V_k is carried as (line, unit, target): its
    reduction at the pivot rows of c_1..c_k, scaled to a leading 1, and the
    start of the node canonical(v, c_1..c_k).  Every line not in V_{n-1}
    enters at the leaf.  Targets are filled one line at a time, a slice per
    range, or one entry where the range holds one flag.
    """
    codes = _vector_codes(n, p)
    weights, minus, pivot = codes.weights, codes.minus, codes.pivot
    order = sorted(range(len(states)), key=lambda f: tuple(map(codes.encode, states[f].cols)))
    spans = [1]  # spans[m] = [m]_p!, the flags below a node of depth n - m
    for m in range(1, n + 1):
        spans.append(spans[-1] * (p**m - 1) // (p - 1))

    def ranks(mask):
        """{code: rank} of the normalized vectors vanishing on the rows in
        the bit mask, ascending: a lower leading 1 gives a smaller code, and
        so do smaller entries below it, the upper rows first."""
        free = [r for r in range(n) if not mask >> r & 1]
        out = {}
        for i in reversed(range(len(free))):
            below = free[i + 1 :]
            for digits in itertools.product(range(p), repeat=len(below)):
                out[weights[free[i]] + sum(a * weights[r] for a, r in zip(digits, below))] = len(out)
        return out

    def descend(key):
        """None when the line of `unit` enters at the child c of a node
        whose V_k has the lead rows in `mask`; else its unit below c and the
        rank of the column that c adds to canonical(v, c_1..c_k).  The
        reduction loses its entry at c's pivot row; the column is c cleared
        at the unit's lead row, since c already vanishes on the lead rows of
        V_k."""
        mask, unit, c = key
        x = unit // weights[pivot[c][0]] % p
        rest = minus[unit, x, c] if x else unit
        if not rest:
            return None
        lead = pivot[unit][0]
        y = c // weights[lead] % p
        col = pivot[minus[c, y, unit]][1] if y else c
        return pivot[rest][1], children[mask | 1 << lead][col]

    children, steps = _Memo(ranks), _Memo(descend)
    columns = [[None] * len(states) for _ in line_codes]

    def walk(start, mask, k, pending):
        if k == n - 1:  # V_n holds every line
            for line, _, target in pending:
                columns[line][start] = order[target]
            return
        step, deeper = spans[n - k - 1], spans[n - k - 2]
        for t, c in enumerate(children[mask]):
            first = start + t * step
            below = []
            for line, unit, target in pending:
                if down := steps[mask, unit, c]:
                    below.append((line, down[0], target + down[1] * deeper))
                elif step == 1:
                    columns[line][first] = order[target]
                else:
                    columns[line][first : first + step] = order[target : target + step]
            if below:
                walk(first, mask | 1 << pivot[c][0], k + 1, below)

    top = children[0]
    walk(0, 0, 0, [(line, v, top[v] * spans[n - 1]) for line, v in enumerate(line_codes)])
    targets = [None] * len(states)
    for f, row in zip(order, zip(*columns)):
        targets[f] = row
    return targets


def _act_coset(flag: FlagRep, i: int):
    """flag . T_i as (target, coeff) pairs: the column swap plus the p-1
    lower-triangular corrections a + t*b = a - (p-t)*b, every image
    re-canonicalized."""
    codes, cols = _flag_codes(flag)
    p = flag.p
    head, (a, b), tail = cols[: i - 1], cols[i - 1 : i + 1], cols[i + 1 :]
    pairs = [(b, a)] + [(codes.minus[a, p - t, b], b) for t in range(1, p)]
    return tuple((_decoded_flag(codes, codes.reduce([*head, *pair, *tail])[0]), 1) for pair in pairs)


def hecke_generator_coset(i: int, n: int, p: int) -> LinearOperator:
    """Right action of T_i on the flag basis (see `_act_coset`)."""
    _check_prime(p)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    states = _flag_states(n, p)
    return LinearOperator(states, state_matrix(states, states, lambda f: _act_coset(f, i)))


def _flag_weight(rates: PermRates):
    """Weight of a coset: x_i/q^(n-i), where i is the row of the leading 1
    in its first column."""
    return lambda flag: rates.y(coset_to_perm(flag)[0])


def weight_op_flags(rates: PermRates, p: int) -> LinearOperator:
    """Diagonal operator scaling every coset by its weight."""
    _check_rates(rates, p)
    states = _flag_states(rates.n, p)
    weight = _flag_weight(rates)
    return LinearOperator(states, state_matrix(states, states, lambda f: ((f, weight(f)),)))


def _check_rates(rates: PermRates, p: int):
    _check_prime(p)
    if rates.q != p:
        raise ValueError("flag chain requires q equal to the field size")


def transition_matrix_flags(rates: PermRates, p: int) -> LinearOperator:
    """Transition matrix on flags: row F adds, for every line L, the weight
    of L at the column obtained by inserting L in front of F."""
    _check_rates(rates, p)
    states, leads, targets = _insertion_table(rates.n, p)
    d, ys = rates.ybar_ints
    scaled = [ys[lead - 1] for lead in leads]
    index = range(len(states))
    matrix = state_matrix(index, index, lambda f: zip(targets[f], scaled), d)
    return LinearOperator(states, matrix)


def transition_matrix_flags_hecke(rates: PermRates, p: int) -> LinearOperator:
    """Same operator assembled from the Hecke generators and the diagonal
    weight; independent of line insertion, so it cross-checks
    transition_matrix_flags."""
    _check_rates(rates, p)
    states = _flag_states(rates.n, p)
    matrix = _shuffle_operator(states, _act_coset, rates, lambda f: coset_to_perm(f)[0])
    return LinearOperator(states, matrix)


# ---------------------------------------------------------------------------
# Subspaces and the partial-flag semigroup


def _span_steps(n, p, batches, placed=()):
    """The reduced echelon basis, ordered by pivot row, of the span of
    `placed` (the (lead row, code) pairs of a reduced echelon basis) and the
    batches so far, after each batch that grows it."""
    codes = _vector_codes(n, p)
    placed = list(placed)
    for batch in batches:
        size = len(placed)
        codes.extend(placed, batch)
        if len(placed) > size:
            yield tuple(codes.decode(col) for _, col in placed)


def span_basis(vectors, p):
    """Reduced echelon basis of the span, ordered by pivot row."""
    vectors = list(vectors)
    if not vectors:
        return ()
    return next(_span_steps(len(vectors[0]), p, [vectors]), ())


class PartialFlag(record("PartialFlag", "chain n p")):
    """Strictly increasing chain of nonzero subspaces, each a reduced
    echelon basis."""

    @classmethod
    def from_vectors(cls, vector_chains, n, p):
        """Build from cumulative spanning vectors, one batch per step: each
        step spans the top subspace so far plus its batch, and batches that
        do not grow the span are dropped, so the empty flag is the identity
        of `lrb_product`."""
        return cls(tuple(_span_steps(n, p, vector_chains)), n, p)


def lrb_product(a: PartialFlag, b: PartialFlag) -> PartialFlag:
    """Concatenate-and-saturate product; repeated subspaces are removed: a's
    chain stays, and its top's codes grow by each subspace of b in turn."""
    if a.n != b.n or a.p != b.p:
        raise ValueError("partial flags live in different spaces")
    if not a.chain:
        return b
    if len(a.chain[-1]) == a.n:
        return a
    codes = _vector_codes(a.n, a.p)
    top = [codes.pivot[codes.encode(v)] for v in a.chain[-1]]
    return PartialFlag(a.chain + tuple(_span_steps(a.n, a.p, b.chain, top)), a.n, a.p)


def _path_weights(rates: PermRates, p: int):
    """The line weights `rates.ybar_ints`, (D, (D y_1, ..., D y_n)), after
    checking p and that the rates sum to 1; kept in the rates' factor memo
    under ("path", p), so the checks run once per (rates, p).  A failed
    check raises before anything is kept, so it fails on every call."""
    memo = rates._factor_memo
    if (weights := memo.get(("path", p))) is None:
        _check_rates(rates, p)
        if rates.total() != 1:
            raise ValueError("the path method requires rates summing to 1")
        weights = memo["path", p] = rates.ybar_ints
    return weights


def rcayley_stationary(rates: PermRates, p: int, flag: FlagRep) -> Fraction:
    """Stationary mass of a complete flag via transition-edge paths in the
    right Cayley graph of the partial-flag semigroup.

    Every transition path from the empty flag to F walks F's prefix chain,
    so parallel edges are grouped per step: the numerator collects the lines
    first contained at each step, the denominator the stabilizing lines.
    Requires the rates to sum to 1 and a canonical flag.

    The line weights y_i are summed as integers over their lcm D: with sw_j
    the weight entering at step j times D and stab_j = sw_1 + ... + sw_j,
    the value is prod_j sw_j * D^(n-1) / (D^n * prod_{j<n} (D - stab_j)).
    """
    scale, ys = _path_weights(rates, p)
    n = flag.n
    codes, cols = _flag_codes(flag)
    leads = [col.index(1) for col in flag.cols]
    step_weight = [0] * (n + 1)
    for lead, v in _line_codes(n, p):
        step_weight[codes.entry_step(cols, leads, v)] += ys[lead - 1]
    den = scale**n
    stab = 0
    for j in range(1, n):
        stab += step_weight[j]
        if stab == scale:
            raise ValueError(f"stabilizer weight of prefix {j} reaches 1; path method undefined")
        den *= scale - stab
    return Fraction(scale ** (n - 1) * prod(step_weight[1:]), den)
