"""
Hecke generator actions on words, the diagonal weight operators, and the
resulting transition matrices.  The permutation chain is the word chain at
content (1^n): every letter occurs once, so PermRates is WordRates at that
content and the perm entry points pass their rates on to the word code.

All operators act on the right.  A LinearOperator stores its matrix in the
row-to-column convention: entry (r, c) is the coefficient of state c in
(state r) . Op.  Composing "apply A, then B" therefore multiplies matrices in
the same order, matrix(A) @ matrix(B).

The generator acts on a sequence by

    s . T_i = q * swap(s, i)              if s[i+1] <= s[i]
              swap(s, i) + (q-1) * s      if s[i+1] > s[i]

and the full shuffle operator is sum_{i=1}^{n} T_{i-1} ... T_1 X, where the
i = 1 summand is the identity and X is the diagonal weight operator.  At
q = 1 this is the classical move-to-front chain.

The structure constants of T_i lie in Z[q].  With q = qn/qd, every chain
supplies only its states, its integer generator action act(s, i) (the
(target, coeff) pairs of s . (qd T_i)) and the letter that weights each
state; the matrix is stored as int rows over one denominator.
`_shuffle_operator` builds the transition matrix row by row from the
action, with no matrix products: Horner's rule w <- qd^(n-i) s + w .
(qd T_i) for i = n-1, ..., 1, on a sparse {row index: int} dict w, gives
qd^(n-1) s . (1 + T_1 + T_2 T_1 + ... + T_{n-1} ... T_1).  Each target is
scaled by its letter's numerator in `WordRates.ybar_ints`, the letter
weights over their lcm D, over the denominator qd^(n-1) D.  The word chain
uses it with `_act`, the flag chain (`flags.transition_matrix_flags_hecke`)
with the coset action (qd = 1).  `_shuffle_sum` keeps the product form, a
sum of products of generator matrices, as an independent oracle.

`kappa_word` evaluates the weighted letter sum kappa that the upper-set
eigenvalues and the word closed form's factors (`stationary`) both read.
`Chain` is the one handle on a chain of any of the three spaces.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from types import MappingProxyType

from .combinatorics import _content_states, enumerate_upper_sets, q_factorial, q_int
from .exact import Matrix, integer_numerators, mat_mul, record, state_matrix

__all__ = [
    "PermRates",
    "WordRates",
    "LinearOperator",
    "hecke_generator_perm",
    "hecke_generator_word",
    "weight_op_perm",
    "weight_op_word",
    "transition_matrix_perm",
    "transition_matrix_word",
    "generic_perm_rates",
    "generic_word_rates",
    "Chain",
]


class WordRates(record("WordRates", "q xbar m")):
    """Rates for the word chain: one weight per letter and the content m."""

    def __new__(cls, q, xbar, m):
        self = super().__new__(cls, Fraction(q), tuple(Fraction(v) for v in xbar), tuple(int(v) for v in m))
        if self.q == 0:
            raise ValueError("q must be nonzero")
        if len(self.xbar) != len(self.m):
            raise ValueError("one rate per letter required")
        if any(part < 1 for part in self.m):
            raise ValueError("content parts must be positive")
        if any(q_int(part, self.q) == 0 for part in self.m):
            raise ValueError(f"q = {self.q} makes [m_j]_q vanish for a part of m = {self.m}")
        return self

    @property
    def n(self):
        return sum(self.m)

    @property
    def letters(self):
        return len(self.m)

    def total(self) -> Fraction:
        return self._total

    @cached_property
    def _total(self) -> Fraction:
        return sum(self.xbar, Fraction(0))

    def ybar(self, j: int) -> Fraction:
        """ybar_j = xbar_j / (q^(n - n_j) [m_j]_q), 1-based."""
        return self._ybar[j - 1]

    @cached_property
    def _ybar(self) -> tuple:
        out = []
        n_j = 0
        for xbar, part in zip(self.xbar, self.m):
            n_j += part
            out.append(xbar / (self.q ** (self.n - n_j) * q_int(part, self.q)))
        return tuple(out)

    @cached_property
    def ybar_ints(self) -> tuple:
        """(D, (D ybar_1, ..., D ybar_l)) with D the lcm of the denominators:
        the one integer form of the letter weights every builder reads."""
        d, ints = integer_numerators(self._ybar)
        return d, tuple(ints)

    @cached_property
    def upper_set_values(self) -> MappingProxyType:
        """Read-only {a: lambda_a} for every upper set a of
        `enumerate_upper_sets(m)`, in its order: lambda_a = sum_j ybar_j
        q^(a_{j+1} + ... + a_l) [a_j]_q over the letters with a_j > 0,
        which is q^(|a| - n) kappa(b_a) for the word b_a holding a_j copies
        of letter j: both are sum_{t < |a|} ybar_{j(t)} q^t, with j(t) the
        letters of b_a from the last (a_l times l, then a_(l-1) times l-1)."""
        out = {}
        for a in enumerate_upper_sets(self.m):
            b = tuple(j for j, count in enumerate(a, start=1) for _ in range(count))
            out[a] = self.q ** (len(b) - self.n) * kappa_word(b, self)
        return MappingProxyType(out)

    @cached_property
    def kappa_coeffs(self) -> tuple:
        """c_j = xbar_j q^(n_j) / [m_j]_q = ybar_j q^n for every letter j."""
        return tuple(y * self.q**self.n for y in self._ybar)

    @cached_property
    def kappa_ints(self) -> tuple:
        """(L, (L c_1, ..., L c_l)): the kappa coefficients as integers over
        the lcm L of their denominators."""
        d, ints = integer_numerators(self.kappa_coeffs)
        return d, tuple(ints)

    @cached_property
    def _factor_memo(self) -> dict:
        """Values derived from the rates on first use and kept: the word
        closed-form factors (`stationary._factor_memo`) and, under ("path",
        p), the path method's line weights (`flags._path_weights`)."""
        return {}


class PermRates(WordRates):
    """Rates x_i for the permutation chain: the word rates at content (1^n)."""

    def __new__(cls, q, x):
        return super().__new__(cls, q, x, (1,) * len(x))

    def __getnewargs__(self):
        return self.q, self.xbar

    @property
    def x(self):
        return self.xbar

    def y(self, i: int) -> Fraction:
        """Change of variables y_i = x_i / q^(n-i), 1-based: ybar_i at content (1^n)."""
        return self._ybar[i - 1]


def kappa_word(b, rates: WordRates) -> Fraction:
    """Weighted prefix sum over the weakly decreasing sort of b:
    sum_i xbar_{b_i} q^(i + n_{b_i} - k - 1) / [m_{b_i}]_q, which for
    `PermRates` is sum_i x_{b_i} q^(i + b_i - k - 1); empty tuple gives 0.

    With c_j = xbar_j q^(n_j) / [m_j]_q this is sum_i c_{b_i} q^(i - k - 1),
    evaluated by Horner's rule in 1/q on integers: with c_j = C_j / L and
    q = qn/qd, the sum after t letters is A / (L qn^t), and the next letter
    v makes it (A + C_v qn^t) qd / (L qn^(t+1))."""
    scale, coeffs = rates.kappa_ints
    qn, qd = rates.q.numerator, rates.q.denominator
    a = 0
    power = 1
    for v in sorted(b, reverse=True):
        a = (a + coeffs[v - 1] * power) * qd
        power *= qn
    return Fraction(a, scale * power)


def _random_positive_rationals(count, rng):
    vals = [Fraction(rng.randint(1, 40), rng.randint(41, 97)) for _ in range(count)]
    total = sum(vals, Fraction(0))
    return tuple(v / total for v in vals)


def generic_perm_rates(n: int, seed=0, q=None) -> PermRates:
    """The word sampler at content (1^n), whose upper-set eigenvalues are the
    subset eigenvalues."""
    return _sample_rates((1,) * n, seed, q, PermRates)


def generic_word_rates(m, seed=0, q=None) -> WordRates:
    """Random positive letter rates summing to 1, resampled until the
    upper-set eigenvalues are pairwise distinct.  Equal arguments give the
    same (frozen) object, with its memos and its upper-set values."""
    return _sample_rates(tuple(m), seed, q, WordRates)


@lru_cache(maxsize=256)
def _sample_rates(m, seed, q, kind):
    import random

    rng = random.Random(seed)
    for _ in range(200):
        qq = q if q is not None else Fraction(rng.randint(2, 7))
        xbar = _random_positive_rationals(len(m), rng)
        rates = PermRates(qq, xbar) if kind is PermRates else WordRates(qq, xbar, m)
        values = rates.upper_set_values.values()
        if len(set(values)) == len(values):
            return rates
    raise ValueError(f"no rates with distinct eigenvalues found for m={tuple(m)} at q={q}")


class LinearOperator(record("LinearOperator", "states matrix")):
    """Square matrix together with its ordered state index."""

    def __new__(cls, states, matrix):
        if matrix.rows != matrix.cols or matrix.rows != len(states):
            raise ValueError("operator matrix must be square over the state index")
        return super().__new__(cls, states, matrix)

    def index(self):
        return {s: i for i, s in enumerate(self.states)}


def _act(s, i, qn, qd):
    """s . (qd T_i) as (target, int coeff) pairs, for q = qn/qd; T_i swaps
    the entries at 1-based positions i, i+1."""
    swapped = s[: i - 1] + (s[i], s[i - 1]) + s[i + 1 :]
    if s[i] <= s[i - 1]:
        return ((swapped, qn),)
    return ((swapped, qd), (s, qn - qd))


def _generator_matrix(states, i, q):
    q = Fraction(q)
    qn, qd = q.numerator, q.denominator
    return state_matrix(states, states, lambda s: _act(s, i, qn, qd), qd)


def hecke_generator_perm(i: int, n: int, q) -> LinearOperator:
    """Right action of T_i on S_n, states in lexicographic order."""
    return hecke_generator_word(i, (1,) * n, q)


def hecke_generator_word(i: int, m, q) -> LinearOperator:
    """Right action of T_i on words of content m (equal letters pick up q)."""
    n = sum(m)
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range for n={n}")
    states = _content_states(tuple(m))
    return LinearOperator(states, _generator_matrix(states, i, q))


def weight_op_perm(rates: PermRates) -> LinearOperator:
    """Diagonal operator sending a permutation to x_{pi_1}/q^(n-pi_1) times itself."""
    return weight_op_word(rates)


def weight_op_word(rates: WordRates) -> LinearOperator:
    """Diagonal operator sending a word to ybar_{w_1} times itself."""
    states = _content_states(rates.m)
    return LinearOperator(states, state_matrix(states, states, lambda w: ((w, rates.ybar(w[0])),)))


def _shuffle_sum(generator_matrices, size):
    """Matrix of sum_{i=1}^{n} T_{i-1} ... T_1 (i = 1 term is the identity).

    T_{i-1} acts first, so the i-th summand is M_{i-1} @ ... @ M_1; each
    summand extends the previous one by one more generator on the left.
    """
    total = Matrix.identity(size)
    partial = Matrix.identity(size)
    for gen in generator_matrices:
        partial = mat_mul(gen, partial)
        total = total + partial
    return total


def transition_matrix_perm(rates: PermRates) -> LinearOperator:
    """Transition matrix of the weighted shuffle on S_n (lexicographic states)."""
    return transition_matrix_word(rates)


def _shuffle_operator(states, act, rates, lead):
    """Matrix of sum_{i=1}^{n} T_{i-1} ... T_1 X, X weighting state t by
    ybar_{lead(t)}, from the integer action act(s, i) of qd T_i at q =
    rates.q, one sparse row per state, by Horner's rule on ints (see the
    module docstring).  Everything runs on row indices: the action is
    tabulated per generator as a list holding, for row u, the (column,
    coeff) pairs of act(states[u], i), each filled on first use with zero
    coefficients dropped.  Each finished row goes to `Matrix` as it is."""
    n, qd = rates.n, rates.q.denominator
    d, ys = rates.ybar_ints
    scaled = [ys[lead(t) - 1] for t in states]
    index = {s: c for c, s in enumerate(states)}
    tables = [[None] * len(states) for _ in range(n)]
    lifts = [qd ** (n - i) for i in range(n)]
    rows = []
    for r in range(len(states)):
        w = {r: 1}
        for i in range(n - 1, 0, -1):
            table = tables[i]
            nxt = {r: lifts[i]}
            for u, a in w.items():
                if (pairs := table[u]) is None:
                    pairs = table[u] = tuple((index[t], c) for t, c in act(states[u], i) if c)
                for t, c in pairs:
                    nxt[t] = nxt.get(t, 0) + a * c
            w = nxt
        rows.append({t: x for t, a in w.items() if (x := a * scaled[t])})
    return Matrix._from_int_rows(rows, len(states), qd ** (n - 1) * d)


def transition_matrix_word(rates: WordRates) -> LinearOperator:
    """Transition matrix of the weighted shuffle on words of content m."""
    qn, qd = rates.q.numerator, rates.q.denominator
    states = _content_states(rates.m)
    return LinearOperator(states, _shuffle_operator(states, lambda u, i: _act(u, i, qn, qd), rates, lambda t: t[0]))


# The suites that `suites.run_suite` runs, and the flag cap of `Chain.fits`:
# here, so that the CLI reads them without loading `suites`.
SUITES = ("all", "matrix", "stationary", "spectra", "lumping", "hecke", "q1-reduction", "properties")

FLAG_STATE_CAP = 400


class Chain(record("Chain", "space rates p", defaults=(None,))):
    """One chain: its space ("perm", "word" or "flag"), its rates and, for
    flags, the prime p (the rates carry q = p); the one handle on a chain
    that the CLI and the suites build from, and the one definition of the
    checks both run.  Each method imports the builder of its space and
    reads it off the builder's module at call time, so a command loads only
    the layers it runs."""

    @property
    def name(self):
        """The prefix of the chain's check names."""
        if self.space == "word":
            return f"word m={self.rates.m}"
        if self.space == "flag":
            return f"flag n={self.rates.n} p={self.p}"
        return f"perm n={self.rates.n}"

    def size(self):
        """The state count from its closed form, before any enumeration:
        the multinomial coefficient of the content (n! for perm), or [n]_p!."""
        if self.space == "flag":
            return int(q_factorial(self.rates.n, self.p))
        size = factorial(self.rates.n)
        for part in self.rates.m:
            size //= factorial(part)
        return size

    def fits(self, cap=FLAG_STATE_CAP):
        """Whether the chain has at most cap states; every cap is checked here."""
        return cap is None or self.size() <= cap

    def _build(self, perm, word, flags):
        if self.space == "flag":
            return flags(self.rates, self.p)
        return (perm if self.space == "perm" else word)(self.rates)

    def operator(self):
        """The transition matrix."""
        if self.space == "flag":
            from .flags import transition_matrix_flags

            return transition_matrix_flags(self.rates, self.p)
        return self._build(transition_matrix_perm, transition_matrix_word, None)

    def formula(self):
        """The closed-form stationary vector."""
        from .stationary import stationary_flags_formula, stationary_perm_formula, stationary_word_formula

        return self._build(stationary_perm_formula, stationary_word_formula, stationary_flags_formula)

    def catalog(self):
        """The eigenvalue catalog with its predicted multiplicities."""
        from .spectra import eigen_catalog_flags, eigen_catalog_perm, eigen_catalog_word

        return self._build(eigen_catalog_perm, eigen_catalog_word, eigen_catalog_flags)

    def stationary(self, method, op=None):
        """The stationary vector by one method: "formula", the closed form
        normalized; "oracle", the left null space of the transition matrix
        (op when given, else built); "semigroup", the flag path method."""
        if method == "formula":
            return self.formula().normalized()
        if method == "oracle":
            from .stationary import stationary_oracle

            return stationary_oracle(self.operator() if op is None else op, self.rates.total())
        if method != "semigroup" or self.space != "flag":
            raise ValueError(f"no stationary method {method!r} on the {self.space} space")
        from .flags import _flag_states, rcayley_stationary
        from .stationary import StationaryVector

        flags = _flag_states(self.rates.n, self.p)
        return StationaryVector(flags, tuple(rcayley_stationary(self.rates, self.p, f) for f in flags))

    def diagrams(self):
        """{diagram: commutes} for the two commuting diagrams from the
        chain's space to the next coarser one: flags onto perms for a flag
        chain, perms onto the words of its content for the others."""
        from .lumping import DIAGRAMS, check_commuting, map_rates_word_to_perm

        if self.space == "flag":
            return {d: check_commuting(d, self.rates, p=self.p) for d in DIAGRAMS[:2]}
        rates = map_rates_word_to_perm(self.rates)
        return {d: check_commuting(d, rates, m=self.rates.m) for d in DIAGRAMS[2:]}
