"""
Closed-form stationary distributions of the three chains, and the
independent left-null-space oracle they are checked against.

Each closed form is a product of explicit factors.  The factor lists are
exposed separately (`word_factors`, `flag_coset_factors`) so that positivity
can be asserted factor by factor and zero denominators can be reported
eagerly, naming the state and the offending factor.  The permutation chain is
the word chain at content (1^n), so `kappa_word` and `word_factors` take
`PermRates` as they are and `stationary_perm_formula` delegates to its word
version.

Each factor of a word w depends on little of it: the prefactor on inv(w), the
k-th denominator on the content of w[:k-1], the k-th numerator on the content
of w[p_k-1:k-1] and the letter w_k.  `_position_factors` evaluates both
factors at position k from w[:k] and memoizes them under that data on the
rates (`WordRates._factor_memo`), once per sub-multiset; `word_factors` and
the walk below both call it.

Since the k-th factors read only w[:k], `stationary_word_formula` evaluates
the closed form in one depth-first walk of the prefix tree, visiting the
prefixes in lexicographic order, so the words come out in `word_states`
order.  It carries three values down the tree: the inversion number (a
letter adds the count of smaller letters still to place) and the integer
numerator and denominator of the factors fixed so far.  A prefix of length k
multiplies in its k-th numerator and denominator factor, so every factor is
read once per prefix rather than once per word, and each leaf builds one
Fraction with its prefactor.  A vanishing denominator stops the walk at the
first prefix that has one and names the first word below it, the same word
and k the per-word product reports; numerators that vanish do not stop it.
"""

from fractions import Fraction
from functools import cached_property, lru_cache

from .combinatorics import inv, perm_states, q_factorial, state_key
from .exact import _combine_rows, format_rational, integer_numerators, left_null_space, record, shift
from .hecke_chains import LinearOperator, PermRates, WordRates

__all__ = [
    "StationaryVector",
    "kappa_word",
    "word_factors",
    "flag_coset_factors",
    "stationary_perm_formula",
    "stationary_word_formula",
    "stationary_flags_formula",
    "classical_tsetlin_stationary",
    "stationary_oracle",
]


class StationaryVector(record("StationaryVector", "states values")):
    """Left eigenvector with eigenvalue equal to the total rate, indexed by
    the chain's ordered states; `v[state]` is the value at a state."""

    @cached_property
    def _index(self):
        return {s: i for i, s in enumerate(self.states)}

    def __getitem__(self, state):
        return self.values[self._index[state]]

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def normalized(self) -> "StationaryVector":
        s = self.total()
        if s == 0:
            raise ValueError("vector sums to zero; cannot normalize")
        if s == 1:
            return self
        return StationaryVector(self.states, tuple(v / s for v in self.values))

    def is_left_eigenvector(self, op: LinearOperator, eigenvalue) -> bool:
        """Exact check of v . M == eigenvalue * v on integers: with M stored
        as (D M) / D, eigenvalue = a / b and L v integral, it is
        b (L v) . (D M) == D a (L v)."""
        if self.states != op.states:
            raise ValueError("state index mismatch")
        m = op.matrix
        lam = Fraction(eigenvalue)
        ints = integer_numerators(self.values)[1]
        lhs = _combine_rows(ints, m.int_rows, [0] * len(ints))
        b, da = lam.denominator, m.denominator * lam.numerator
        return all(b * x == da * v for x, v in zip(lhs, ints))

    def as_dict(self):
        return {state_key(s): format_rational(v) for s, v in zip(self.states, self.values)}


def kappa_word(b, rates: WordRates) -> Fraction:
    """Weighted prefix sum over the weakly decreasing sort of b:
    sum_i xbar_{b_i} q^(i + n_{b_i} - k - 1) / [m_{b_i}]_q, which for
    `PermRates` is sum_i x_{b_i} q^(i + b_i - k - 1); empty tuple gives 0.

    With c_j = xbar_j q^(n_j) / [m_j]_q this is sum_i c_{b_i} q^(i - k - 1),
    evaluated by Horner's rule in 1/q."""
    c = rates.kappa_coeffs
    q_inv = 1 / rates.q
    total = Fraction(0)
    for v in sorted(b, reverse=True):
        total = (total + c[v - 1]) * q_inv
    return total


@lru_cache(maxsize=64)
def _fiber_factor(m, q) -> Fraction:
    """Fiber inversion sum: the factor per part is [m_i]_{1/q}!, that is
    q^(-binom(m_i,2)) [m_i]_q!  (not q^(-m_i+1); the two agree only for
    parts <= 2, and only this form makes the entries sum to 1)."""
    out = Fraction(1)
    for part in m:
        out *= q ** (-(part * (part - 1) // 2)) * q_factorial(part, q)
    return out


def _prefactor(inversions, rates: WordRates) -> Fraction:
    """q^(-inv(w)) times the fiber factor, memoized under the inversion number."""
    memo = rates._factor_memo
    if (pre := memo.get(("pre", inversions))) is None:
        pre = memo["pre", inversions] = rates.q**-inversions * _fiber_factor(rates.m, rates.q)
    return pre


def _position_factors(word, k, rates: WordRates):
    """(numerator, denominator) factor at position k, 1 <= k < n, of a word
    whose first k letters are `word[:k]`; nothing later is read."""
    memo = rates._factor_memo
    q = rates.q
    prefix = word[: k - 1]
    key = ("den", tuple(sorted(prefix)))
    if (d := memo.get(key)) is None:
        d = memo[key] = rates.total() - q ** (k - rates.n - 1) * kappa_word(prefix, rates)
    # The segment runs from p_k to k - 1; it is empty at a left-to-right minimum.
    v = word[k - 1]
    i = next((j for j in range(k - 1) if word[j] < v), k - 1)
    segment = word[i : k - 1]
    key = ("num", tuple(sorted(segment)), v)
    if (f := memo.get(key)) is None:
        f = memo[key] = kappa_word(word[i:k], rates) - kappa_word(segment, rates) / q
    return f, d


def word_factors(word, rates: WordRates):
    """(prefactor, numerator factors, denominator factors) for one word,
    each looked up in the rates' factor memo under the data it depends on."""
    pairs = [_position_factors(word, k, rates) for k in range(1, rates.n)]
    return _prefactor(inv(word), rates), [f for f, _ in pairs], [d for _, d in pairs]


def _product_of_factors(state, nums, dens):
    """prod(nums) / prod(dens) of the flag formula, multiplied out on integers
    and reduced once."""
    a = b = 1
    for f in nums:
        a *= f.numerator
        b *= f.denominator
    for k, d in enumerate(dens, start=1):
        if d == 0:
            name = state_key(state)
            raise ValueError(f"flag formula denominator factor k={k} vanishes at state {name}")
        a *= d.denominator
        b *= d.numerator
    return Fraction(a, b)


def stationary_perm_formula(rates: PermRates) -> StationaryVector:
    return stationary_word_formula(rates)


def stationary_word_formula(rates: WordRates) -> StationaryVector:
    """The closed form on every word, in one depth-first walk of the prefix
    tree (see the module docstring)."""
    n = rates.n
    letters = range(1, rates.letters + 1)
    remaining = [0, *rates.m]
    word, states, values = [], [], []

    def walk(inversions, a, b):
        k = len(word)
        if k == n:
            pre = _prefactor(inversions, rates)
            states.append(tuple(word))
            values.append(Fraction(a * pre.numerator, b * pre.denominator))
            return
        below = 0
        for v in letters:
            if not (count := remaining[v]):
                continue
            remaining[v] -= 1
            word.append(v)
            f, d = _position_factors(word, k + 1, rates) if k + 1 < n else (1, 1)
            if d == 0:
                name = state_key(word + [u for u in letters for _ in range(remaining[u])])
                raise ValueError(f"word formula denominator factor k={k + 1} vanishes at state {name}")
            walk(inversions + below, a * f.numerator * d.denominator, b * f.denominator * d.numerator)
            word.pop()
            remaining[v] += 1
            below += count

    walk(0, 1, 1)
    return StationaryVector(tuple(states), tuple(values))


def flag_coset_factors(perm, rates: PermRates):
    """(numerator factors, denominator factors) of the flag closed form for
    the distinguished coset of one permutation.  The k = n factor equals 1
    when the rates sum to 1."""
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

        f = Fraction(0)
        for s in perm[:k]:
            if s <= pik:
                term = rates.x[s - 1] / (q ** (n - s - b(s)) * total)
                if s < pik:
                    term *= q - 1
                f += term
        d = total - sum(
            (rates.x[s - 1] / q ** (n - s - b(s)) for s in prefix), Fraction(0)
        )
        nums.append(f)
        dens.append(d)
    return nums, dens


def stationary_flags_formula(rates: PermRates, p: int) -> StationaryVector:
    """Closed form over all flags; constant on each double coset, so it is
    evaluated once per permutation and spread over the coset."""
    from .flags import _check_rates, _flag_states, coset_to_perm

    _check_rates(rates, p)
    n = rates.n
    per_perm = {}
    for perm in perm_states(n):
        nums, dens = flag_coset_factors(perm, rates)
        per_perm[perm] = _product_of_factors(perm, nums, dens)
    states = _flag_states(n, p)
    return StationaryVector(states, tuple(per_perm[coset_to_perm(f)] for f in states))


def classical_tsetlin_stationary(x) -> StationaryVector:
    """Independent q = 1 oracle: the classical product formula
    prod_i x_{pi_i} / (x_{pi_{i+1}} + ... + x_{pi_n})."""
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    states = tuple(perm_states(n))
    values = []
    for perm in states:
        value = Fraction(1)
        for i in range(n):
            tail = sum((x[v - 1] for v in perm[i:]), Fraction(0))
            if tail == 0:
                raise ValueError("tail sum vanishes; classical formula undefined")
            value *= x[perm[i] - 1] / tail
        values.append(value)
    return StationaryVector(states, tuple(values))


def stationary_oracle(op: LinearOperator, total_rate) -> StationaryVector:
    """Null-space oracle: the unique left eigenvector of the transition
    matrix with eigenvalue equal to the total rate, normalized to sum 1."""
    total_rate = Fraction(total_rate)
    basis = left_null_space(shift(op.matrix, total_rate))
    if len(basis) != 1:
        raise ValueError(
            f"left null space has dimension {len(basis)}, expected 1 "
            "(non-generic rates or wrong total rate)"
        )
    v = basis[0]
    s = sum(v, Fraction(0))
    if s == 0:
        raise ValueError("stationary vector sums to zero; cannot normalize")
    return StationaryVector(op.states, tuple(entry / s for entry in v))
