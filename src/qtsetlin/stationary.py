"""
Closed-form stationary distributions of the three chains, and the
independent left-null-space oracle they are checked against.

Each closed form is a product of explicit factors.  The factor lists are
exposed separately (`word_factors`, `flag_coset_factors`) so that positivity
can be asserted factor by factor and zero denominators can be reported
eagerly, naming the state and the offending factor.  The permutation chain is
the word chain at content (1^n), so `kappa_perm`, `perm_factors` and
`stationary_perm_formula` delegate to their word versions.

Each factor of a word w depends on little of it: the prefactor on inv(w), the
k-th denominator on the content of w[:k-1], the k-th numerator on the content
of w[p_k-1:k-1] and the letter w_k.  `word_factors` memoizes them under that
data on the rates (`WordRates._factor_memo`), once per sub-multiset.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .combinatorics import inv, perm_states, q_factorial, state_key, word_states
from .exact import _combine_rows, format_rational, integer_numerators, left_null_space
from .exact import scaled_integer_rows, shift
from .flags import _check_rates, coset_to_perm, enumerate_flags
from .hecke_chains import LinearOperator, PermRates, WordRates

__all__ = [
    "StationaryVector",
    "kappa_perm",
    "kappa_word",
    "perm_factors",
    "word_factors",
    "flag_coset_factors",
    "stationary_perm_formula",
    "stationary_word_formula",
    "stationary_flags_formula",
    "classical_tsetlin_stationary",
    "stationary_oracle",
]


@dataclass(frozen=True)
class StationaryVector:
    """Left eigenvector with eigenvalue equal to the total rate, indexed by
    the chain's ordered states."""

    states: tuple
    values: tuple

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
        return StationaryVector(self.states, tuple(v / s for v in self.values))

    def is_left_eigenvector(self, op: LinearOperator, eigenvalue) -> bool:
        """Exact check of v . M == eigenvalue * v on integers, as
        (L v) . (D M) == (D eigenvalue) (L v) for the common denominators."""
        if self.states != op.states:
            raise ValueError("state index mismatch")
        scale, rows = scaled_integer_rows(op.matrix, [eigenvalue])
        lam = int(Fraction(eigenvalue) * scale)
        ints = integer_numerators(self.values)[1]
        return _combine_rows(ints, rows, [0] * len(ints)) == [lam * v for v in ints]

    def as_dict(self):
        return {state_key(s): format_rational(v) for s, v in zip(self.states, self.values)}


def kappa_perm(b, rates: PermRates) -> Fraction:
    """Weighted prefix sum over the weakly decreasing sort of b:
    sum_i x_{b_i} q^(i + b_i - k - 1); the empty tuple gives 0."""
    return kappa_word(b, rates)


def kappa_word(b, rates: WordRates) -> Fraction:
    """Word analogue: sum_i xbar_{b_i} q^(i + n_{b_i} - k - 1) / [m_{b_i}]_q
    on the weakly decreasing sort; empty tuple gives 0.

    With c_j = xbar_j q^(n_j) / [m_j]_q this is sum_i c_{b_i} q^(i - k - 1),
    evaluated by Horner's rule in 1/q."""
    if not b:
        return Fraction(0)
    c = rates.kappa_coeffs
    q_inv = 1 / rates.q
    first, *rest = sorted(b, reverse=True)
    total = c[first - 1]
    for v in rest:
        total = total * q_inv + c[v - 1]
    return total * q_inv


def perm_factors(perm, rates: PermRates):
    """(prefactor, numerator factors, denominator factors) of the closed form
    for one permutation."""
    return word_factors(perm, rates)


@lru_cache(maxsize=64)
def _fiber_factor(m, q) -> Fraction:
    """Fiber inversion sum: the factor per part is [m_i]_{1/q}!, that is
    q^(-binom(m_i,2)) [m_i]_q!  (not q^(-m_i+1); the two agree only for
    parts <= 2, and only this form makes the entries sum to 1)."""
    out = Fraction(1)
    for part in m:
        out *= q ** (-(part * (part - 1) // 2)) * q_factorial(part, q)
    return out


def word_factors(word, rates: WordRates):
    """(prefactor, numerator factors, denominator factors) for one word,
    each looked up in the rates' factor memo under the data it depends on."""
    memo = rates._factor_memo
    n = rates.n
    q = rates.q
    key = ("pre", inv(word))
    if (pre := memo.get(key)) is None:
        pre = memo[key] = q ** -key[1] * _fiber_factor(rates.m, q)
    nums = []
    dens = []
    for k in range(1, n):
        prefix = word[: k - 1]
        key = ("den", tuple(sorted(prefix)))
        if (d := memo.get(key)) is None:
            d = memo[key] = rates.total() - q ** (k - n - 1) * kappa_word(prefix, rates)
        dens.append(d)
        # The segment runs from p_k to k - 1; it is empty at a left-to-right minimum.
        v = word[k - 1]
        i = next((j for j in range(k - 1) if word[j] < v), k - 1)
        segment = word[i : k - 1]
        key = ("num", tuple(sorted(segment)), v)
        if (f := memo.get(key)) is None:
            f = memo[key] = kappa_word(word[i:k], rates) - kappa_word(segment, rates) / q
        nums.append(f)
    return pre, nums, dens


def _product_of_factors(state, pre, nums, dens, label):
    """pre * prod(nums) / prod(dens), multiplied out on integers and reduced once."""
    a, b = pre.numerator, pre.denominator
    for f in nums:
        a *= f.numerator
        b *= f.denominator
    for k, d in enumerate(dens, start=1):
        if d == 0:
            name = state_key(state)
            raise ValueError(f"{label} denominator factor k={k} vanishes at state {name}")
        a *= d.denominator
        b *= d.numerator
    return Fraction(a, b)


def stationary_perm_formula(rates: PermRates) -> StationaryVector:
    return stationary_word_formula(rates)


def stationary_word_formula(rates: WordRates) -> StationaryVector:
    states = tuple(word_states(rates.m))
    values = []
    for word in states:
        pre, nums, dens = word_factors(word, rates)
        values.append(_product_of_factors(word, pre, nums, dens, "word formula"))
    return StationaryVector(states, tuple(values))


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
    _check_rates(rates, p)
    n = rates.n
    per_perm = {}
    for perm in perm_states(n):
        nums, dens = flag_coset_factors(perm, rates)
        per_perm[perm] = _product_of_factors(perm, Fraction(1), nums, dens, "flag formula")
    states = tuple(enumerate_flags(n, p))
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
