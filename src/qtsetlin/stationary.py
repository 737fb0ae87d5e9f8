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
k-th denominator on the content of w[:k-1], the k-th numerator on the letter
v = w_k and the content of the letters below v in w[:k-1].  (The numerator
is kappa(s v) - kappa(s)/q on the segment s = w[p_k-1:k-1], which starts at
the first letter below v.  A letter of s at or above v sorts before v in
both kappas, at the same power of q, so it cancels; every letter before p_k
is at or above v.)  A content is keyed by its integer code sum_j count_j w_j
with w_j = (m_1 + 1) ... (m_{j-1} + 1), so the code of the letters below v
is the code mod w_v, and a numerator is keyed by v * radix + that
(radix = w_{l+1}).  Every factor is a
sum of c_j q^(-e) terms, 1 <= e <= n, and of the total rate, so `scale`, the
lcm of the denominators of the c_j and the total times |qn|^n, makes each an
integer; the memo on the rates (`WordRates._factor_memo`, set up by
`_factor_memo`) keeps scale times each factor, evaluated once per key by
`_position_factors`.  A word has n - 1 numerator and n - 1 denominator
factors, so the scales cancel.  `word_factors` and the walk below share the
memo.

Since the k-th factors read only w[:k], `stationary_word_formula` evaluates
the closed form in one depth-first walk of the prefix tree, visiting the
prefixes in lexicographic order, so the words come out in `word_states`
order.  A node loops over the letters still left, one step per edge of the
tree, and carries the content code, the inversion number (a letter adds the
count of smaller letters still to place) and the integer products of the
numerator and denominator factors fixed so far.
Each leaf builds one Fraction with its prefactor.  A vanishing denominator
stops the walk at the first prefix that has one and names the first word
below it, the same word and k the per-word product reports; numerators that
vanish do not stop it.

`StationaryVector.total` adds the values as int pairs, with one Fraction at
the end, and `as_dict` picks its state printer once per vector.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, lcm

from .combinatorics import inv, perm_states, q_factorial, state_key
from .exact import _combine_rows, integer_numerators, left_null_space, record, shift
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
        """The exact sum, added pairwise on (numerator, denominator) ints
        over the lcm of the denominators, with one gcd per addition and one
        Fraction at the end.  A binary counter keeps one pending partial sum
        per level, so no second list of the values is made."""
        pending = []
        for i, v in enumerate(self.values, start=1):
            a, b = v.numerator, v.denominator
            while not i & 1:
                a, b = _add_pair(*pending.pop(), a, b)
                i >>= 1
            pending.append((a, b))
        a, b = 0, 1
        for pair in pending:
            a, b = _add_pair(*pair, a, b)
        return Fraction(a, b)

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
        """{state_key(state): format_rational(value)}, with the state printer
        picked once for the vector (see `_state_names`) and each value
        printed by `str`, which for a Fraction is the same string."""
        return dict(zip(_state_names(self.states), map(str, self.values)))


def _add_pair(a, b, c, d):
    """a/b + c/d as an int pair over lcm(b, d), not reduced further."""
    g = gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _state_names(states):
    """`state_key` of every state: `to_str` for flags, a digit string for
    every state when each letter of each is 0..9, and otherwise `state_key`
    state by state (commas for the states with a letter above 9)."""
    if states and hasattr(states[0], "to_str"):
        return [s.to_str() for s in states]
    try:
        digits = max(bytes(chain.from_iterable(states)), default=0) <= 9
    except (TypeError, ValueError):
        digits = False
    if digits:
        return [bytes(s).translate(_DIGITS).decode() for s in states]
    return [state_key(s) for s in states]


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


@lru_cache(maxsize=64)
def _fiber_factor(m, q) -> Fraction:
    """Fiber inversion sum: the factor per part is [m_i]_{1/q}!, that is
    q^(-binom(m_i,2)) [m_i]_q!  (not q^(-m_i+1); the two agree only for
    parts <= 2, and only this form makes the entries sum to 1)."""
    out = Fraction(1)
    for part in m:
        out *= q ** (-(part * (part - 1) // 2)) * q_factorial(part, q)
    return out


def _factor_memo(rates: WordRates) -> dict:
    """The rates' factor memo (see the module docstring), set up on first
    use: the content-code weights w_j (index j) and radix, the common
    denominator `scale` of the factors, the prefactor as an int pair per
    inversion number, and the "den" and "num" tables, filled on use."""
    memo = rates._factor_memo
    if "den" not in memo:
        q = rates.q
        weights = [0]
        radix = 1
        for part in rates.m:
            weights.append(radix)
            radix *= part + 1
        # A factor is a sum of c_j q^(-e) terms, 1 <= e <= n, and of the total.
        scale = lcm(rates.total().denominator, rates.kappa_ints[0])
        scale *= abs(q.numerator) ** rates.n
        fiber = _fiber_factor(rates.m, q)
        most = (rates.n**2 - sum(part * part for part in rates.m)) // 2
        pre = [fiber * q**-i for i in range(most + 1)]
        memo.update(
            weights=tuple(weights), radix=radix, scale=scale, den={}, num={},
            pre=[(x.numerator, x.denominator) for x in pre],
        )
    return memo


def _position_factors(word, k, rates: WordRates):
    """scale times the (numerator, denominator) factor at position k,
    1 <= k < n, of a word whose first k letters are `word[:k]`; nothing
    later is read.  Each is read from the memo under its key and evaluated
    on a miss."""
    memo = _factor_memo(rates)
    weights, scale = memo["weights"], memo["scale"]
    prefix = word[: k - 1]
    code = sum(weights[u] for u in prefix)
    if (d := memo["den"].get(code)) is None:
        x = rates.total() - rates.q ** (k - 1 - rates.n) * kappa_word(prefix, rates)
        d = memo["den"][code] = x.numerator * (scale // x.denominator)
    v = word[k - 1]
    key = v * memo["radix"] + code % weights[v]
    if (f := memo["num"].get(key)) is None:
        below = [u for u in prefix if u < v]
        x = kappa_word((*below, v), rates) - kappa_word(below, rates) / rates.q
        f = memo["num"][key] = x.numerator * (scale // x.denominator)
    return f, d


def word_factors(word, rates: WordRates):
    """(prefactor, numerator factors, denominator factors) for one word,
    each read from the rates' factor memo under the data it depends on."""
    pairs = [_position_factors(word, k, rates) for k in range(1, rates.n)]
    memo = _factor_memo(rates)
    scale = memo["scale"]
    return (
        Fraction(*memo["pre"][inv(word)]),
        [Fraction(f, scale) for f, _ in pairs],
        [Fraction(d, scale) for _, d in pairs],
    )


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
    memo = _factor_memo(rates)
    weights, radix, dens, nums, pre = (memo[k] for k in ("weights", "radix", "den", "num", "pre"))
    remaining = [0, *rates.m]
    left = list(range(1, rates.letters + 1))
    if n < 2:
        return StationaryVector((tuple(left),), (Fraction(*pre[0]),))
    word, states, values = [], [], []

    def walk(k, code, inversions, a, b):
        if (d := dens.get(code)) is None:
            d = _position_factors(word + left[:1], k + 1, rates)[1]
        if not d:
            name = state_key(word + [u for u in left for _ in range(remaining[u])])
            raise ValueError(f"word formula denominator factor k={k + 1} vanishes at state {name}")
        b *= d
        below = 0
        for i in range(len(left)):
            v = left[i]
            if (f := nums.get(v * radix + code % weights[v])) is None:
                f = _position_factors(word + [v], k + 1, rates)[0]
            count = remaining[v]
            if k == n - 2:
                # Two letters are left: the child is a word with its last letter.
                pn, pd = pre[inversions + below]
                states.append((*word, v, left[1 - i] if count == 1 else v))
                values.append(Fraction(a * f * pn, b * pd))
                below += count
                continue
            remaining[v] = count - 1
            if count == 1:
                del left[i]
            word.append(v)
            walk(k + 1, code + weights[v], inversions + below, a * f, b)
            word.pop()
            if count == 1:
                left.insert(i, v)
            remaining[v] = count
            below += count

    walk(0, 0, 0, 1, 1)
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
