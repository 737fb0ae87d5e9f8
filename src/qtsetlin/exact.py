"""
Exact linear algebra over the rationals.

Every scalar in this package is a `fractions.Fraction`, which is always stored
reduced with a positive denominator.  `Matrix` is stored as sparse rows, one
{col: value} dict of nonzeros per row, and is the exchange and equality type;
`data` is a dense view built on access.  The chain matrices are very sparse,
and every operation touches only the nonzeros.  Every state-indexed matrix of
the package (generators, weights, transition matrices, intertwiners) is
assembled by `state_matrix` from one sparse row of (target, coeff) pairs per
source state; int coefficients over a common denominator are summed as ints
and divided once.  `mat_mul` likewise sums the products of the integer rows
of D_a A and D_b B and divides once by D_a D_b.  `shift` forms M - lambda I,
and `scaled_integer_rows` gives D M as sparse integer rows for the common
denominator D of M and a set of scalars, which the annihilation check and
`mat_mul` work on.

Elimination is fraction-free: rows are scaled to integers and reduced by
cross-multiplication followed by a gcd division, so intermediate entries stay
no larger than the corresponding minors.
"""

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

__all__ = [
    "Rational",
    "Matrix",
    "format_rational",
    "parse_rational",
    "mat_mul",
    "rank_nullity",
    "null_space",
    "left_null_space",
]


def format_rational(x: Fraction) -> str:
    """Canonical string form: "a/b" with b > 0, plain "a" when b == 1."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Inverse of format_rational (also accepts integer strings)."""
    return Fraction(s.strip())


_ZERO = Fraction(0)


class Matrix:
    """Matrix of Fractions; `nonzeros[r]` maps each column of a nonzero of row
    r to its value.  Zeros are never stored.  Treated as immutable."""

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, data):
        data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self.nonzeros = [{c: x for c, x in enumerate(row) if x} for row in data]

    @classmethod
    def _from_nonzeros(cls, nonzeros, cols):
        m = cls.__new__(cls)
        m.rows, m.cols, m.nonzeros = len(nonzeros), cols, nonzeros
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._from_nonzeros([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        one = Fraction(1)
        return cls._from_nonzeros([{i: one} for i in range(n)], n)

    @property
    def data(self):
        """Dense rows, built on each access."""
        return [self.row(r) for r in range(self.rows)]

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) out of range for a {self.rows}x{self.cols} matrix")
        return self.nonzeros[r].get(c, _ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self.nonzeros)))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return Matrix._from_nonzeros(
            [_accumulate([*a.items(), *b.items()]) for a, b in zip(self.nonzeros, other.nonzeros)],
            self.cols,
        )

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        c = Fraction(other)
        return Matrix._from_nonzeros(
            [_accumulate((k, x * c) for k, x in row.items()) for row in self.nonzeros], self.cols
        )

    __rmul__ = __mul__

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.nonzeros):
            for c, x in row.items():
                out[c][r] = x
        return Matrix._from_nonzeros(out, self.rows)

    def is_zero(self):
        return not any(self.nonzeros)

    def row(self, r):
        out = [_ZERO] * self.cols
        for c, x in self.nonzeros[r].items():
            out[c] = x
        return out

    def row_sums(self):
        return [sum(row.values(), _ZERO) for row in self.nonzeros]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _accumulate(pairs):
    """Sparse row of the (col, value) pairs: repeated columns are added up,
    and the entries that cancel to zero are dropped."""
    row = {}
    for c, x in pairs:
        row[c] = row[c] + x if c in row else x
    return {c: x for c, x in row.items() if x}


def state_matrix(sources, targets, entries, denominator=1) -> Matrix:
    """Matrix with rows indexed by `sources` and columns by `targets`; the
    row of state s holds the (target, coeff) pairs of `entries(s)` over
    `denominator`, repeated targets added up first (ints as ints)."""
    index = {t: c for c, t in enumerate(targets)}
    rows = (_accumulate((index[t], x) for t, x in entries(s)) for s in sources)
    return Matrix._from_nonzeros(
        [{c: _over(x, denominator) for c, x in row.items()} for row in rows], len(targets)
    )


def _over(x, denominator):
    """x / denominator as a Fraction; a Fraction over 1 is kept as it is."""
    return x if denominator == 1 and type(x) is Fraction else Fraction(x, denominator)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over the nonzeros of both factors: with D_a a and D_b b
    as integer rows, the products are summed as ints and each nonzero of the
    result is one Fraction over D_a D_b."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    da, left = scaled_integer_rows(a)
    db, right = scaled_integer_rows(b)
    d = da * db
    rows = (
        _accumulate((k, x * y) for j, x in row.items() for k, y in right[j].items())
        for row in left
    )
    return Matrix._from_nonzeros([{k: Fraction(x, d) for k, x in row.items()} for row in rows], b.cols)


def vec_mat(v, m: Matrix):
    """Row vector times matrix, exact; zeros of both factors are skipped."""
    if len(v) != m.rows:
        raise ValueError("dimension mismatch")
    return _combine_rows(v, m.nonzeros, [_ZERO] * m.cols)


def _combine_rows(v, rows, out):
    """out + sum_j v[j] rows[j] for sparse {col: value} rows; zeros of v are skipped."""
    for x, row in zip(v, rows):
        if x:
            for k, y in row.items():
                out[k] += x * y
    return out


def shift(m: Matrix, lam) -> Matrix:
    """m - lam I for a square m; a ValueError for any other shape."""
    return m - lam * Matrix.identity(m.rows)


def scaled_integer_rows(m: Matrix, scalars=()):
    """(D, rows): D is the least positive integer that makes D*x integral for
    every entry x of m and every x in `scalars`, and rows are the sparse rows
    of D*m as {col: int} dicts."""
    denominators = {x.denominator for row in m.nonzeros for x in row.values()}
    denominators.update(Fraction(x).denominator for x in scalars)
    scale = lcm(*denominators)
    rows = [{c: x.numerator * (scale // x.denominator) for c, x in row.items()} for row in m.nonzeros]
    return scale, rows


def integer_numerators(values):
    """(d, ints): d is the lcm of the denominators of the sequence `values`,
    and ints are the values times d."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _integer_rows(m: Matrix):
    """Dense int rows: each row scaled by the lcm of its denominators
    (preserves row space, rank and right null space), common factors stripped."""
    rows = []
    for row in m.nonzeros:
        ints = [0] * m.cols
        for c, x in zip(row, integer_numerators(row.values())[1]):
            ints[c] = x
        g = gcd(*ints)
        rows.append([v // g for v in ints] if g > 1 else ints)
    return rows


def _echelon(rows, cols):
    """Fraction-free row echelon form of integer rows, in place.

    Cross-multiplication updates keep everything integral; dividing each new
    row by its gcd removes at least the Bareiss factor, so entries stay
    minor-sized.  Returns the list of pivot columns.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            v = rows[i][c]
            if v:
                if best is None or abs(v) < abs(rows[best][c]):
                    best = i
                    if abs(v) == 1:
                        break
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            new = [piv * a - v * b for a, b in zip(rows[i], rows[r])]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            rows[i] = new
        pivots.append(c)
        r += 1
    return pivots


def rank_nullity(m: Matrix):
    """Exact (rank, nullity); rank + nullity == cols."""
    rows = _integer_rows(m)
    pivots = _echelon(rows, m.cols)
    rank = len(pivots)
    return rank, m.cols - rank


def null_space(m: Matrix):
    """Basis of the right null space { x : m x = 0 }, as lists of Fractions."""
    cols = m.cols
    rows = _integer_rows(m)
    pivots = _echelon(rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [Fraction(0)] * cols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = rows[r]
            s = Fraction(0)
            for k in range(pc + 1, cols):
                if row[k] and x[k]:
                    s += row[k] * x[k]
            x[pc] = -s / row[pc]
        basis.append(x)
    return basis


def left_null_space(m: Matrix):
    """Basis of { v : v m = 0 }, exact."""
    if m.rows != m.cols:
        raise ValueError("left_null_space expects a square matrix")
    return null_space(m.transpose())
