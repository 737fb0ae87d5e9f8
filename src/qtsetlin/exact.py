"""
Exact linear algebra over the rationals.

Every scalar in this package is a `fractions.Fraction`, which is always stored
reduced with a positive denominator.  `Matrix` is stored dense and is the
exchange and equality type.  The chain matrices are very sparse, so products
skip zeros on both sides: `mat_mul` lists each row's nonzeros of its right
factor once.  Every state-indexed matrix of the package (generators, weights,
transition matrices, intertwiners) is assembled by `state_matrix` from one
sparse row of (target, coeff) pairs per source state.  `shift` forms
M - lambda I by copying the rows and changing only the diagonal, and
`scaled_integer_rows` gives D M as integer rows for the common denominator D
of M and a set of scalars, which the spectral checks work on.

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
    "rat",
    "format_rational",
    "parse_rational",
    "mat_mul",
    "rank_nullity",
    "null_space",
    "left_null_space",
]


def rat(value, denom=None) -> Fraction:
    """Coerce to Fraction; rat(a, b) means a/b."""
    if denom is not None:
        return Fraction(value, denom)
    return Fraction(value)


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


class Matrix:
    """Dense matrix of Fractions, row-major.  Treated as immutable."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        self.data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def zeros(cls, rows, cols):
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        zero = Fraction(0)
        m.data = [[zero] * cols for _ in range(rows)]
        return m

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        one = Fraction(1)
        for i in range(n):
            m.data[i][i] = one
        return m

    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.data))

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        c = Fraction(other)
        return Matrix([[x * c for x in row] for row in self.data])

    __rmul__ = __mul__

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def transpose(self):
        return Matrix(list(map(list, zip(*self.data)))) if self.rows else Matrix([])

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def row(self, r):
        return list(self.data[r])

    def row_sums(self):
        return [sum(row, Fraction(0)) for row in self.data]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def state_matrix(sources, targets, entries) -> Matrix:
    """Matrix with rows indexed by `sources` and columns by `targets`; the
    row of state s holds the (target, coeff) pairs of `entries(s)`, with
    repeated targets added up."""
    index = {t: c for c, t in enumerate(targets)}
    m = Matrix.zeros(len(sources), len(targets))
    for s, row in zip(sources, m.data):
        for t, c in entries(s):
            row[index[t]] += c
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; zero entries of both factors are skipped."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    out = Matrix.zeros(a.rows, b.cols)
    bnz = [[(k, y) for k, y in enumerate(row) if y] for row in b.data]
    for arow, orow in zip(a.data, out.data):
        for j, x in enumerate(arow):
            if x:
                for k, y in bnz[j]:
                    orow[k] += x * y
    return out


def vec_mat(v, m: Matrix):
    """Row vector times matrix, exact; zeros of both factors are skipped."""
    if len(v) != m.rows:
        raise ValueError("dimension mismatch")
    out = [Fraction(0)] * m.cols
    for j, x in enumerate(v):
        if x:
            row = m.data[j]
            for k, y in enumerate(row):
                if y:
                    out[k] += x * y
    return out


def shift(m: Matrix, lam) -> Matrix:
    """m - lam I for a square m."""
    if m.rows != m.cols:
        raise ValueError("shift expects a square matrix")
    out = Matrix.__new__(Matrix)
    out.rows = out.cols = m.rows
    out.data = shifted_rows(m.data, Fraction(lam))
    return out


def shifted_rows(rows, lam):
    """Copies of the square `rows` with lam subtracted on the diagonal."""
    out = [list(row) for row in rows]
    for i, row in enumerate(out):
        row[i] -= lam
    return out


def scaled_integer_rows(m: Matrix, scalars=()):
    """(D, rows): D is the least positive integer that makes D*x integral for
    every entry x of m and every x in `scalars`, and rows are the rows of
    D*m as lists of ints."""
    denominators = {x.denominator for row in m.data for x in row}
    denominators.update(Fraction(x).denominator for x in scalars)
    scale = lcm(*denominators)
    rows = [[x.numerator * (scale // x.denominator) for x in row] for row in m.data]
    return scale, rows


def _integer_rows(m: Matrix):
    """Scale each row by the lcm of its denominators (preserves row space,
    rank and right null space) and strip common factors."""
    rows = []
    for row in m.data:
        lcm = 1
        for x in row:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        ints = [x.numerator * (lcm // x.denominator) for x in row]
        g = gcd(*ints)
        if g > 1:
            ints = [v // g for v in ints]
        rows.append(ints)
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
