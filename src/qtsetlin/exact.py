"""
Exact linear algebra over the rationals.

Every scalar in this package is a `fractions.Fraction`, which is always stored
reduced with a positive denominator.  `Matrix`, the exchange and equality
type, is stored as one positive denominator D and the sparse integer rows of
D M, one {col: int} dict of nonzeros per row; indexing, `row` and `data` give
Fractions.  Every operation touches only the nonzeros, as ints, with one lcm
or gcd per result.  `state_matrix` assembles a state-indexed matrix from one
sparse row of (target, coeff) pairs per source state; the shuffle operator
(`hecke_chains._shuffle_operator`) hands its int rows to `Matrix` directly.

Elimination is fraction-free: the integer rows, each divided by its gcd, are
reduced by cross-multiplication followed by a gcd division, so intermediate
entries stay no larger than the corresponding minors.  Back-substitution
for the null space stays on ints too, over one running denominator.

`record` makes the package's other value types.
"""

from collections import namedtuple
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


class _Frozen:
    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def record(name, fields, defaults=()):
    """Base class of an immutable value type with the given fields, as a
    frozen dataclass would have it: equal only to an instance of the same
    class with equal fields, hashed as the tuple of its fields and shown as
    `Name(field=value, ...)`.  A subclass has a `__dict__`, for
    `cached_property`."""
    return type(name, (_Frozen, namedtuple(name, fields, defaults=defaults)), {"__slots__": ()})


class Matrix:
    """Rational matrix stored as one positive `denominator` D and sparse
    integer rows: `int_rows[r]` maps each column of a nonzero of row r to
    D times its value.  The form is canonical, so equal matrices have equal
    fields: no zero is stored, gcd(D, every entry) == 1, and D == 1 for a
    zero matrix.  Treated as immutable."""

    __slots__ = ("rows", "cols", "denominator", "int_rows")

    def __init__(self, data):
        data = [[Fraction(x) for x in row] for row in data]
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        # Over the lcm of the reduced denominators, gcd(D, entries) is 1.
        self.denominator = d = lcm(*(x.denominator for row in data for x in row))
        self.int_rows = [{c: x.numerator * (d // x.denominator) for c, x in enumerate(row) if x} for row in data]

    @classmethod
    def _from_int_rows(cls, int_rows, cols, denominator=1):
        """int_rows / denominator, for rows without zeros and a positive
        denominator; the common factor of the denominator and the entries
        is divided out, and the rows are only copied when there is one."""
        g = denominator
        for row in int_rows:
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g > 1:
            int_rows = [{c: x // g for c, x in row.items()} for row in int_rows]
        m = cls.__new__(cls)
        m.rows, m.cols, m.denominator, m.int_rows = len(int_rows), cols, denominator // g, int_rows
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls._from_int_rows([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls._from_int_rows([{i: 1} for i in range(n)], n)

    @property
    def data(self):
        """Dense rows of Fractions, built on each access."""
        return [self.row(r) for r in range(self.rows)]

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"entry ({r}, {c}) out of range for a {self.rows}x{self.cols} matrix")
        return Fraction(self.int_rows[r].get(c, 0), self.denominator)

    def __eq__(self, other):
        fields = (self.cols, self.denominator, self.int_rows)
        return isinstance(other, Matrix) and fields == (other.cols, other.denominator, other.int_rows)

    def __hash__(self):
        rows = tuple(frozenset(row.items()) for row in self.int_rows)
        return hash((self.rows, self.cols, self.denominator, rows))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        d = lcm(self.denominator, other.denominator)
        sa, sb = d // self.denominator, d // other.denominator
        rows = [
            _accumulate([*((c, x * sa) for c, x in a.items()), *((c, x * sb) for c, x in b.items())])
            for a, b in zip(self.int_rows, other.int_rows)
        ]
        return Matrix._from_int_rows(rows, self.cols, d)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return mat_mul(self, other)
        c = Fraction(other)
        if not c:
            return Matrix.zeros(self.rows, self.cols)
        rows = [{k: x * c.numerator for k, x in row.items()} for row in self.int_rows]
        return Matrix._from_int_rows(rows, self.cols, self.denominator * c.denominator)

    __rmul__ = __mul__

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.int_rows):
            for c, x in row.items():
                out[c][r] = x
        return Matrix._from_int_rows(out, self.rows, self.denominator)

    def is_zero(self):
        return not any(self.int_rows)

    def row(self, r):
        d = self.denominator
        out = [Fraction(0)] * self.cols
        for c, x in self.int_rows[r].items():
            out[c] = Fraction(x, d)
        return out

    def row_sums(self):
        return [Fraction(sum(row.values()), self.denominator) for row in self.int_rows]

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
    `denominator`, repeated targets added up first (ints as ints).  Fraction
    coefficients are scaled to ints over their lcm."""
    index = {t: c for c, t in enumerate(targets)}
    rows = [_accumulate((index[t], x) for t, x in entries(s)) for s in sources]
    if any(type(x) is not int for row in rows for x in row.values()):
        scale = lcm(*(x.denominator for row in rows for x in row.values()))
        rows = [{c: x.numerator * (scale // x.denominator) for c, x in row.items()} for row in rows]
        denominator *= scale
    return Matrix._from_int_rows(rows, len(targets), denominator)


def _product_rows(a: Matrix, b: Matrix):
    """The sparse integer rows of D_a D_b (a b), one at a time, made only
    when the iterator reaches them: the products of the nonzeros of each row
    of a with the rows of b, summed as ints.  The shapes are checked at the
    call."""
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    right = b.int_rows

    def rows():
        for row in a.int_rows:
            out = {}
            for j, x in row.items():
                for k, y in right[j].items():
                    out[k] = out[k] + x * y if k in out else x * y
            yield {k: x for k, x in out.items() if x}

    return rows()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product over the nonzeros of both factors: the products of the
    integer rows are summed as ints over D_a D_b."""
    return Matrix._from_int_rows(list(_product_rows(a, b)), b.cols, a.denominator * b.denominator)


def products_equal(a: Matrix, b: Matrix, c: Matrix, d: Matrix) -> bool:
    """mat_mul(a, b) == mat_mul(c, d), compared row by row: it stops at the
    first row that differs and stores neither product.  A row of D_a D_b ab
    and the same row of D_c D_d cd are equal as rationals when they are
    equal dicts once each is scaled by the other's denominator over their
    gcd."""
    left, right = _product_rows(a, b), _product_rows(c, d)
    if (a.rows, b.cols) != (c.rows, d.cols):
        return False
    da, dc = a.denominator * b.denominator, c.denominator * d.denominator
    g = gcd(da, dc)
    sl, sr = dc // g, da // g
    return all(_scaled(x, sl) == _scaled(y, sr) for x, y in zip(left, right))


def _scaled(row, s):
    return row if s == 1 else {k: x * s for k, x in row.items()}


def vec_mat(v, m: Matrix):
    """Row vector times matrix, exact: (L v) . (D m) on ints, divided once
    per entry by L D; zeros of both factors are skipped."""
    if len(v) != m.rows:
        raise ValueError("dimension mismatch")
    scale, ints = integer_numerators(v)
    d = scale * m.denominator
    return [Fraction(x, d) for x in _combine_rows(ints, m.int_rows, [0] * m.cols)]


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


def integer_numerators(values):
    """(d, ints): d is the lcm of the denominators of the sequence `values`,
    and ints are the values times d."""
    d = lcm(*(x.denominator for x in values))
    return d, [x.numerator * (d // x.denominator) for x in values]


def _integer_rows(m: Matrix):
    """Dense int rows of D m, each divided by the gcd of its entries
    (preserves row space, rank and right null space)."""
    rows = []
    for row in m.int_rows:
        g = gcd(*row.values()) or 1
        rows.append([row.get(c, 0) // g for c in range(m.cols)])
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
        # Rows r, r+1, ... vanish left of column c, so only columns c on change.
        top = rows[r][c:]
        piv = top[0]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            new = [piv * a - v * b for a, b in zip(rows[i][c:], top)]
            g = gcd(*new)
            if g > 1:
                new = [x // g for x in new]
            rows[i][c:] = new
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
    """Basis of the right null space { x : m x = 0 }, as lists of Fractions,
    one per free column in order.  Back-substitution keeps x as ints over
    one running denominator d, scaled only when a pivot does not divide the
    sum it solves for; each entry becomes a Fraction once, at the end."""
    cols = m.cols
    rows = _integer_rows(m)
    pivots = _echelon(rows, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        x = [0] * cols
        x[f] = d = 1
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            row = rows[r]
            s = 0
            for k in range(pc + 1, cols):
                if row[k] and x[k]:
                    s += row[k] * x[k]
            piv = row[pc]
            if piv < 0:
                piv, s = -piv, -s
            if s % piv:
                g = gcd(s, piv)
                scale = piv // g
                x = [v * scale for v in x]
                d *= scale
                x[pc] = -(s // g)
            else:
                x[pc] = -(s // piv)
        basis.append([Fraction(v, d) for v in x])
    return basis


def left_null_space(m: Matrix):
    """Basis of { v : v m = 0 }, exact."""
    if m.rows != m.cols:
        raise ValueError("left_null_space expects a square matrix")
    return null_space(m.transpose())
