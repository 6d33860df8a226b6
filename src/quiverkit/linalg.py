"""Exact dense linear algebra over the rationals or a prime field GF(p).

Scalars over GF(p) are plain python ints in [0, p).  Over the rationals a
scalar is an int when it is integral and a `fractions.Fraction` otherwise:
every field operation returns an integral result as its int, so the 0 and
+-1 entries that fill most matrices cost int arithmetic.  Values, hashes,
truth values and printed forms are those of the Fraction.  All results are
exact; there are no tolerances anywhere.

Matrices are lists of row lists in both fields, and one Gauss-Jordan
elimination, `_eliminate`, serves `rref`, `echelon`, `kernel_basis`,
`kernel_echelon`, `solve_many` (with `solve` its one-column case),
`unit_complement` and, one row at a time, `SpanTracker`.  `rref`,
`echelon`, `kernel_basis` and `kernel_echelon` each run it on one copy of
the rows; `kernel_echelon` and `unit_complement` run it with the columns
reversed.  `echelon`, `kernel_basis` and `kernel_echelon` read their results
from that copy and build no `RrefResult` or `Matrix` around it: most of
their blocks are tiny, often 1x1.  The single row step, row -= c *
pivot_row, visits only the nonzero columns of the pivot row, and uses
nothing of the field but `inv`, `sub` and `mul`.  A pivot row whose pivot
entry is already 1 is not scaled, so it costs no inverse.
It tests entries for zero by truth value, so GF(p) entries must stay
reduced into [0, p): `from_int` and `scalar_from_str` reduce every scalar
that enters, and the field operations keep it so.  A block with no rows or
no columns is never multiplied or eliminated: `matmul`, `kernel_basis`,
`kernel_echelon` and `unit_complement` return its result at once, and the
elimination makes no step on it.

A block is built once, from its rows (`Matrix.wrap`) or from its columns
(`Matrix.from_columns`), not by writing entries one at a time into a
zero-filled matrix.  `matmul` builds each output row as it goes, one row of
a times b.  `Matrix.zeros` is for a block whose value is zero, or that
seeds the accumulation of `lincomb`.  Only the dense reference action that
the tests check modules against, `Module.basis_action`, still fills its
matrices entry by entry.

`residue(f, rows, pivots, vec)` is the one reduction of a vector against a
reduced echelon basis: vec - sum_r vec[p_r] rows_r, which is zero exactly
when vec lies in the span.  Each row is 1 at its own pivot and 0 at the
others, so the residue is also zero at every pivot, and its entries at the
other columns are the coordinates of vec's class in the quotient by the
span.  `SpanTracker.reduce` is a call to it.

Maps act on column vectors: `solve(m, b)` finds x with m @ x = b, and the
composite "first f, then g" has matrix g @ f.  `lincomb` sums scaled
matrices, the one linear combination of maps.

`unit_complement(f, vecs, n)` is the one rule for choosing coordinates of a
quotient space: the positions whose unit vectors complete span(vecs) to k^n,
earliest first.  They are the positions left free by one `rref` that
pivots on the latest positions, which by matroid duality is also what adding
unit vectors greedily, earliest first, would keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index


class LinalgError(Exception):
    pass


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 primes, which is exact below
    _PRIME_BOUND (Sorenson and Webster, Math. Comp. 86 (2017)); a larger n
    is refused rather than guessed."""
    if n >= _PRIME_BOUND:
        raise LinalgError(f"cannot certify primality at or above {_PRIME_BOUND}")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    return all(x == 1 or n - 1 in (pow(x, 2 ** i, n) for i in range(s))
               for x in (pow(b, d, n) for b in _PRIME_BASES))


def _q(x):
    """A rational scalar in normal form: an integral value as its int."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


class RationalField:
    """The field of rational numbers: a scalar is an int when it is
    integral and a Fraction otherwise."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return index(n)

    def add(self, x, y):
        return _q(x + y)

    def sub(self, x, y):
        return _q(x - y)

    def mul(self, x, y):
        return _q(x * y)

    def neg(self, x):
        return -x

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(Fraction(1, x))

    def scalar_from_str(self, s: str):
        return _q(Fraction(s))

    def scalar_to_str(self, x) -> str:
        return str(x)

    def name(self) -> str:
        return "rational"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """GF(p) for a prime p, scalars are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise LinalgError(f"{p} is not prime")
        self.p = p

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def neg(self, x):
        return (-x) % self.p

    def inv(self, x):
        x %= self.p
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(x, self.p - 2, self.p)

    def scalar_from_str(self, s: str):
        return int(s) % self.p

    def scalar_to_str(self, x) -> str:
        return str(x)

    def name(self) -> str:
        return f"gf({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


def field_from_name(text: str):
    """Parse a field name: ``rational`` or ``gf(<p>)``."""
    text = text.strip().lower()
    if text == "rational":
        return RationalField()
    if text.startswith("gf(") and text.endswith(")"):
        return PrimeField(int(text[3:-1]))
    raise LinalgError(f"unknown field {text!r}")


class Matrix:
    """A dense matrix over a fixed field; data is a list of row lists."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data, rows=None, cols=None):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data) if rows is None else rows
        self.cols = (len(self.data[0]) if self.data else 0) if cols is None else cols
        for row in self.data:
            if len(row) != self.cols:
                raise LinalgError("ragged matrix data")

    @classmethod
    def wrap(cls, field, data, rows, cols):
        """A matrix that takes ownership of the row lists `data`, uncopied."""
        m = cls.__new__(cls)
        m.field, m.data, m.rows, m.cols = field, data, rows, cols
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls.wrap(field, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, field, n):
        z, one = field.zero(), field.one()
        return cls.wrap(field, [[z] * i + [one] + [z] * (n - 1 - i) for i in range(n)], n, n)

    @classmethod
    def from_int_rows(cls, field, rows):
        return cls(field, [[field.from_int(x) for x in row] for row in rows])

    @classmethod
    def from_columns(cls, field, columns, rows):
        """The rows x len(columns) matrix with the given columns."""
        for col in columns:
            if len(col) != rows:
                raise LinalgError("column length mismatch")
        data = [list(row) for row in zip(*columns)] if columns else [[] for _ in range(rows)]
        return cls.wrap(field, data, rows, len(columns))

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix.from_columns(self.field, self.data, self.cols)

    def is_zero(self):
        return not any(map(any, self.data))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field.name()})"

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise LinalgError("vector length mismatch")
        f = self.field
        vsupp = _support(vec)
        out = []
        for row in self.data:
            acc = f.zero()
            for j, x in vsupp:
                if row[j]:
                    acc = f.add(acc, f.mul(row[j], x))
            out.append(acc)
        return out


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise LinalgError(f"shape mismatch {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    f = a.field
    if not (a.rows and a.cols and b.cols):
        return Matrix.zeros(f, a.rows, b.cols)
    bsupp = [_support(row) for row in b.data]
    data = []
    for arow in a.data:
        orow = [f.zero()] * b.cols
        for x, supp in zip(arow, bsupp):
            if x:
                for j, y in supp:
                    orow[j] = f.add(orow[j], f.mul(x, y))
        data.append(orow)
    return Matrix.wrap(f, data, a.rows, b.cols)


def lincomb(f, rows, cols, terms):
    """The rows x cols matrix sum c * R over the (c, R) pairs of terms."""
    out = Matrix.zeros(f, rows, cols)
    for c, r in terms:
        if c:
            for orow, rrow in zip(out.data, r.data):
                for j, x in _support(rrow):
                    orow[j] = f.add(orow[j], f.mul(c, x))
    return out


@dataclass
class RrefResult:
    reduced: Matrix
    rank: int
    pivot_columns: list


def _support(row):
    """The (column, entry) pairs of a row's nonzero entries."""
    return [(j, x) for j, x in enumerate(row) if x]


def _subtract(f, row, c, support):
    """The row step row -= c * pivot_row, in place, where `support` is
    `_support(pivot_row)`: columns where the pivot row is zero are skipped."""
    sub, mul = f.sub, f.mul
    for j, x in support:
        row[j] = sub(row[j], mul(c, x))


def _normalize(f, row, j):
    """Scale row in place so that row[j] == 1; returns its new support.  A
    row whose entry there is already 1 is left as it is."""
    if row[j] == 1:
        return _support(row)
    inv = f.inv(row[j])
    support = [(k, f.mul(inv, x)) for k, x in _support(row)]
    for k, x in support:
        row[k] = x
    return support


def _eliminate(a, cols, f):
    """Gauss-Jordan elimination of the row lists `a`, in place, into reduced
    row-echelon form; returns the pivot columns."""
    rows = len(a)
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        for i in range(r, rows):
            if a[i][c]:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        support = _normalize(f, a[r], c)
        for i in range(rows):
            x = a[i][c]
            if x and i != r:
                _subtract(f, a[i], x, support)
        pivots.append(c)
        r += 1
    return pivots


def rref(m: Matrix) -> RrefResult:
    """Reduced row-echelon form; returns (reduced, rank, pivot columns).

    The elimination runs on one copy of m's rows, which becomes the result.
    """
    work = [list(row) for row in m.data]
    pivots = _eliminate(work, m.cols, m.field)
    return RrefResult(Matrix.wrap(m.field, work, m.rows, m.cols), len(pivots), pivots)


def echelon(f, vecs, d):
    """The reduced echelon basis of span(vecs) in k^d, in pivot order, and
    its pivot columns."""
    if not vecs:
        return [], []
    work = [list(row) for row in vecs]
    pivots = _eliminate(work, d, f)
    return work[:len(pivots)], pivots


def kernel_basis(m: Matrix) -> list:
    """Column vectors spanning the null space of m (cols - rank of them)."""
    f = m.field
    if m.cols == 0:
        return []
    if m.rows == 0:
        return Matrix.identity(f, m.cols).data
    work = [list(row) for row in m.data]
    pivots = _eliminate(work, m.cols, f)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    z = f.zero()
    for fc in free:
        v = [z] * m.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            entry = work[r][fc]
            if entry:
                v[pc] = f.neg(entry)
        basis.append(v)
    return basis


def kernel_echelon(m: Matrix):
    """The reduced echelon basis of the null space of m, in pivot order, and
    its pivot columns: the rows and pivots of `echelon(f, kernel_basis(m),
    m.cols)`, from one elimination of m with its columns reversed.

    Reversed, each free column c gives the kernel vector that is 1 at c,
    zero at the other free columns, and nonzero elsewhere only at pivot
    columns before c.  Read in the original order, its first nonzero entry
    is that 1, and it is zero at the other such columns: these vectors are
    the unique reduced echelon basis of the kernel, pivoting on the free
    columns."""
    f = m.field
    n = m.cols
    if not (m.rows and n):
        return Matrix.identity(f, n).data, list(range(n))
    work = [row[::-1] for row in m.data]
    pivots = _eliminate(work, n, f)
    taken = set(pivots)
    z, one = f.zero(), f.one()
    rows, out = [], []
    for c in range(n - 1, -1, -1):
        if c in taken:
            continue
        v = [z] * n
        v[n - 1 - c] = one
        for r, p in enumerate(pivots):
            if p > c:
                break
            x = work[r][c]
            if x:
                v[n - 1 - p] = f.neg(x)
        rows.append(v)
        out.append(n - 1 - c)
    return rows, out


def solve_many(m: Matrix, bs):
    """Solutions x_c of m @ x_c = b_c, one per right-hand side b_c of bs,
    with free variables set to 0, from one rref of [m | bs]; None when any
    b_c is outside the column span of m."""
    if any(len(b) != m.rows for b in bs):
        raise LinalgError("right-hand side length mismatch")
    f = m.field
    n = m.cols
    aug = Matrix.wrap(f, [m.data[i] + [b[i] for b in bs] for i in range(m.rows)],
                      m.rows, n + len(bs))
    res = rref(aug)
    if res.pivot_columns and res.pivot_columns[-1] >= n:
        return None
    z = f.zero()
    out = [[z] * n for _ in bs]
    for row, pc in zip(res.reduced.data, res.pivot_columns):
        for x, rhs in zip(out, row[n:]):
            x[pc] = rhs
    return out


def solve(m: Matrix, b: list):
    """A solution x of m @ x = b with free variables set to 0, or None: the
    one-column case of `solve_many`."""
    sol = solve_many(m, [b])
    return None if sol is None else sol[0]


def residue(f, rows, pivots, vec):
    """vec - sum_r vec[p_r] * rows_r, for a reduced echelon basis `rows` with
    pivot columns `pivots`: zero exactly when vec lies in span(rows)."""
    v = list(vec)
    # each row is zero in every other row's pivot column, so v[p_r] is still
    # vec[p_r] when row r is reached, whatever the order of the steps
    for row, p in zip(rows, pivots):
        x = v[p]
        if x:
            _subtract(f, v, x, _support(row))
    return v


def unit_complement(f, vecs, n):
    """The positions, earliest first, whose unit vectors complete span(vecs)
    to k^n: those left free by an rref of vecs with the columns reversed."""
    if not (vecs and n):
        return list(range(n))
    pivots = rref(Matrix.wrap(f, [row[::-1] for row in vecs], len(vecs), n)).pivot_columns
    taken = {n - 1 - c for c in pivots}
    return [k for k in range(n) if k not in taken]


class SpanTracker:
    """Incrementally grown row span with O(1) membership after each add.

    Keeps rows in reduced echelon form; `add` returns True when the vector
    enlarged the span.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # kept in reduced echelon form
        self.pivots = []  # the pivot column of each row

    def reduce(self, vec):
        return residue(self.field, self.rows, self.pivots, vec)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def add(self, vec) -> bool:
        f = self.field
        v = self.reduce(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        support = _normalize(f, v, pivot)
        # back-substitute into existing rows to stay fully reduced; a row
        # is replaced, not changed in place, as callers may hold it
        for ri, row in enumerate(self.rows):
            x = row[pivot]
            if x:
                row = list(row)
                _subtract(f, row, x, support)
                self.rows[ri] = row
        self.pivots.append(pivot)
        self.rows.append(v)
        return True

    @property
    def dim(self):
        return len(self.rows)
