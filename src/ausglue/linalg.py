"""Exact linear algebra over the rationals or a prime field.

All arithmetic in the package goes through the two classes here; floating
point is never used.  Elimination is deterministic (leftmost pivot column,
first nonzero row) so every downstream basis choice is reproducible.
"""

from fractions import Fraction

DEFAULT_PRIME = 32003


class FieldMismatch(Exception):
    pass


class NoSolution(Exception):
    pass


class Field:
    """The coefficient field: QQ (p is None) or F_p for a prime p.

    Elements are plain Fractions resp. ints in [0, p); the field object
    only carries p, the conversion/inversion rules and its zero and one
    (elements are immutable, so every caller may share them).
    """

    def __init__(self, p=None):
        if p is not None:
            if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
                raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.zero = self(0)
        self.one = self(1)

    def __call__(self, v):
        if self.p is None:
            return Fraction(v)
        return int(v) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else "GF(%d)" % self.p


QQ = Field(None)


def GF(p):
    return Field(p)


def default_field():
    return Field(DEFAULT_PRIME)


class Mat:
    """Dense matrix over a fixed Field.  Immutable by convention: no method
    mutates self; all operations return fresh matrices."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, nrows=None, ncols=None):
        self.field = field
        if nrows is None:
            nrows = len(rows)
            ncols = len(rows[0]) if rows else 0
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [[field(v) for v in r] for r in rows]
        for r in self.rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(field, nrows, ncols):
        z = field.zero
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols = field, nrows, ncols
        m.rows = [[z] * ncols for _ in range(nrows)]
        return m

    @staticmethod
    def identity(field, n):
        m = Mat.zero(field, n, n)
        one = field.one
        for i in range(n):
            m.rows[i][i] = one
        return m

    @staticmethod
    def from_cols(field, cols):
        if not cols:
            return Mat.zero(field, 0, 0)
        n = len(cols[0])
        m = Mat.zero(field, n, len(cols))
        for j, c in enumerate(cols):
            for i, v in enumerate(c):
                m.rows[i][j] = field(v)
        return m

    # -- basics -------------------------------------------------------

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(map(tuple, self.rows))))

    def __repr__(self):
        return "Mat(%r, %r)" % (self.field, self.rows)

    def is_zero(self):
        z = self.field.zero
        return all(v == z for r in self.rows for v in r)

    def col(self, j):
        return [r[j] for r in self.rows]

    def transpose(self):
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols = self.field, self.ncols, self.nrows
        m.rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return m

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("%r vs %r" % (self.field, other.field))

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        p = self.field.p
        if p is None:
            rows = [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        else:
            rows = [[(a + b) % p for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        return Mat._wrap(self.field, rows, self.nrows, self.ncols)

    def __sub__(self, other):
        return self + other.scale(self.field(-1))

    def scale(self, c):
        c = self.field(c)
        p = self.field.p
        if p is None:
            rows = [[c * v for v in r] for r in self.rows]
        else:
            rows = [[(c * v) % p for v in r] for r in self.rows]
        return Mat._wrap(self.field, rows, self.nrows, self.ncols)

    def __neg__(self):
        return self.scale(self.field(-1))

    @staticmethod
    def _wrap(field, rows, nrows, ncols):
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols, m.rows = field, nrows, ncols, rows
        return m

    def __mul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d * %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        p = self.field.p
        z = self.field.zero
        bt = other.transpose().rows
        out = []
        if p is None:
            for r in self.rows:
                out.append([sum((a * b for a, b in zip(r, c)), z) for c in bt])
        else:
            for r in self.rows:
                out.append([sum(a * b for a, b in zip(r, c)) % p for c in bt])
        return Mat._wrap(self.field, out, self.nrows, other.ncols)

    def apply(self, vec):
        """Matrix times column vector (a plain list); returns a list."""
        p = self.field.p
        z = self.field.zero
        if p is None:
            return [sum((a * b for a, b in zip(r, vec)), z) for r in self.rows]
        return [sum(a * b for a, b in zip(r, vec)) % p for r in self.rows]

    @staticmethod
    def vstack(field, mats, ncols=None):
        rows = []
        for m in mats:
            rows.extend(r[:] for r in m.rows)
        if ncols is None:
            ncols = mats[0].ncols if mats else 0
        return Mat._wrap(field, rows, len(rows), ncols)

    @staticmethod
    def hstack(field, mats, nrows=None):
        if nrows is None:
            nrows = mats[0].nrows if mats else 0
        rows = [[] for _ in range(nrows)]
        for m in mats:
            for i in range(nrows):
                rows[i].extend(m.rows[i])
        return Mat._wrap(field, rows, nrows, len(rows[0]) if rows else 0)

    @staticmethod
    def block_diag(field, mats):
        nr = sum(m.nrows for m in mats)
        nc = sum(m.ncols for m in mats)
        out = Mat.zero(field, nr, nc)
        i0 = j0 = 0
        for m in mats:
            for i in range(m.nrows):
                out.rows[i0 + i][j0:j0 + m.ncols] = m.rows[i][:]
            i0 += m.nrows
            j0 += m.ncols
        return out

    # -- elimination ----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (Mat, pivot column list).

        Deterministic: scans columns left to right, picks the first row with
        a nonzero entry in the current column.
        """
        p = self.field.p
        rows = [r[:] for r in self.rows]
        nr, nc = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(nc):
            if r >= nr:
                break
            pr = None
            for i in range(r, nr):
                if rows[i][c] != 0:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = self.field.inv(rows[r][c])
            if p is None:
                rows[r] = [v * inv for v in rows[r]]
                for i in range(nr):
                    if i != r and rows[i][c] != 0:
                        f = rows[i][c]
                        rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            else:
                rows[r] = [(v * inv) % p for v in rows[r]]
                for i in range(nr):
                    if i != r and rows[i][c] != 0:
                        f = rows[i][c]
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
        return Mat._wrap(self.field, rows, nr, nc), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Matrix whose columns span ker(self); ncols = ncols - rank."""
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        f = self.field
        for j in free:
            v = [f.zero] * self.ncols
            v[j] = f.one
            for i, pc in enumerate(pivots):
                v[pc] = -R.rows[i][j] if f.p is None else (-R.rows[i][j]) % f.p
            cols.append(v)
        return Mat.from_cols(f, cols) if cols else Mat.zero(f, self.ncols, 0)

    def solve(self, b):
        """Solve self * x = b (b a Mat of column(s)).  Raises NoSolution."""
        self._check(b)
        if b.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        aug = Mat.hstack(self.field, [self, b], self.nrows)
        R, pivots = aug.rref()
        f = self.field
        for i in range(len(pivots)):
            if pivots[i] >= self.ncols:
                raise NoSolution()
        x = Mat.zero(f, self.ncols, b.ncols)
        for i, pc in enumerate(pivots):
            x.rows[pc] = R.rows[i][self.ncols:]
        return x

    def image_basis(self):
        """Columns forming a basis of the column space: the original
        columns at the pivot positions of the RREF."""
        _, piv = self.rref()
        return Mat.from_cols(self.field, [self.col(j) for j in piv]) \
            if piv else Mat.zero(self.field, self.nrows, 0)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("not square")
        try:
            x = self.solve(Mat.identity(self.field, self.nrows))
        except NoSolution:
            raise ValueError("singular matrix")
        return x


def row_space_basis(field, vectors, length):
    """Deterministic basis (as list of row vectors) of the span of the given
    row vectors; returned rows are the nonzero rows of the RREF."""
    if not vectors:
        return []
    m = Mat(field, vectors, len(vectors), length)
    R, pivots = m.rref()
    return [R.rows[i][:] for i in range(len(pivots))]


def echelon_columns(field, rows, length):
    """(pivots, free) for RREF rows of the given length: the pivot column
    of each row (its first nonzero entry) and the remaining columns."""
    piv = []
    j = 0
    for r in rows:
        while r[j] == field.zero:
            j += 1
        piv.append(j)
    return piv, [j for j in range(length) if j not in piv]


def quotient_coords(field, rows, pivots, free, v):
    """Coordinates of v modulo the span of RREF rows: clear v's entries at
    the rows' pivot columns, then read it at the free columns."""
    v = list(v)
    for r, j in zip(rows, pivots):
        cv = v[j]
        if cv != field.zero:
            v = [a - cv * b for a, b in zip(v, r)]
            if field.p is not None:
                v = [a % field.p for a in v]
    return [v[j] for j in free]


def coords_in_basis(field, basis_rows, vector):
    """Express vector as a combination of basis_rows; raises NoSolution."""
    if not basis_rows:
        if any(v != field.zero for v in vector):
            raise NoSolution()
        return []
    A = Mat.from_cols(field, basis_rows)
    x = A.solve(Mat.from_cols(field, [vector]))
    return x.col(0)
