"""Exact linear algebra over the rationals or a prime field.

Field carries the arithmetic of the coefficients; floating point is never
used.  Elimination works on plain row lists: row_reduce, and rank,
row_space_basis, kernel_basis, kernel_rows and solve on top of it, all
through Mat.rref, the one elimination.  It is deterministic (leftmost
pivot column, first nonzero row) so every downstream basis choice is
reproducible, and it never changes the rows it is given.  Mat itself is
the action of a module: it acts on column vectors and transposes.

A QQ element is a Python int when it is integral and a Fraction otherwise,
so integer data (every structure constant of a Dynkin path category) is
eliminated without a gcd.  Arithmetic may still produce an integral
Fraction; it is the same exact rational and compares and hashes like the
int.
"""

from fractions import Fraction

DEFAULT_PRIME = 32003


class NoSolution(Exception):
    pass


def _is_prime(p):
    """Deterministic Miller-Rabin: the first twelve primes as bases make it
    exact for every p < 2**64 (Sorenson and Webster 2015: below 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(a, d, p) == 1 or
               any(pow(a, d << i, p) == p - 1 for i in range(s))
               for a in bases)


class Field:
    """The coefficient field: QQ (p is None) or F_p for a prime p.

    Elements of F_p are ints in [0, p).  A QQ element is an int when it
    is integral and a Fraction otherwise; the field makes a Fraction only
    where a division leaves a non-integer.  Arithmetic may produce an
    integral Fraction, which is still exact.  F_p maps n/d to n * d^-1;
    both fields refuse a float, which is not exact.  The field object only
    carries p, the conversion/inversion rules and its zero and one
    (elements are immutable, so every caller may share them).
    """

    def __init__(self, p=None):
        if p is not None:
            if p >= 2 ** 64:
                raise ValueError("p must be below 2**64, where the primality "
                                 "test is exact")
            if not _is_prime(p):
                raise ValueError("p must be prime, got %r" % (p,))
        self.p = p
        self.zero = self(0)
        self.one = self(1)

    def __call__(self, v):
        if type(v) is int:
            return v if self.p is None else v % self.p
        if isinstance(v, float):
            raise ValueError("%r is not an exact field element" % (v,))
        if not isinstance(v, Fraction):
            v = Fraction(v)
        if self.p is None:
            return v.numerator if v.denominator == 1 else v
        if v.denominator % self.p == 0:
            raise ZeroDivisionError("%s has no image in %r" % (v, self))
        return v.numerator * pow(v.denominator, self.p - 2, self.p) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            if a == 1 or a == -1:
                return int(a)
            return self(1 / Fraction(a))
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
    """A dense matrix over a fixed Field, as a module's action carries it:
    it acts on column vectors (apply) and is transposed for the dual.
    Immutable by convention.  rref is the one elimination of the package,
    which row_reduce calls on plain row lists, so that wrapping Mat.rref
    (as verdictbench's layer trace does) sees every elimination."""

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
        return Mat._wrap(field, [[z] * ncols for _ in range(nrows)],
                         nrows, ncols)

    @staticmethod
    def from_cols(field, cols):
        if not cols:
            return Mat.zero(field, 0, 0)
        rows = [[field(v) for v in r] for r in zip(*cols)]
        return Mat._wrap(field, rows, len(cols[0]), len(cols))

    @staticmethod
    def _wrap(field, rows, nrows, ncols):
        m = Mat.__new__(Mat)
        m.field, m.nrows, m.ncols, m.rows = field, nrows, ncols, rows
        return m

    # -- basics -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.field == other.field
                and self.nrows == other.nrows and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return "Mat(%r, %r)" % (self.field, self.rows)

    def transpose(self):
        rows = [[self.rows[i][j] for i in range(self.nrows)]
                for j in range(self.ncols)]
        return Mat._wrap(self.field, rows, self.ncols, self.nrows)

    def apply(self, vec):
        """Matrix times column vector (a plain list); returns a list."""
        p = self.field.p
        z = self.field.zero
        if p is None:
            return [sum((a * b for a, b in zip(r, vec)), z) for r in self.rows]
        return [sum(a * b for a, b in zip(r, vec)) % p for r in self.rows]

    # -- elimination ----------------------------------------------------

    def rref(self):
        """(rows, pivots): the nonzero rows of the reduced row echelon form,
        as fresh lists, and the pivot column of each; self is not changed
        (its rows may be tuples).

        Deterministic: scans columns left to right, picks the first row with
        a nonzero entry in the current column.
        """
        p = self.field.p
        rows = list(self.rows)  # rows are replaced below, never mutated
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
        return rows[:r], pivots


def identity_rows(field, n):
    """The n unit vectors of length n, as fresh lists."""
    rows = [[field.zero] * n for _ in range(n)]
    for i, r in enumerate(rows):
        r[i] = field.one
    return rows


def row_reduce(field, rows, length):
    """(nonzero RREF rows, pivots) of the given rows, each of the given
    length, by Mat.rref; the rows are not changed.  A matrix with no entry
    is answered without elimination."""
    if not rows or not length:
        return [], []
    return Mat._wrap(field, rows, len(rows), length).rref()


def rank(field, rows, length):
    return len(row_reduce(field, rows, length)[1])


def row_space_basis(field, vectors, length):
    """Deterministic basis (as list of row vectors) of the span of the given
    row vectors, their entries coerced into field; returned rows are the
    nonzero rows of the RREF."""
    return row_reduce(field, [[field(v) for v in r] for r in vectors],
                      length)[0]


def kernel_basis(field, rows, length):
    """Vectors spanning {x : A x = 0}, A the given rows: one per free
    column j of A's RREF, 1 at j, 0 at the other free columns and minus
    that column of the RREF at the pivots.  All unit vectors where A has
    no entry."""
    if not rows or not length:
        return identity_rows(field, length)
    R, pivots = row_reduce(field, rows, length)
    out = []
    for j in (j for j in range(length) if j not in pivots):
        v = [field.zero] * length
        v[j] = field.one
        for r, pc in zip(R, pivots):
            v[pc] = field(-r[j])
        out.append(v)
    return out


def kernel_rows(field, rows, length):
    """The RREF rows spanning {x : A x = 0}, A the given rows."""
    if not rows or not length:
        return identity_rows(field, length)  # already in RREF
    return row_space_basis(field, kernel_basis(field, rows, length), length)


def solve(field, rows, ncols):
    """The x with A x = b, for rows the augmented matrix [A | b], A of
    ncols columns: 0 at every free variable.  Raises NoSolution."""
    x = [field.zero] * ncols
    if not rows or not ncols:
        if any(r[ncols] for r in rows):
            raise NoSolution()
        return x
    R, pivots = row_reduce(field, rows, ncols + 1)
    if pivots and pivots[-1] == ncols:
        raise NoSolution()
    for r, pc in zip(R, pivots):
        x[pc] = r[ncols]
    return x


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
