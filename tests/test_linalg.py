from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ausglue.linalg
from ausglue.linalg import (Field, Mat, QQ, GF, default_field, NoSolution,
                            identity_rows, kernel_basis, kernel_rows, rank,
                            row_reduce, row_space_basis, solve)
from ausglue.quiver import DynkinSpec
from ausglue.tower import verify_theorem_dynkin
from oracles import (block_diag, col, identity_mat, inverse, is_zero, matmul,
                     solve_mat)

FIELDS = [QQ, GF(5), default_field()]


def mats(field, max_n=4):
    entries = st.integers(min_value=-6, max_value=6)
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(st.lists(entries, min_size=m, max_size=m),
                               min_size=n, max_size=n)
            .map(lambda rows: Mat(field, rows))))


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    assert GF(5)(7) == 2
    assert QQ(3) == Fraction(3)
    assert GF(5).inv(2) == 3
    assert QQ.inv(Fraction(2)) == Fraction(1, 2)


def test_qq_elements_are_ints_when_integral():
    for v in (QQ(3), QQ(Fraction(4, 2)), QQ("6/3"), QQ.zero, QQ.one):
        assert type(v) is int
    assert (QQ(3), QQ(Fraction(4, 2)), QQ("6/3")) == (3, 2, 2)
    assert type(QQ(Fraction(1, 2))) is Fraction
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1))) is int and QQ.inv(Fraction(1)) == 1
    assert type(QQ.inv(Fraction(1, 2))) is int and QQ.inv(Fraction(1, 2)) == 2
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_prime_field_maps_rationals_exactly():
    F = GF(5)
    assert F(Fraction(1, 2)) == 3 and F(Fraction(-1, 2)) == 2
    assert F(Fraction(7, 3)) == 4 and F(Fraction(10, 1)) == 0
    assert F("3/4") == 2 and F(-7) == 3 and type(F(-7)) is int
    for v in (Fraction(1, 2), Fraction(7, 3), Fraction(-4, 9)):
        assert F(v) * F(v.denominator) % 5 == F(v.numerator)
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        F(Fraction(3, 10))
    for field in (F, QQ):
        for bad in (2.7, 2.0, -0.5):
            with pytest.raises(ValueError):
                field(bad)


def _fraction_rref(rows):
    """Reference Gauss-Jordan with Fraction entries only, by the rule of
    Mat.rref: leftmost pivot column, first nonzero row.  Returns every
    row, the zero ones last."""
    rows = [[Fraction(v) for v in r] for r in rows]
    nc = len(rows[0]) if rows else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _fraction_kernel_basis(rows):
    R, pivots = _fraction_rref(rows)
    nc = len(rows[0])
    vecs = []
    for j in [j for j in range(nc) if j not in pivots]:
        v = [Fraction(0)] * nc
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -R[i][j]
        vecs.append(v)
    return vecs


def _fraction_kernel_rows(rows):
    vecs = _fraction_kernel_basis(rows)
    if not vecs:
        return []
    K, kp = _fraction_rref(vecs)
    return K[:len(kp)]


def _fraction_solve(rows, b):
    """The solution of rows * x = b with every free variable 0, by the
    reference elimination."""
    nc = len(rows[0])
    aug, piv = _fraction_rref([r + c for r, c in zip(rows, b)])
    assert all(pc < nc for pc in piv)
    x = [[Fraction(0)] * len(b[0]) for _ in range(nc)]
    for i, pc in enumerate(piv):
        x[pc] = aug[i][nc:]
    return x


def assert_matches_fraction_reference(m):
    """Keeping integral rationals as ints changes no value: over QQ,
    Mat.rref, row_reduce, rank, row_space_basis, kernel_basis and
    kernel_rows give exactly the rows and pivots of an elimination over
    Fractions alone."""
    ref, ref_piv = _fraction_rref(m.rows)
    R, piv = row_reduce(QQ, m.rows, m.ncols)
    assert (R, piv) == (ref[:len(ref_piv)], ref_piv) == m.rref()
    assert all(type(v) in (int, Fraction) for r in R for v in r)
    assert rank(QQ, m.rows, m.ncols) == len(ref_piv)
    assert row_space_basis(QQ, m.rows, m.ncols) == ref[:len(ref_piv)]
    assert kernel_basis(QQ, m.rows, m.ncols) == \
        _fraction_kernel_basis(m.rows)
    assert kernel_rows(QQ, m.rows, m.ncols) == _fraction_kernel_rows(m.rows)


def test_integral_verdict_builds_no_fraction(monkeypatch):
    """Every structure constant of a Dynkin path category is an integer
    and every pivot there is a unit, so a QQ verdict never makes a
    Fraction."""
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)
    monkeypatch.setattr(ausglue.linalg, "Fraction", CountingFraction)
    assert verify_theorem_dynkin(DynkinSpec("A", 4), 1, field=QQ).passed
    assert built == []


def test_primality_matches_trial_division():
    from ausglue.linalg import _is_prime

    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(10000))
    # a strong pseudoprime to every base up to 23, and a Carmichael number
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(561)


def test_large_prime_fields():
    import time
    start = time.perf_counter()
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.1
    for bad in (0, 1, 4, -5, 2 ** 64 - 1):
        with pytest.raises(ValueError, match="must be prime"):
            GF(bad)
    with pytest.raises(ValueError, match="below 2\\*\\*64"):
        GF(10 ** 400 + 1)


def test_rref_oracle():
    r, piv = row_reduce(QQ, [[0, 2, 4], [1, 1, 1]], 3)
    assert piv == [0, 1]
    assert r == [[1, 0, -1], [0, 1, 2]]
    # matrices needing non-unit pivots
    for rows in ([[2, 1], [1, 1]], [[0, 2, 4], [1, 1, 1]],
                 [[3, 6, 9], [2, 4, 7]], [[2, 3], [4, 5], [6, 7]],
                 [[4, 6, 2, 0], [6, 9, 3, 1]], [[0, 0], [0, 3]]):
        assert_matches_fraction_reference(Mat(QQ, rows))


def test_rref_leaves_its_input_unchanged():
    """rref and every function on it read the rows they are given and
    return fresh ones: the input, lists or tuples, and a Mat's rows are
    unchanged after elimination."""
    for field in FIELDS:
        rows = [[field(v) for v in r] for r in
                ([0, 2, 4, 1], [1, 1, 1, 0], [3, 6, 9, 2], [2, 4, 7, 5])]
        copy = [r[:] for r in rows]
        m = Mat(field, rows)
        R, piv = row_reduce(field, rows, 4)
        assert rows == copy and m.rows == copy
        assert m.rref() == (R, piv)
        assert row_reduce(field, [tuple(r) for r in rows], 4) == (R, piv)
        assert not any(r is s for r in R for s in rows + m.rows)
        for call in (rank, row_space_basis, kernel_basis, kernel_rows):
            call(field, rows, 4)
        try:
            solve(field, rows, 3)
        except NoSolution:
            pass
        assert rows == copy and m.rows == copy


def test_kernel_oracle():
    assert kernel_basis(QQ, identity_rows(QQ, 3), 3) == []
    assert kernel_basis(QQ, [[0, 0], [0, 0]], 2) == [[1, 0], [0, 1]]
    assert kernel_basis(QQ, [[1, 1]], 2) == [[Fraction(-1), Fraction(1)]]


def test_solve_oracle():
    assert solve(QQ, [[1, 0, 3], [0, 1, 4]], 2) == [3, 4]
    with pytest.raises(NoSolution):
        solve(QQ, [[0, 0, 3], [0, 0, 4]], 2)
    assert solve(QQ, [[1, 2], [1, 2]], 1) == [Fraction(2)]
    # 0 at the free variable
    assert solve(QQ, [[1, 1, 2]], 2) == [2, 0]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rank_and_kernel_properties(field, data):
    m = data.draw(mats(field))
    r = rank(field, m.rows, m.ncols)
    R, piv = row_reduce(field, m.rows, m.ncols)
    assert r == len(piv) == len(R) == rank(field, R, m.ncols)
    assert r <= min(m.nrows, m.ncols)
    k = kernel_basis(field, m.rows, m.ncols)
    assert len(k) == m.ncols - r
    if k:
        assert is_zero(matmul(m, Mat.from_cols(field, k)))
    if field == QQ:
        assert_matches_fraction_reference(m)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_solve_roundtrip(field, data):
    a = data.draw(mats(field))
    x = data.draw(mats(field, max_n=3))
    if x.nrows != a.ncols:
        x = Mat(field, [[1] * 2 for _ in range(a.ncols)], a.ncols, 2)
    b = matmul(a, x)
    x2 = solve_mat(a, b)
    for j in range(b.ncols):
        assert solve(field, [r + [v] for r, v in zip(a.rows, col(b, j))],
                     a.ncols) == col(x2, j)
    assert matmul(a, x2) == b
    if field == QQ:
        assert x2.rows == _fraction_solve(a.rows, b.rows)


def test_coords_in_a_row_space_basis():
    basis = row_space_basis(QQ, [[1, 1, 0], [0, 0, 1], [1, 1, 1]], 3)
    assert len(basis) == 2

    def aug(v):  # [basis as columns | v]
        return [list(r) + [c] for r, c in zip(zip(*basis), v)]
    assert solve(QQ, aug([2, 2, 3]), 2) == [2, 3]
    with pytest.raises(NoSolution):
        solve(QQ, aug([1, 0, 0]), 2)


def test_inverse():
    m = Mat(GF(5), [[1, 2], [3, 4]])
    assert matmul(m, inverse(m)) == identity_mat(GF(5), 2)
    with pytest.raises(ValueError):
        inverse(Mat.zero(QQ, 2, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: Mat(QQ, [[1, 2], [3]]), ValueError, "ragged rows"),
    (lambda: solve_mat(identity_mat(QQ, 2), Mat(QQ, [[1]])), ValueError,
     "rhs row count mismatch"),
], ids=["ragged", "solve-rows"])
def test_mat_refuses_operands_that_do_not_fit(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_block_ops():
    a = Mat(QQ, [[1]])
    b = Mat(QQ, [[2, 3]])
    d = block_diag(QQ, [a, b])
    assert d.nrows == 2 and d.ncols == 3
    assert d.rows[1] == [0, 2, 3]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_empty_shapes_skip_elimination(field, monkeypatch):
    """A matrix with no rows or no columns is answered without an rref,
    with the results elimination gives: the kernel of a 0 x n matrix is
    everything, that of an n x 0 matrix is the zero space."""
    wide, tall = [], [[field.zero]] * 3  # 0 x 3, and 3 x 0 with b = 0

    def no_rref(self):
        raise AssertionError("rref on a %dx%d matrix" % (self.nrows, self.ncols))
    monkeypatch.setattr(Mat, "rref", no_rref)
    assert kernel_basis(field, wide, 3) == identity_rows(field, 3)
    assert kernel_basis(field, [[]] * 3, 0) == []
    assert kernel_rows(field, wide, 3) == identity_rows(field, 3)
    assert kernel_rows(field, [[]] * 3, 0) == []
    assert solve(field, wide, 3) == [field.zero] * 3
    assert solve(field, tall, 0) == []
    with pytest.raises(NoSolution):
        solve(field, [[0], [1], [0]], 0)
    assert rank(field, wide, 3) == rank(field, [[]] * 3, 0) == 0
    assert row_reduce(field, wide, 3) == ([], [])
    assert row_space_basis(field, [[], []], 0) == []
    assert row_space_basis(field, [], 3) == []
