import gc
import random
import types
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ausglue import fincat
from ausglue.errors import InvalidParams, NotDirected, Truncated
from ausglue.linalg import (Mat, QQ, GF, NoSolution, default_field,
                            kernel_basis, row_space_basis)
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
from ausglue.knitting import knit, vertex_label
from ausglue.fincat import (FinCategory, projective_module, injective_module,
                            projective_label, injective_label, dual_module,
                            FreeModule, top_generators)
from ausglue.homology import (_nakayama_pairing, _refuse_cycles,
                              min_proj_resolution, gldim, domdim,
                              projective_injectives, ext_space, ext_dim,
                              ext_dims, tau_inv, tau_n, lift_chain_map,
                              transpose_module, modules_isomorphic, INFINITY)
import oracles
from oracles import (direct_sum, is_complex, is_minimal, kernel, syzygy,
                     cokernel, cover, dense_map, realize, yoneda_map,
                     hom_by_naturality, compose_maps, compose_catmats,
                     differentials, dual_map, from_entries, sub_maps,
                     map_is_zero, simple_module, pdim, tau)

FIELD = default_field()


def make(spec, field=FIELD):
    return category_from_presentation(hereditary_presentation(spec), field)


A2 = make(DynkinSpec("A", 2, "linear"))
A3 = make(DynkinSpec("A", 3, "linear"))
D4 = make(DynkinSpec("D", 4, "out"))


def indecomposables(cat):
    ar = knit(cat)
    return [ar.module(i) for i in range(ar.count)]


def test_resolution_oracle_a2():
    S = simple_module(A2, 1)
    res = min_proj_resolution(S)
    assert res.terms == [[1], [2]]
    assert is_complex(S)
    assert is_minimal(res)
    assert pdim(projective_module(A2, 1)) == 0


def test_resolutions_minimal_and_complex():
    for cat in (A3, D4):
        for x in cat.objects:
            S = simple_module(cat, x)
            assert is_complex(S)
            assert is_minimal(min_proj_resolution(S))


def test_gldim_domdim_oracles():
    assert gldim(A3) == 1
    assert gldim(D4) == 1
    one = category_from_presentation(
        BoundPresentation(Quiver(["v"], []), []), FIELD)
    assert gldim(one) == 0
    assert domdim(one) is INFINITY
    nak = category_from_presentation(nakayama_linear(4, 3), FIELD)
    assert gldim(nak) == 2
    from ausglue.glue import auslander_category
    aus, _ = auslander_category(A3)
    assert gldim(aus) == 2
    assert domdim(aus) == 2


def test_projective_injectives_labels_once(monkeypatch):
    """The pairing is computed once per category, from the structure
    constants: the first call builds D(P_x) only for the x with P_x not
    injective, once each and in object order, and a later call, like the
    one in sigma after domdim, builds none and returns the same pairing."""
    from ausglue import homology
    built = []

    def counted(cat, x):
        built.append(x)
        return fincat.dual_projective_module(cat, x)
    monkeypatch.setattr(homology, "dual_projective_module", counted)
    nak = category_from_presentation(nakayama_linear(4, 3), FIELD)
    first = projective_injectives(nak)
    assert first and built == [x for x in nak.objects if x not in first]
    del built[:]
    assert projective_injectives(nak) == first
    assert domdim(nak) == 1 and built == []


def test_projective_injectives_match_isomorphism_test():
    """The Yoneda criteria against the definitions they replace, over the
    default field, GF(2) and QQ, as the pairing is read off ranks: the
    pairing holds x: y exactly when P_x is isomorphic to I_y, in object
    order, and over the opposite category its keys are the y whose I_y is
    projective, on A3, D4, Nakayama(4,3), Auslander(A3), Gamma and Sigma
    of A3 with k = 1, and a category whose pairing at x -> z -> y has
    determinant 2, so that P_x = I_y except over GF(2).  On every knitted
    indecomposable of the first four the top/socle labels name the P_x /
    I_y it is isomorphic to, and vertex_label agrees with hom solving."""
    from ausglue.glue import auslander_category, build_sk
    from ausglue.tower import sigma
    for field in (FIELD, GF(2), QQ):
        a3 = make(DynkinSpec("A", 3, "linear"), field)
        nak = category_from_presentation(nakayama_linear(4, 3), field)
        glued = build_sk(a3, 1)
        det2 = category_from_presentation(_determinant_two(), field)
        cats = [a3, make(DynkinSpec("D", 4, "out"), field), nak,
                auslander_category(a3)[0], glued.cat, sigma(glued)[0], det2]
        for cat in cats:
            _check_pairing(cat)
        for cat in cats[:4]:
            _check_labels(cat)
        assert (projective_injectives(det2).get("x") == "y") == \
            (field.p != 2)


def _determinant_two():
    """x => z => y by arrows a1, a2 and b1, b2, with hom(x, y) = K spanned
    by t = b1 a1, and b1 a2 = b2 a2 = t, b2 a1 = -t: the dimensions of
    P_x and I_y agree, and the pairing at z is [[1, 1], [-1, 1]]."""
    q = Quiver(["x", "z", "y"], [("a1", "x", "z"), ("a2", "x", "z"),
                                 ("b1", "z", "y"), ("b2", "z", "y")])
    t = (1, ("a1", "b1"))
    return BoundPresentation(q, [[t, (-1, ("a2", "b1"))],
                                 [t, (-1, ("a2", "b2"))],
                                 [t, (1, ("a1", "b2"))]])


def _check_pairing(cat):
    projs = {x: projective_module(cat, x) for x in cat.objects}
    injs = {y: injective_module(cat, y) for y in cat.objects}
    pairing = projective_injectives(cat)
    assert list(pairing) == [x for x in cat.objects if x in pairing]
    for x in cat.objects:
        for y in cat.objects:
            assert (pairing.get(x) == y) == \
                modules_isomorphic(projs[x], injs[y])
    assert set(projective_injectives(cat.opposite())) == {
        y for y in cat.objects
        if any(modules_isomorphic(injs[y], projs[x]) for x in cat.objects)}


def _check_labels(cat):
    projs = {x: projective_module(cat, x) for x in cat.objects}
    injs = {y: injective_module(cat, y) for y in cat.objects}
    for M in indecomposables(cat):
        P = [x for x in cat.objects if modules_isomorphic(M, projs[x])]
        I = [y for y in cat.objects if modules_isomorphic(M, injs[y])]
        S = [x for x in cat.objects
             if modules_isomorphic(M, simple_module(cat, x))]
        assert len(P) <= 1 and len(I) <= 1 and len(S) <= 1
        assert projective_label(M) == next(iter(P), None)
        assert injective_label(M) == next(iter(I), None)
        assert vertex_label(cat, M) == (
            "P_%s" % (P[0],) if P else "I_%s" % (I[0],) if I
            else "S_%s" % (S[0],) if S else "M%s" % (M.dim_vector(),))


def test_ext_oracles():
    assert ext_dim(projective_module(A2, 1), simple_module(A2, 2), 1) == 0
    assert ext_dim(simple_module(A2, 1), simple_module(A2, 2), 1) == 1
    assert ext_dim(simple_module(A2, 1), simple_module(A2, 2), 2) == 0
    # degree 0 agrees with hom
    for x in A3.objects:
        for y in A3.objects:
            P = projective_module(A3, x)
            I = injective_module(A3, y)
            assert ext_dim(P, I, 0) == len(hom_by_naturality(P, I))


def _reference_ext_reps(X, Y, n, res):
    """(representatives, cocycles) of Ext^n(X, Y), the representatives
    picked one cocycle at a time: a cocycle is kept when it enlarges the
    span of the coboundaries and of the cocycles kept so far."""
    f = X.cat.field
    if n > res.length:
        return [], []
    hom_n = sum(Y.dims[b] for b in res.terms[n])
    if n < res.length:
        zvecs = kernel_basis(f, res.frees[n].hom_into(
            Y, res.terms[n + 1], res.diffs[n]), hom_n)
    else:
        zvecs = [[f.one if j == i else f.zero for j in range(hom_n)]
                 for i in range(hom_n)]
    bvecs = []
    if len(res.diffs) >= n:
        V = oracles.hom_matrix(res.frees[n - 1], Y, res.terms[n],
                               res.diffs[n - 1])
        bvecs = [oracles.col(V, j) for j in range(V.ncols)]
    span = row_space_basis(f, bvecs, hom_n)
    reps = []
    for zv in zvecs:
        trial = row_space_basis(f, span + [zv], hom_n)
        if len(trial) > len(span):
            reps.append(zv)
            span = trial
    return reps, zvecs


def test_domdim_resolves_only_unpaired_projectives(monkeypatch):
    """A paired P_x = I_y is its own coresolution, so domdim resolves
    D(P_x), the injective at x of the opposite category, only for the x
    outside the Nakayama pairing, and its value is unchanged."""
    from ausglue import homology
    from ausglue.glue import auslander_category, build_sk
    aus, _ = auslander_category(A3)
    real = homology._resolve
    for cat, value in ((build_sk(A3, 1).cat, 5), (aus, 2)):
        seen = []

        def counting(M):
            assert M.cat is cat.opposite()
            seen.append(injective_label(M))
            return real(M)

        with monkeypatch.context() as mp:
            mp.setattr(homology, "_resolve", counting)
            assert domdim(cat) == value
        pairing = projective_injectives(cat)
        unpaired = [x for x in cat.objects if x not in pairing]
        assert pairing and unpaired
        assert seen == unpaired


def test_ext_reps_match_incremental_reference():
    """ext_space picks its representatives with one elimination; they are
    the cocycles the one-at-a-time span test keeps, in degrees 1 and 2,
    from every indecomposable of Auslander(A3) to every indecomposable and
    to every sum of two of them.  Only the sums give cases where the kept
    cocycles are not simply the first ones."""
    from ausglue.glue import auslander_category
    aus, _ = auslander_category(A3)
    mods = indecomposables(aus)
    sums = [direct_sum(aus, [A, B])[0]
            for i, A in enumerate(mods) for B in mods[i:]]
    nonzero = not_first = 0
    for X in mods:
        res = min_proj_resolution(X)
        for Y in mods + sums:
            for n in (1, 2):
                reps = ext_space(X, Y, n).reps
                ref, zvecs = _reference_ext_reps(X, Y, n, res)
                assert reps == ref
                nonzero += bool(reps)
                not_first += reps != zvecs[:len(reps)]
    assert nonzero > 0 and not_first > 0


def test_ext_dims_match_ext_space():
    """ext_dims reads dim Ext^i, i = 0..3, off ranks alone, also from a
    degree low on; it agrees with the naturality reference and the cocycle
    bases of
    ext_space on every ordered pair of knitted indecomposables of
    Auslander(A3) and of Nakayama(4,3), and between them and sums of two
    of them (each with its next two in knitting order)."""
    from ausglue.glue import auslander_category
    aus, _ = auslander_category(A3)
    nak = category_from_presentation(nakayama_linear(4, 3), FIELD)
    nonzero = set()
    for cat in (aus, nak):
        mods = indecomposables(cat)
        sums = [direct_sum(cat, [A, B])[0]
                for i, A in enumerate(mods) for B in mods[i + 1:i + 3]]
        pairs = [(X, Y) for X in mods for Y in mods + sums] + \
            [(X, Y) for X in sums for Y in mods]
        for X, Y in pairs:
            res = min_proj_resolution(X)
            dims = ext_dims(res, Y, 3)
            assert dims == [len(hom_by_naturality(X, Y))] + \
                [ext_space(X, Y, i).dim for i in (1, 2, 3)]
            assert ext_dims(res, Y, 0) == dims[:1]
            assert ext_dims(res, Y, 2, 1) == dims[1:3]
            assert ext_dims(res, Y, 2, 2) == dims[2:3]
            nonzero.update(i for i, e in enumerate(dims) if e)
            assert ext_dim(X, Y, 2) == dims[2]
    assert nonzero == {0, 1, 2}


def test_resolution_solves_no_known_kernel(monkeypatch):
    """Rank-nullity fixes dim ker at every object before any elimination,
    so min_proj_resolution calls kernel_rows only where the kernel is
    neither 0 nor everything: every call returns at least one row.  Over
    QQ and GF(5), on the indecomposables of Auslander(A3) and the simples
    of Gamma of A3 with k = 1."""
    from ausglue import homology
    from ausglue.glue import auslander_category, build_sk
    cases = []
    for field in (QQ, GF(5)):
        a3 = category_from_presentation(
            hereditary_presentation(DynkinSpec("A", 3, "linear")), field)
        aus, _ = auslander_category(a3)
        gamma = build_sk(a3, 1).cat
        cases += indecomposables(aus)
        cases += [simple_module(gamma, x) for x in gamma.objects]
    calls = []
    kernel_rows = homology.kernel_rows

    def record(field, rows, length):
        out = kernel_rows(field, rows, length)
        calls.append(len(out))
        return out
    monkeypatch.setattr(homology, "kernel_rows", record)
    lengths = [min_proj_resolution(M).length for M in cases]
    assert calls and min(calls) > 0
    assert max(lengths) >= 2


def test_resolution_steps_only_on_support(monkeypatch):
    """Each resolution step works out the next syzygy only at objects
    where the new free module is nonzero: over QQ, on the simples of
    Gamma of A4 with k = 2."""
    from ausglue import homology
    from ausglue.glue import build_sk
    a4 = category_from_presentation(
        hereditary_presentation(DynkinSpec("A", 4, "linear")), QQ)
    gamma = build_sk(a4, 2).cat
    seen = []
    next_rows = homology._next_rows

    def record(G, F, images, y, ky):
        seen.append(G.dims[y])
        return next_rows(G, F, images, y, ky)
    monkeypatch.setattr(homology, "_next_rows", record)
    lengths = [min_proj_resolution(simple_module(gamma, x)).length
               for x in gamma.objects]
    assert max(lengths) >= 3 and seen and min(seen) > 0


def _reference_reduce(ext, vec):
    """ExtSpace.reduce by one solve against [cob_rows | reps] per call."""
    f = ext.field
    if not ext.reps and not ext.cob_rows:
        if any(v != f.zero for v in vec):
            raise NoSolution()
        return []
    A = Mat.from_cols(f, list(ext.cob_rows) + list(ext.reps))
    sol = oracles.solve_mat(A, Mat.from_cols(f, [vec]))
    return [sol.rows[len(ext.cob_rows) + i][0] for i in range(len(ext.reps))]


def test_ext_reduce_matches_solve_reference():
    """reduce, read at the reps' free columns where there are no
    coboundaries (every Hom, n = 0) and factored once per space otherwise,
    gives the coordinates of the reference solve on cocycles, and refuses
    the same non-cocycles, on both paths."""
    from ausglue.glue import auslander_category
    rng = random.Random(11)
    f = FIELD
    refused = {True: 0, False: 0}  # by whether the space has coboundaries
    for cat in (A3, D4, auslander_category(A3)[0]):
        mods = indecomposables(cat)
        for X in mods:
            res = min_proj_resolution(X)
            for Y in mods:
                for n in (0, 1, 2):
                    E = ext_space(X, Y, n)
                    basis = E.cob_rows + E.reps
                    if not basis:
                        continue
                    coeffs = [rng.randrange(-3, 4) for _ in basis]
                    mix = [f(sum(c * b[k] for c, b in zip(coeffs, basis)))
                           for k in range(len(basis[0]))]
                    for v in basis + [mix]:
                        assert E.reduce(v) == _reference_reduce(E, v)
                    for k in range(len(basis[0])):
                        unit = [f.one if j == k else f.zero
                                for j in range(len(basis[0]))]
                        try:
                            want = _reference_reduce(E, unit)
                        except NoSolution:
                            with pytest.raises(NoSolution):
                                E.reduce(unit)
                            refused[bool(E.cob_rows)] += 1
                        else:
                            assert E.reduce(unit) == want
    assert all(refused.values())


def test_syzygy():
    assert syzygy(projective_module(A2, 1)).total_dim() == 0
    assert modules_isomorphic(syzygy(simple_module(A2, 1)),
                              projective_module(A2, 2))
    S, _, _ = direct_sum(A3, [simple_module(A3, 1), simple_module(A3, 2)])
    omega = syzygy(S)
    expect = [syzygy(simple_module(A3, 1)), syzygy(simple_module(A3, 2))]
    assert omega.dim_vector() == tuple(
        a + b for a, b in zip(*(e.dim_vector() for e in expect)))
    # Omega(S1 (+) S2) = P2 (+) P3, with top S2 (+) S3
    assert [x for x, _ in top_generators(omega)] == [2, 3]


def test_tau_oracles():
    assert tau(projective_module(A2, 1)).total_dim() == 0
    assert tau_inv(injective_module(A2, 1)).total_dim() == 0
    assert modules_isomorphic(tau(simple_module(A2, 1)),
                              simple_module(A2, 2))
    for M in indecomposables(A3):
        assert modules_isomorphic(tau_n(M, 1), tau(M))
        if tau(M).total_dim():
            assert modules_isomorphic(tau_inv(tau(M)), M)


@pytest.mark.parametrize("cat", [A3, D4], ids=["A3", "D4"])
def test_ar_duality_exhaustive(cat):
    mods = indecomposables(cat)
    for X in mods:
        for Y in mods:
            tY = tau(Y)
            lhs = len(hom_by_naturality(X, tY)) if tY.total_dim() else 0
            assert lhs == ext_dim(Y, X, 1)


@pytest.mark.parametrize("objs, arrows, cycle", [
    ("ab", ["ab", "ba"], "a -> b -> a"),
    ("dabc", ["ab", "bc", "ca", "ad"], "a -> b -> c -> a"),
], ids=["two-cycle", "three-cycle-and-a-sink"])
def test_gldim_refuses_a_category_that_is_not_directed(objs, arrows, cycle):
    """A one-dimensional hom along each arrow, every composite of two
    arrows zero: the hom support has a cycle, so gldim refuses the
    category and names the cycle, without the sink d.  Resolving a simple
    there runs on into Truncated."""
    homs = {(x, x) for x in objs} | {tuple(xy) for xy in arrows}
    comp = {(x, y, z): [[[FIELD.one if x == y or y == z else FIELD.zero]]]
            for x, y in homs for z in objs if {(y, z), (x, z)} <= homs}
    cat = FinCategory(FIELD, list(objs), dict.fromkeys(homs, 1), comp)
    assert oracles.check_associativity(cat) == (True, None)
    with pytest.raises(NotDirected, match="^not directed: hom support has "
                       "the cycle %s$" % cycle):
        gldim(cat)
    with pytest.raises(Truncated):
        pdim(simple_module(cat, "a"))


def _arrow_category(objs, arrows):
    """A one-dimensional hom along each arrow, every composite of two
    arrows zero."""
    homs = {(x, x) for x in objs} | {tuple(xy) for xy in arrows}
    comp = {(x, y, z): [[[FIELD.one if x == y or y == z else FIELD.zero]]]
            for x, y in homs for z in objs if {(y, z), (x, z)} <= homs}
    return FinCategory(FIELD, list(objs), dict.fromkeys(homs, 1), comp)


def _directedness(check, cat):
    """None when check passes cat, else the NotDirected message."""
    try:
        check(cat)
    except NotDirected as e:
        return str(e)
    return None


def _assert_sparse_passes_match_dense(cat):
    """The passes that walk the hom support against the references that
    scan every object pair, dict order included."""
    assert list(_nakayama_pairing(cat).items()) == \
        list(oracles.nakayama_pairing(cat).items())
    assert _directedness(_refuse_cycles, cat) == \
        _directedness(oracles.refuse_cycles, cat)
    assert list(cat.gabriel_arrows().items()) == \
        list(oracles.dense_gabriel_arrows(cat).items())


def test_sparse_passes_match_dense_references():
    """The Nakayama pairing, the directedness verdict with its named cycle
    and the Gabriel quiver agree with the dense references on A3, D4,
    Nakayama(4,3), Auslander(A3), Gamma and Sigma of A3 with k = 1, Gamma
    of A4 with k = 2, the determinant-two category and the two categories
    that are not directed, over the default field, GF(2) and QQ, and on
    each opposite."""
    from ausglue.glue import auslander_category, build_sk
    from ausglue.tower import sigma
    cyclic = [_arrow_category("ab", ["ab", "ba"]),
              _arrow_category("dabc", ["ab", "bc", "ca", "ad"])]
    assert all(_directedness(_refuse_cycles, c) for c in cyclic)
    for field in (FIELD, GF(2), QQ):
        a3 = make(DynkinSpec("A", 3, "linear"), field)
        glued = build_sk(a3, 1)
        cats = [a3, make(DynkinSpec("D", 4, "out"), field),
                category_from_presentation(nakayama_linear(4, 3), field),
                auslander_category(a3)[0], glued.cat, sigma(glued)[0],
                build_sk(make(DynkinSpec("A", 4), field), 2).cat,
                category_from_presentation(_determinant_two(), field)]
        for cat in cats + cyclic:
            _assert_sparse_passes_match_dense(cat)
            _assert_sparse_passes_match_dense(cat.opposite())


@st.composite
def _hom_supports(draw):
    """Objects 0..n-1 and arrows between them: any set of pairs, or only
    the pairs that go forward in a drawn order, which have no cycle."""
    n = draw(st.integers(1, 6))
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    if draw(st.booleans()):
        rank = {x: i for i, x in enumerate(draw(st.permutations(range(n))))}
        pairs = [(x, y) for x, y in pairs if rank[x] < rank[y]]
    arrows = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return list(range(n)), sorted(arrows)


@settings(max_examples=200, deadline=None)
@given(_hom_supports())
def test_sparse_passes_match_dense_on_random_supports(support):
    objs, arrows = support
    cat = _arrow_category(objs, arrows)
    _assert_sparse_passes_match_dense(cat)
    _assert_sparse_passes_match_dense(cat.opposite())


def test_gldim_bounds_random_sample():
    rng = random.Random(20240817)
    nak = category_from_presentation(nakayama_linear(4, 3), FIELD)
    g = gldim(nak)
    sims = [simple_module(nak, x) for x in nak.objects]
    for _ in range(20):
        picks = [rng.choice(sims) for _ in range(rng.randint(1, 3))]
        M, _, _ = direct_sum(nak, picks)
        assert pdim(M) <= g


def assert_chain_map(X, Y, images, res_src, res_dst, lifts):
    """Every lifted square of f: X -> Y, given by its images, commutes on
    the dense realizations: eps o L_0 = f o eps and d o L_m = L_{m-1} o d,
    eps the covers.  A lift None, past the end of res_dst, is zero, and
    then so is L_{m-1} o d."""
    real = [None if L is None else
            realize((res_src.frees[m], res_dst.frees[m], L))
            for m, L in enumerate(lifts)]
    eps_src, eps_dst = cover(res_src, X), cover(res_dst, Y)
    assert map_is_zero(sub_maps(compose_maps(eps_dst, real[0]),
                                compose_maps(dense_map(X, Y, images),
                                             eps_src)))
    for m in range(1, len(real)):
        if real[m - 1] is None:
            assert real[m] is None
            continue
        right = compose_maps(real[m - 1],
                             realize(differentials(res_src)[m - 1]))
        if real[m] is None:
            assert map_is_zero(right)
        else:
            left = compose_maps(realize(differentials(res_dst)[m - 1]),
                                real[m])
            assert map_is_zero(sub_maps(left, right))


def test_lift_well_defined_under_homotopy():
    """The induced map Ext(Y,Z) -> Ext(X,Z) of a hom X -> Y does not depend
    on the chain-map lift: perturbing the lift by a homotopy term changes
    the cocycle by a coboundary only.  Every lifted square commutes."""
    rng = random.Random(11)
    mods = indecomposables(A3)
    checked = 0
    for X in mods:
        res_src = min_proj_resolution(X)
        for Y in mods:
            homs = oracles.hom_images(X, Y)
            if not homs:
                continue
            res_dst = min_proj_resolution(Y)
            if res_dst.length < 1 or res_src.length < 1:
                continue
            for f in homs:
                assert_chain_map(X, Y, f, res_src, res_dst,
                                 lift_chain_map(f, Y, res_src, res_dst, 1))
            for Z in mods:
                ext_yz = ext_space(Y, Z, 1)
                if ext_yz.dim == 0:
                    continue
                ext_xz = ext_space(X, Z, 1)
                L = lift_chain_map(homs[0], Y, res_src, res_dst, 1)
                vec = ext_yz.reps[0]
                w = oracles.hom_matrix(res_dst.frees[1], Z, res_src.terms[1],
                                       L[1]).apply(vec)
                # homotopy s: F_0(src) -> F_1(dst), random coefficients
                src0 = res_src.terms[0]
                dst1 = res_dst.terms[1]
                entries = [[[FIELD(rng.randint(-3, 3))
                             for _ in range(A3.homdim[(b, a)])]
                            for a in src0] for b in dst1]
                _, _, s = from_entries(res_src.frees[0], res_dst.frees[1],
                                       entries)
                u = oracles.hom_matrix(res_dst.frees[1], Z, src0,
                                       s).apply(vec)
                corr = oracles.hom_matrix(res_src.frees[0], Z,
                                          res_src.terms[1],
                                          res_src.diffs[0]).apply(u)
                w2 = [a + b for a, b in zip(w, corr)]
                if FIELD.p is not None:
                    w2 = [v % FIELD.p for v in w2]
                assert ext_xz.reduce(w2) == ext_xz.reduce(w)
                checked += 1
    assert checked > 0


def test_pull_matches_hom_matrix():
    """FreeModule.pull, as build_glued applies it to every degree-n lift
    and Ext^n representative, gives the cocycle that the matrix of
    Hom(L_n, Z) gives, block by block: on the cluster-tilting modules of
    Auslander(A3) with n = 2, and on the knitted indecomposables of A3 and
    of D4 with n = 1, which build_sk glues into Gamma.  D4 also meets a
    generator at an object where F_n(b) is 0 (the A3 inputs never do);
    there the image is the zero vector of Z, of length dim Z there."""
    from itertools import accumulate
    from ausglue.glue import auslander_category, cluster_tilting_subcategory
    aus, _ = auslander_category(A3)
    pulls = zero_space = 0
    for mods, n in ((cluster_tilting_subcategory(aus, 2)[0], 2),
                    (indecomposables(A3), 1), (indecomposables(D4), 1)):
        res = [min_proj_resolution(M) for M in mods]
        for a, X in enumerate(mods):
            for b, Y in enumerate(mods):
                for f in oracles.hom_images(X, Y):
                    lifts = lift_chain_map(f, Y, res[a], res[b], n)
                    if len(lifts) <= n or lifts[n] is None:
                        continue
                    F, objs = res[b].frees[n], res[a].terms[n]
                    for Z in mods:
                        ext = ext_space(Y, Z, n)
                        for vec in ext.reps:
                            pulled = F.pull(Z, ext.images(vec), objs,
                                            lifts[n], {})
                            full = oracles.hom_matrix(F, Z, objs,
                                                      lifts[n]).apply(vec)
                            offs = list(accumulate(
                                (Z.dims[x] for x in objs), initial=0))
                            assert pulled == [full[o:e] for o, e in
                                              zip(offs, offs[1:])]
                            pulls += 1
                            zero_space += any(not F.dims[x] and Z.dims[x]
                                              for x in objs)
    assert pulls and zero_space


def test_lift_degree_two_squares_commute():
    """Lifts up to degree 2, the n = 2 path of build_mk: every square
    commutes, over every hom between the knitted indecomposables of
    Auslander(A3), and oracles.compose_catmats agrees with the dense
    product on both sides of each square."""
    from ausglue.glue import auslander_category
    aus, _ = auslander_category(A3)
    mods = indecomposables(aus)
    degree_two = 0
    for X in mods:
        res_src = min_proj_resolution(X)
        for Y in mods:
            res_dst = min_proj_resolution(Y)
            for f in oracles.hom_images(X, Y):
                lifts = lift_chain_map(f, Y, res_src, res_dst, 2)
                assert_chain_map(X, Y, f, res_src, res_dst, lifts)
                for m in range(1, len(lifts)):
                    if lifts[m] is None:
                        continue
                    lift = [(res_src.frees[i], res_dst.frees[i], lifts[i])
                            for i in (m - 1, m)]
                    for v, u in ((differentials(res_dst)[m - 1], lift[1]),
                                 (lift[0], differentials(res_src)[m - 1])):
                        assert realize(compose_catmats(v, u)).mats == \
                            compose_maps(realize(v), realize(u)).mats
                    degree_two += m == 2
    assert degree_two


def test_catmat_compose_of_differentials_is_zero():
    """Consecutive differentials compose to zero in Yoneda coordinates,
    entry by entry, with the composite's summands those of the ends."""
    zero = FIELD.zero
    composites = 0
    for M in _resolution_cases():
        ds = differentials(min_proj_resolution(M))
        for hi, lo in zip(ds, ds[1:]):
            src, dst, images = compose_catmats(hi, lo)
            assert (src.summands, dst.summands) == (lo[0].summands,
                                                    hi[1].summands)
            assert all(v == zero for w in images for v in w)
            composites += any(images)
    assert composites


def test_resolved_temporaries_are_freed_without_gc():
    """A resolution keeps neither its module nor a map into it, so a
    temporary module that gets resolved is freed by reference counting
    alone: D(P_x) resolved, as injective_coresolutions does, and D(M)
    transposed, as tau_inv does."""
    gc.disable()
    try:
        for x in A3.objects:
            D = dual_module(projective_module(A3, x))
            min_proj_resolution(D)
            ref = weakref.ref(D)
            del D
            assert ref() is None
        for M in indecomposables(A3):
            D = dual_module(M)
            transpose_module(D)
            ref = weakref.ref(D)
            del D
            assert ref() is None
    finally:
        gc.enable()


def _reference_resolution(M):
    """(terms, diffs) of the minimal resolution as built by giving every
    syzygy its own module structure (a Submodule with a solved action) and
    covering it by its dense top (oracles.dense_top), independently of the
    top routine that min_proj_resolution uses."""
    gens = oracles.dense_top(M)
    F = FreeModule(M.cat, [x for x, _ in gens])
    K = kernel(yoneda_map(F, M, [v for _, v in gens]))
    terms, diffs = [list(F.summands)], []
    while K.module.total_dim():
        kgens = oracles.dense_top(K.module)
        G = FreeModule(M.cat, [x for x, _ in kgens])
        diffs.append([Mat.from_cols(M.cat.field, K.basis[y]).apply(v)
                      for y, v in kgens])
        terms.append(list(G.summands))
        K = kernel(yoneda_map(G, K.module, [v for _, v in kgens]))
        F = G
    return terms, diffs


def _reference_transpose(M, n):
    """Tr(Omega^{n-1} M): n - 1 Submodule syzygies, then the Quotient
    cokernel of the dense dualized presentation from
    _reference_resolution."""
    for _ in range(n - 1):
        M = syzygy(M)
    terms, diffs = _reference_resolution(M)
    if not diffs:
        return fincat.zero_module(M.cat.opposite())
    d = (FreeModule(M.cat, terms[1]), FreeModule(M.cat, terms[0]), diffs[0])
    return cokernel(realize(dual_map(d))).module


def _resolution_cases():
    """Simples, injectives and duals of projectives over A3,
    Nakayama(4,3), Auslander(A3) and Gamma of A3 with k = 1, and every
    knitted indecomposable of the first three."""
    from ausglue.glue import auslander_category, build_sk
    nak = category_from_presentation(nakayama_linear(4, 3), FIELD)
    aus, _ = auslander_category(A3)
    for cat, knitted in ((A3, True), (nak, True), (aus, True),
                         (build_sk(A3, 1).cat, False)):
        if knitted:
            yield from indecomposables(cat)
        for x in cat.objects:
            yield from (simple_module(cat, x), injective_module(cat, x),
                        dual_module(projective_module(cat, x)))


def test_resolution_matches_submodule_reference():
    """Resolving in free-module coordinates gives the terms and the
    differentials of the Submodule-based construction, image for image,
    so entry for entry."""
    for M in _resolution_cases():
        res = min_proj_resolution(M)
        terms, diffs = _reference_resolution(M)
        assert res.terms == terms
        assert res.diffs == diffs


def test_tau_n_matches_syzygy_reference():
    """transpose_module, tau_n and tau_inv read off the resolution equal
    the Quotient cokernel of the dense presentation of the iterated
    Submodule syzygy, and its dual, with the same dims and action
    matrices; n < 1 is refused."""
    from ausglue.glue import auslander_category
    aus, _ = auslander_category(A3)
    for cat in (A3, aus):
        for M in indecomposables(cat):
            for n in (1, 2):
                R = _reference_transpose(M, n)
                for T, ref in ((transpose_module(M, n), R),
                               (tau_n(M, n), dual_module(R))):
                    assert T.dims == ref.dims and T.act == ref.act
            T, R = tau_inv(M), _reference_transpose(dual_module(M), 1)
            assert T.dims == R.dims and T.act == R.act
    with pytest.raises(InvalidParams):
        tau_n(simple_module(A3, 1), 0)


def test_resolution_builds_no_submodule(monkeypatch):
    """Knitting, resolutions, Ext, tau_n, chain-map lifts and build_mk
    never give a syzygy its own module structure."""
    from ausglue.glue import auslander_category, build_mk

    def forbidden(*args):
        raise AssertionError("forbidden construction")
    monkeypatch.setattr(oracles.Submodule, "__init__", forbidden)
    aus, _ = auslander_category(A3)
    mods = indecomposables(aus)
    for X in mods:
        res = min_proj_resolution(X)
        assert is_minimal(res)
        for Y in mods:
            for i in (1, 2):
                assert ext_space(X, Y, i).resolution is res
            for f in oracles.hom_images(X, Y):
                lift_chain_map(f, Y, res, min_proj_resolution(Y), 2)
        tau_n(X, 2)
    build_mk(aus, 1, 2)


def _checked_scan(monkeypatch, check):
    """Route every top scan, of a module (top_generators) and of a syzygy
    (min_proj_resolution), through check(F, rows, gens, seen), where gens
    is what submodule_top gave and seen counts the images it computed at
    each object."""
    from ausglue import homology
    scan = fincat.submodule_top

    def checked(F, rows):
        seen = dict.fromkeys(rows, 0)

        def apply_action(x, y, i, v):
            seen[y] += 1
            return F.apply_action(x, y, i, v)
        gens = scan(types.SimpleNamespace(cat=F.cat, dims=F.dims,
                                          apply_action=apply_action), rows)
        check(F, rows, gens, seen)
        return gens
    monkeypatch.setattr(fincat, "submodule_top", checked)
    monkeypatch.setattr(homology, "submodule_top", checked)


def test_top_scan_matches_full_scan(monkeypatch):
    """The early-stopping top scan gives the generators of the full scan
    (oracles.full_submodule_top), vector for vector, on every module and
    syzygy resolved while building Gamma of A3 with k = 1, Gamma of D4
    with k = 1 and Gamma of Auslander(A3) at n = 2 and taking their gldim
    and domdim, and in resolving the sum of each knitted indecomposable of
    Auslander(A3) with its next two, where images of the radical share a
    leading column and must be reduced, and in the top of a module over
    A2, P_1 (+) S_2 with the arrow acting by (1, 1), whose radical at 2 is
    spanned by a vector with two nonzero entries; and it stops early,
    before the last image, at some object where the submodule has
    dimension 2 or more."""
    from ausglue.glue import auslander_category, build_sk, build_mk
    early = []

    def check(F, rows, gens, seen):
        assert gens == oracles.full_submodule_top(F, rows)
        c = F.cat
        early.extend(y for y, ky in rows.items() if len(ky) >= 2 and
                     seen[y] < sum(c.homdim[(x, y)] * len(rows[x])
                                   for x in rows if x != y))
    _checked_scan(monkeypatch, check)
    aus, _ = auslander_category(A3)
    for glued in (build_sk(A3, 1), build_sk(D4, 1), build_mk(aus, 1, 2)):
        gldim(glued.cat)
        domdim(glued.cat)
    mods = indecomposables(aus)
    for i in range(len(mods) - 2):
        min_proj_resolution(direct_sum(aus, mods[i:i + 3])[0])
    top_generators(fincat.CatModule(A2, {1: 1, 2: 2}, {
        (1, 2): [Mat(FIELD, [[1], [1]])]}))
    assert early


def test_thin_resolutions_make_no_rref(monkeypatch):
    """Resolving a thin module, every syzygy of which is thin too (each
    K(y) of dimension at most 1), makes no Mat.rref call: the top scan
    stops at the first nonzero image, and each kernel is 0 or everything.
    On the simples, projectives and injectives of linear A4 and
    Nakayama(4,3), and their injective coresolution tables, whose pairing
    reads one-dimensional homs by a nonzero test."""
    from ausglue.homology import injective_coresolutions

    def thin(F, rows, gens, seen):
        assert all(len(ky) <= 1 for ky in rows.values())

    def no_rref(self):
        raise AssertionError("rref on a %dx%d matrix"
                             % (self.nrows, self.ncols))
    cats = [make(DynkinSpec("A", 4, "linear")),
            category_from_presentation(nakayama_linear(4, 3), FIELD)]
    modules = [M for cat in cats for x in cat.objects
               for M in (simple_module(cat, x), projective_module(cat, x),
                         injective_module(cat, x))]
    _checked_scan(monkeypatch, thin)
    monkeypatch.setattr(Mat, "rref", no_rref)
    lengths = [min_proj_resolution(M).length for M in modules]
    assert max(lengths) >= 2
    for cat in cats:
        injective_coresolutions(cat)
