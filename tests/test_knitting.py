import pytest

from ausglue.errors import NotRepFinite
from ausglue.linalg import Mat, QQ, GF, default_field, row_space_basis
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
from ausglue.glue import auslander_category
from ausglue.homology import ext_space, gldim, min_proj_resolution
from ausglue.knitting import knit, OVSIENKO_BOUND
import oracles
from oracles import (aus_rank, compose_maps, cover, dense_map, flatten,
                     hom_by_naturality, is_natural, yoneda_map)

FIELD = default_field()


def make(spec, field=FIELD):
    return category_from_presentation(hereditary_presentation(spec), field)


@pytest.mark.parametrize("spec", [
    DynkinSpec("A", 2), DynkinSpec("A", 3), DynkinSpec("A", 3, "alternating"),
    DynkinSpec("A", 4), DynkinSpec("D", 4, "out"),
], ids=str)
def test_count_matches_positive_roots(spec):
    ar = knit(make(spec))
    assert ar.count == spec.positive_root_count()


@pytest.mark.parametrize("spec", [
    DynkinSpec("A", 3), DynkinSpec("A", 4), DynkinSpec("D", 4, "in"),
], ids=str)
def test_mesh_property(spec):
    ar = knit(make(spec))
    ok, bad = oracles.check_mesh(ar)
    assert ok, "mesh fails at vertex %s" % bad
    # Dynkin AR quivers have no multiple irreducible maps
    assert all(m == 1 for _, _, m in ar.arrows)


def test_labels_and_flags():
    cat = make(DynkinSpec("A", 3, "linear"))
    ar = knit(cat)
    labels = ar.labels()
    assert sorted(labels) == ["I_1", "I_2", "P_1", "P_2", "P_3", "S_2"]
    projs = {ar.projective_of[i] for i in range(ar.count)
             if ar.projective_of[i] is not None}
    assert projs == set(cat.objects)
    inj = {labels[i] for i in range(ar.count) if ar.injective_flags[i]}
    assert inj == {"I_1", "I_2", "P_1"}  # P_1 is projective-injective


def test_hom_dims_match_interval_oracle():
    """Over the linear A_n quiver the indecomposables are interval modules
    M[a,b] and dim Hom(M[a,b], M[c,d]) = 1 exactly when c <= a <= d <= b."""
    for n in (3, 4):
        cat = make(DynkinSpec("A", n, "linear"))
        ar = knit(cat)

        def interval(i):
            dv = ar.module(i).dim_vector()
            sup = [j + 1 for j, d in enumerate(dv) if d]
            assert dv == tuple(1 if sup[0] <= j + 1 <= sup[-1] else 0
                               for j in range(n))
            return sup[0], sup[-1]

        for i in range(ar.count):
            a, b = interval(i)
            for j in range(ar.count):
                c, d = interval(j)
                expect = 1 if c <= a <= d <= b else 0
                assert len(hom_by_naturality(ar.module(i),
                                             ar.module(j))) == expect


def test_kronecker_refused_at_its_multiple_arrow():
    """knit refuses a multiple Gabriel arrow at once, as NotRepFinite."""
    q = Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)])
    cat = category_from_presentation(BoundPresentation(q, []), FIELD)
    with pytest.raises(NotRepFinite, match="^representation-infinite: 2 "
                       "Gabriel arrows 1 -> 2 "):
        knit(cat)


@pytest.mark.parametrize("spec, top", [
    (DynkinSpec("E", 7), 4), (DynkinSpec("E", 8), 6),
    # (m, ell): nakayama_linear(m, ell), of global dimension 3 to 6
    ((4, 2), 1), ((5, 2), 1), ((6, 2), 1), ((7, 2), 1),
    ((6, 3), 1), ((7, 3), 1), ((8, 4), 1),
], ids=str)
def test_ovsienko_bound_is_tight(spec, top):
    """Every positive root of E7 and E8 has its coordinates <= 6, and the
    highest root of E8 reaches 6, so the bound in knit refuses no Dynkin
    input.  Nor does it refuse a representation-directed algebra of
    global dimension above 2: these linear Nakayama algebras knit
    completely, to their interval modules."""
    if isinstance(spec, DynkinSpec):
        cat, count = make(spec), spec.positive_root_count()
    else:
        m, ell = spec
        cat = category_from_presentation(nakayama_linear(m, ell), FIELD)
        count = sum(m - j for j in range(ell))  # intervals of length <= ell
        assert gldim(cat) >= 3
    ar = knit(cat)
    assert ar.count == count
    assert max(max(dv) for _, dv in ar.vertices) == top <= OVSIENKO_BOUND


def _coords_by_solve(field, basis_rows, vector):
    """The coordinates of vector over basis_rows, by one solve."""
    A = Mat.from_cols(field, basis_rows)
    return oracles.col(oracles.solve_mat(A, Mat.from_cols(field, [vector])), 0)


def _dense_homs(ar):
    """The hom bases of ar.table, ext_space(.., .., 0) by positions, as
    DenseMaps solved from their images."""
    mods = [ar.module(i) for i in range(ar.count)]
    return {(a, b): [dense_map(mods[a], mods[b], H.images(r)) for r in H.reps]
            for (a, b), H in ar.table[0].items()}


def _reference_structure_constants(field, ar):
    """comp[(a, b, c)][i][j]: the coordinates of g_i o f_j over the
    flattened hom(a, c) basis, from the product of the dense maps and a
    solve."""
    m, homs = ar.count, _dense_homs(ar)
    hflat = {key: [flatten(g) for g in basis] for key, basis in homs.items()}
    comp = {}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if homs[(a, b)] and homs[(b, c)] and homs[(a, c)]:
                    comp[(a, b, c)] = [
                        [_coords_by_solve(field, hflat[(a, c)],
                                          flatten(compose_maps(g, f)))
                         for f in homs[(a, b)]]
                        for g in homs[(b, c)]]
    return comp


def _reference_arrows(ar):
    """dim rad/rad^2 from i to j: dim hom(i, j) less the rank of the
    flattened composites g o f of the dense maps through every third
    vertex k."""
    homs = _dense_homs(ar)
    n = ar.count
    arrows = []
    for i in range(n):
        for j in range(n):
            basis = homs[(i, j)]
            if i == j or not basis:
                continue
            vecs = [flatten(compose_maps(g, f)) for k in range(n)
                    if k != i and k != j
                    for f in homs[(i, k)] for g in homs[(k, j)]]
            r2 = len(row_space_basis(ar.cat.field, vecs,
                                     len(flatten(basis[0]))))
            if len(basis) > r2:
                arrows.append((i, j, len(basis) - r2))
    return arrows


SPECS = {"A3": DynkinSpec("A", 3),
         "A3-alternating": DynkinSpec("A", 3, "alternating"),
         "D4": DynkinSpec("D", 4)}
TABLE_CASES = pytest.mark.parametrize(
    "name", ["A3", "A3-alternating", "D4", "auslander-A3", "nakayama-4-3"])
FIELDS = pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)


def _table_category(name, field):
    if name in SPECS:
        return make(SPECS[name], field)
    if name == "auslander-A3":
        return auslander_category(make(DynkinSpec("A", 3), field))[0]
    return category_from_presentation(nakayama_linear(4, 3), field)


@FIELDS
@TABLE_CASES
def test_hom_table_matches_solve_reference(name, field):
    """The structure constants, each product reduced over the hom(a, c)
    basis by ExtSpace.reduce, equal the solved coordinates of the product
    maps, and the AR arrows, the Gabriel arrows of that table, equal the
    rank of the flattened composites; the mesh holds on the hereditary
    inputs."""
    ar = knit(_table_category(name, field))
    end = ar.table[1]
    assert end.objects == list(range(ar.count))
    assert end.comp == _reference_structure_constants(field, ar)
    assert ar.arrows == _reference_arrows(ar)
    if name in SPECS:
        assert oracles.check_mesh(ar) == (True, None)


@FIELDS
@TABLE_CASES
def test_hom_by_resolution_matches_naturality_reference(name, field):
    """Hom = ext_space(M, N, 0), read off the resolution, against the
    naturality solver on every ordered pair of knitted indecomposables:
    the same dimension and span, and each basis map natural, with h o cover
    the Yoneda map of its images; the basis of each End = K is the Yoneda
    map of tops, the identity."""
    cat = _table_category(name, field)
    ar = knit(cat)
    mods = [ar.module(i) for i in range(ar.count)]
    nonzero = 0
    for M in mods:
        res = min_proj_resolution(M)
        pi = cover(res, M)
        End = ext_space(M, M, 0)
        assert [End.images(r) for r in End.reps] == [res.tops]
        for N in mods:
            H = ext_space(M, N, 0)
            basis, ref = [H.images(r) for r in H.reps], hom_by_naturality(M, N)
            assert len(basis) == len(ref)
            dense = [dense_map(M, N, images) for images in basis]
            for images, d in zip(basis, dense):
                assert is_natural(d)
                assert compose_maps(d, pi).mats == \
                    yoneda_map(res.frees[0], N, images).mats
            length = sum(M.dims[x] * N.dims[x] for x in cat.objects)
            assert row_space_basis(field, [flatten(d) for d in dense],
                                   length) == \
                row_space_basis(field, [flatten(h) for h in ref], length)
            nonzero += bool(basis)
    assert nonzero > len(mods)


def test_aus_rank():
    assert aus_rank(DynkinSpec("A", 1), FIELD) == 1
    assert aus_rank(DynkinSpec("A", 3), FIELD) == 6
    assert aus_rank(DynkinSpec("D", 4), FIELD) == 12


def test_vertex_label_fallback():
    cat = make(DynkinSpec("D", 4, "out"))
    ar = knit(cat)
    labels = ar.labels()
    assert "M(2, 1, 1, 1)" in labels
    assert len(set(labels)) == ar.count == 12
