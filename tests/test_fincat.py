import gc
import random
import weakref

import pytest

from ausglue.errors import NonSchurianVertex
from ausglue.linalg import Mat, QQ, GF, default_field
from ausglue.quiver import (BoundPresentation, DynkinSpec, Quiver,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
from ausglue.glue import build_sk
from ausglue.fincat import (projective_module, injective_module,
                            dual_projective_module, dual_module, CatModule,
                            FinCategory, FreeModule, top_generators)
from ausglue.homology import ext_space, modules_isomorphic
import oracles
from oracles import (cokernel, dense_free, dense_projective, direct_sum,
                     hom_maps, identity_map, is_natural, kernel, matmul,
                     simple_module, yoneda_map)


def make(n=3, field=None):
    return category_from_presentation(
        hereditary_presentation(DynkinSpec("A", n, "linear")),
        field or default_field())


def test_projective_dims_a2():
    cat = make(2)
    P1 = projective_module(cat, 1)
    assert P1.dim_vector() == (1, 1)
    assert simple_module(cat, 1).dim_vector() == (1, 0)
    assert injective_module(cat, 2).dim_vector() == (1, 1)
    assert injective_module(cat, 1).dim_vector() == (1, 0)


def test_structures_check():
    cat = make(3)
    for x in cat.objects:
        for M in (projective_module(cat, x), injective_module(cat, x),
                  simple_module(cat, x)):
            assert oracles.check_module(M)


def test_yoneda_dimension():
    cat = make(3)
    rng = random.Random(7)
    for x in cat.objects:
        P = projective_module(cat, x)
        for y in cat.objects:
            N = injective_module(cat, y)
            assert ext_space(P, N, 0).dim == N.dims[x]
        # random module: a direct sum of simples has zero maps only
        S, _, _ = direct_sum(cat, [simple_module(cat, rng.choice(cat.objects))
                                   for _ in range(2)])
        assert ext_space(P, S, 0).dim == S.dims[x]


def test_hom_between_simples():
    cat = make(3)
    assert ext_space(simple_module(cat, 1), simple_module(cat, 2),
                     0).reps == []
    assert ext_space(simple_module(cat, 1), simple_module(cat, 1),
                     0).dim == 1


def test_naturality_of_hom_basis():
    cat = make(3)
    P = projective_module(cat, 1)
    I = injective_module(cat, 3)
    for phi in hom_maps(P, I):
        assert is_natural(phi)


def test_isomorphism_detection():
    cat = make(3)
    P = projective_module(cat, 1)
    assert modules_isomorphic(P, projective_module(cat, 1))
    assert not modules_isomorphic(P, projective_module(cat, 2))
    assert modules_isomorphic(injective_module(cat, 3),
                              projective_module(cat, 1))


def test_isomorphism_of_decomposables():
    """Exact on direct sums while Hom is at most one-dimensional: P1 is
    not S1 (+) S2, with a one-dimensional Hom either way, and the sum of
    P1 alone is P1.  A larger Hom between modules whose End is not K is
    refused, naming the dimension vector and dim End: P1 (+) P2 against
    P2 (+) P1, and P1 (+) S2 against S1 (+) S2 (+) S2."""
    cat = make(2)
    P1, P2 = projective_module(cat, 1), projective_module(cat, 2)
    S1, S2 = simple_module(cat, 1), simple_module(cat, 2)
    split = direct_sum(cat, [S1, S2])[0]
    assert ext_space(P1, split, 0).dim == ext_space(split, P1, 0).dim == 1
    assert not modules_isomorphic(P1, split)
    assert not modules_isomorphic(split, P1)
    assert modules_isomorphic(direct_sum(cat, [P1])[0], P1)
    A = direct_sum(cat, [P1, P2])[0]
    B = direct_sum(cat, [P2, P1])[0]
    assert ext_space(A, B, 0).dim == 3
    with pytest.raises(NonSchurianVertex,
                       match=r"dimension vector \(1, 2\) has dimension 3"):
        modules_isomorphic(A, B)
    M = direct_sum(cat, [P1, S2])[0]
    N = direct_sum(cat, [S1, S2, S2])[0]
    assert M.dim_vector() == N.dim_vector()
    assert ext_space(M, N, 0).dim == 3
    with pytest.raises(NonSchurianVertex):
        modules_isomorphic(M, N)


def test_dual_module():
    cat = make(3)
    D = dual_module(projective_module(cat, 1))
    assert D.cat is cat.opposite()
    assert oracles.check_module(D)
    assert modules_isomorphic(D, injective_module(cat.opposite(), 1))


def test_opposite_involution_dims():
    cat = make(3)
    op = cat.opposite()
    for x in cat.objects:
        for y in cat.objects:
            assert op.homdim[(x, y)] == cat.homdim[(y, x)]
    assert oracles.check_associativity(op) == (True, None)
    assert oracles.check_identities(op) == (True, None)


def test_opposite_holds_no_reference_cycle():
    """A category keeps its opposite, which refers back only weakly: with
    the cyclic collector off, opposite() of the opposite is the category
    while it lives, the category is freed by reference counting once it is
    dropped, and a module over the opposite of the dead category still
    round-trips under the duality, over a rebuilt opposite."""
    gc.disable()
    try:
        cat = make(3)
        op = cat.opposite()
        assert op.opposite() is cat and cat.opposite() is op
        D = dual_module(projective_module(cat, 1))
        assert D.cat is op
        ref = weakref.ref(cat)
        del cat
        assert ref() is None
        DD = dual_module(D)
        assert DD.cat.opposite() is op
        back = dual_module(DD)
        assert back.cat is op
        assert back.dims == D.dims and back.act == D.act
        assert oracles.check_module(DD)
    finally:
        gc.enable()


def test_full_subcategory():
    cat = make(3)
    sub = cat.full_subcategory([1, 3])
    assert sub.objects == [1, 3]
    assert sub.homdim[(1, 3)] == cat.homdim[(1, 3)]
    assert oracles.check_associativity(sub) == (True, None)


def test_schurian_assertion():
    field = QQ
    homdim = {("x", "x"): 2}
    with pytest.raises(NonSchurianVertex):
        FinCategory(field, ["x"], homdim, {})


def test_endomorphism_of_indecomposables_is_one_dimensional():
    cat = make(3)
    from ausglue.knitting import knit
    ar = knit(cat)
    for i in range(ar.count):
        M = ar.module(i)
        assert ext_space(M, M, 0).dim == 1


def test_module_action_identity():
    cat = make(2)
    M = projective_module(cat, 1)
    e = identity_map(M)
    assert is_natural(e)
    assert all(e.mats[x] == matmul(e.mats[x], e.mats[x]) for x in cat.objects)


def _sample_modules(cat):
    """Projective, injective, simple, dual, free, kernel and cokernel
    modules over cat."""
    for x in cat.objects:
        P, I = projective_module(cat, x), injective_module(cat, x)
        yield from (P, I, simple_module(cat, x), dual_module(P),
                    dual_module(I), dual_projective_module(cat, x))
        gens = top_generators(I)
        F = FreeModule(cat, [s for s, _ in gens])
        cover = yoneda_map(F, I, [v for _, v in gens])
        yield cover.src
        yield kernel(cover).module
        for y in cat.objects:
            for phi in hom_maps(projective_module(cat, y), P):
                yield kernel(phi).module
                yield cokernel(phi).module


@pytest.mark.parametrize("build", [
    lambda: make(3),
    lambda: category_from_presentation(nakayama_linear(4, 3),
                                       default_field()),
    lambda: build_sk(make(3), 1).cat,
], ids=["A3", "nakayama-4-3", "gamma-A3-k1"])
def test_sparse_action_matches_dense(build):
    for M in _sample_modules(build()):
        assert oracles.check_module(M)
        for (x, y), mats in M.act.items():
            assert M.cat.homdim[(x, y)] and M.dims[x] and M.dims[y]
            assert len(mats) == M.cat.homdim[(x, y)]
        assert top_generators(M) == oracles.dense_top(M)


def _support_categories(field):
    """Linear A4, Gamma of A3 with one shift and the Nakayama algebra with
    four simples and Loewy length 3, over field."""
    return (make(4, field), build_sk(make(3, field), 1).cat,
            category_from_presentation(nakayama_linear(4, 3), field))


def test_free_module_lives_on_its_support():
    """A FreeModule's support is where it is nonzero; off it, offsets has
    no entry, yoneda_entries gives empty blocks and apply_action gives
    [], and apply_action agrees everywhere with the dense action of
    dense_free."""
    rng = random.Random(3)
    for cat in _support_categories(default_field()):
        f = cat.field
        for summands in ([], [cat.objects[-1]], cat.objects[:2] * 2,
                         rng.sample(cat.objects, 3)):
            F = FreeModule(cat, summands)
            dense = dense_free(F)
            assert F.support == [y for y in cat.objects if F.dims[y] > 0]
            assert set(F.dims) == set(F.support)
            assert set(F.offsets) == set(F.support)
            for y in cat.objects:
                if y not in F.support:
                    assert F.dims[y] == 0
                    assert F.yoneda_entries(y, []) == [[] for _ in summands]
                for x in cat.objects:
                    for i in range(cat.homdim[(x, y)]):
                        v = [f(rng.randrange(5)) for _ in range(F.dims[x])]
                        w = F.apply_action(x, y, i, v)
                        assert w == oracles.action(dense, x, y, i).apply(v)
                        if y not in F.support:
                            assert w == []


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_hom_into_matches_dense_blocks(field):
    """FreeModule.hom_into, accumulated in place, has block (j, i) equal
    to the action on N of the hom(b_i, a_j) element that image j holds at
    summand b_i (oracles.act_elem).  On the square 1 -> 2 -> 4, 1 -> 3 ->
    4 without relations, where hom(1, 4) is two-dimensional and both basis
    elements act at once, with random images and N = P_1 or I_4, each
    also in a random basis at every object, where the actions are dense
    and their sums leave [0, p)."""
    cat = category_from_presentation(BoundPresentation(Quiver(
        [1, 2, 3, 4], [("a", 1, 2), ("b", 2, 4), ("c", 1, 3), ("d", 3, 4)]),
        []), field)
    assert cat.homdim[(1, 4)] == 2
    rng = random.Random(5)
    G = FreeModule(cat, [1, 2, 1, 3])
    objs = [4, 1, 4, 2, 3]
    for M in (projective_module(cat, 1), injective_module(cat, 4)):
        for N in (M, _in_random_basis(M, rng)):
            _assert_hom_into_blocks(G, N, objs, rng)


def _in_random_basis(M, rng):
    """M, isomorphic, in a random basis B_x at each object: the action
    B_y A B_x^-1 for each action A: M(x) -> M(y)."""
    f = M.cat.field
    B = {}
    for x in M.support:
        while x not in B or not oracles.is_invertible(B[x]):
            B[x] = Mat(f, [[rng.randint(-3, 3) for _ in range(M.dims[x])]
                           for _ in range(M.dims[x])])
    return CatModule(M.cat, M.dims, {
        (x, y): [matmul(matmul(B[y], A), oracles.inverse(B[x]))
                 for A in mats] for (x, y), mats in M.act.items()})


def _assert_hom_into_blocks(G, N, objs, rng):
    field = G.cat.field
    for _ in range(5):
        images = [[field(rng.randint(-3, 3)) for _ in range(G.dims[a])]
                  for a in objs]
        want = []
        for a, w in zip(objs, images):
            blocks = [oracles.act_elem(N, b, a, e).rows for b, e in
                      zip(G.summands, G.yoneda_entries(a, w))]
            want += [[v for rows in blocks for v in rows[r]]
                     for r in range(N.dims[a])]
        assert G.hom_into(N, objs, images) == want


def test_full_subcategory_of_an_opposite_reads_it_transposed():
    """A full subcategory of an opposite keeps reading the shared comp
    transposed: its blocks are the opposite's, on every triple of its
    objects."""
    op = make(3).opposite()
    sub = op.full_subcategory([1, 3])
    triples = [(x, y, z) for x in sub.objects for y in sub.objects
               for z in sub.objects]
    assert any(oracles.block(sub, *t) for t in triples)
    assert all(oracles.block(sub, *t) == oracles.block(op, *t)
               for t in triples)


def _assert_on_support(dims, keys):
    """dims holds a nonzero value at each of keys and nothing else."""
    assert set(dims) == set(keys) and 0 not in dims.values()


def test_dimensions_are_kept_on_their_support():
    """homdim holds the pairs with hom(x, y) != 0 only, and reads 0 at
    every other pair, for a category, its opposite and a full subcategory;
    a module's dims holds its support only, in object order, and reads 0
    off it, even where it was built with zeros."""
    for cat in _support_categories(default_field()):
        objs = cat.objects
        keep = objs[1:]
        sub = cat.full_subcategory(keep)
        op = cat.opposite()
        _assert_on_support(cat.homdim, [(x, y) for x in objs
                                        for y in cat.out_support[x]])
        _assert_on_support(op.homdim, [(y, x) for x, y in cat.homdim])
        _assert_on_support(sub.homdim, [(x, y) for x, y in cat.homdim
                                        if x in keep and y in keep])
        for x in objs:
            for y in objs:
                assert op.homdim[(y, x)] == cat.homdim[(x, y)]
                if (x, y) not in cat.homdim:
                    assert cat.homdim[(x, y)] == 0
        for x in objs:
            for M in (projective_module(cat, x), injective_module(cat, x),
                      dual_projective_module(cat, x), simple_module(cat, x)):
                c = M.cat
                assert M.support == [y for y in c.objects if M.dims[y]]
                _assert_on_support(M.dims, M.support)
                assert all(M.dims[y] == 0 for y in c.objects
                           if y not in M.support)
        M = CatModule(cat, dict.fromkeys(objs, 0) | {objs[-1]: 1}, {})
        assert M.dims == {objs[-1]: 1} and M.support == [objs[-1]]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_in_place_duals_match_dense_reference(field):
    """D(P_x) read in place from the structure constants, the injective
    I_x built the same way over the opposite category, and the projective
    P_x read as the transpose of D(P_x), agree action for action with the
    dense references dense_projective and its dual_module, on every
    object."""
    for cat in _support_categories(field):
        op = cat.opposite()
        for x in cat.objects:
            for M, ref in (
                    (projective_module(cat, x), dense_projective(cat, x)),
                    (dual_projective_module(cat, x),
                     dual_module(dense_projective(cat, x))),
                    (injective_module(cat, x),
                     dual_module(dense_projective(op, x)))):
                c = M.cat
                assert c is ref.cat
                assert M.dims == ref.dims
                for a in c.objects:
                    for b in c.objects:
                        for i in range(c.homdim[(a, b)]):
                            assert oracles.action(M, a, b, i) == \
                                oracles.action(ref, a, b, i)

