import random

import pytest

from ausglue.errors import NonSchurianVertex
from ausglue.linalg import QQ, default_field, row_space_basis
from ausglue.quiver import (DynkinSpec, hereditary_presentation,
                            nakayama_linear)
from ausglue.pathcat import category_from_presentation
from ausglue.glue import build_sk
from ausglue.fincat import (projective_module, injective_module,
                            simple_module, hom_modules, modules_isomorphic,
                            decompose, dual_module, direct_sum,
                            identity_map, CatModule, FinCategory,
                            FreeModule, kernel, cokernel, radical_rows,
                            top_generators)


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
            assert M.check()


def test_yoneda_dimension():
    cat = make(3)
    rng = random.Random(7)
    for x in cat.objects:
        P = projective_module(cat, x)
        for y in cat.objects:
            N = injective_module(cat, y)
            assert len(hom_modules(P, N)) == N.dims[x]
        # random module: a direct sum of simples has zero maps only
        S, _, _ = direct_sum(cat, [simple_module(cat, rng.choice(cat.objects))
                                   for _ in range(2)])
        assert len(hom_modules(P, S)) == S.dims[x]


def test_hom_between_simples():
    cat = make(3)
    assert hom_modules(simple_module(cat, 1), simple_module(cat, 2)) == []
    assert len(hom_modules(simple_module(cat, 1),
                           simple_module(cat, 1))) == 1


def test_naturality_of_hom_basis():
    cat = make(3)
    P = projective_module(cat, 1)
    I = injective_module(cat, 3)
    for f in hom_modules(P, I):
        assert f.is_natural()


def test_isomorphism_detection():
    cat = make(3)
    P = projective_module(cat, 1)
    assert modules_isomorphic(P, projective_module(cat, 1))
    assert not modules_isomorphic(P, projective_module(cat, 2))
    assert modules_isomorphic(injective_module(cat, 3),
                              projective_module(cat, 1))


def test_decompose():
    cat = make(2)
    P1 = projective_module(cat, 1)
    P2 = projective_module(cat, 2)
    assert len(decompose(P1)) == 1
    parts = decompose(direct_sum(cat, [P1, P1])[0])
    assert len(parts) == 2
    assert all(modules_isomorphic(S, P1) for S in parts)
    parts = decompose(direct_sum(cat, [P1, P2])[0])
    assert sorted(S.dim_vector() for S in parts) == [(0, 1), (1, 1)]


def test_dual_module():
    cat = make(3)
    D = dual_module(projective_module(cat, 1))
    assert D.cat is cat.opposite()
    assert D.check()
    assert modules_isomorphic(D, injective_module(cat.opposite(), 1))


def test_opposite_involution_dims():
    cat = make(3)
    op = cat.opposite()
    for x in cat.objects:
        for y in cat.objects:
            assert op.homdim[(x, y)] == cat.homdim[(y, x)]
    assert op.check_associativity() == (True, None)
    assert op.check_identities() == (True, None)


def test_full_subcategory():
    cat = make(3)
    sub = cat.full_subcategory([1, 3])
    assert sub.objects == [1, 3]
    assert sub.dim(1, 3) == cat.dim(1, 3)
    assert sub.check_associativity() == (True, None)


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
        assert len(hom_modules(M, M)) == 1


def test_module_action_identity():
    cat = make(2)
    M = projective_module(cat, 1)
    e = identity_map(M)
    assert e.is_natural()
    assert all(e.mats[x] == e.mats[x] * e.mats[x] for x in cat.objects)


def _dense_radical_rows(M):
    """Reference for radical_rows: every (x, y, i) through action()."""
    c = M.cat
    out = {}
    for y in c.objects:
        vecs = []
        for x in c.objects:
            if x == y:
                continue
            for i in range(c.homdim[(x, y)]):
                A = M.action(x, y, i)
                for j in range(M.dims[x]):
                    vecs.append(A.col(j))
        out[y] = row_space_basis(c.field, vecs, M.dims[y])
    return out


def _sample_modules(cat):
    """Projective, injective, simple, dual, free, kernel and cokernel
    modules over cat."""
    for x in cat.objects:
        P, I = projective_module(cat, x), injective_module(cat, x)
        yield from (P, I, simple_module(cat, x), dual_module(P),
                    dual_module(I))
        gens = top_generators(I)
        F = FreeModule(cat, [s for s, _ in gens])
        cover = F.yoneda_map(I, [v for _, v in gens])
        yield F.module
        yield kernel(cover).module
        for y in cat.objects:
            for phi in hom_modules(projective_module(cat, y), P):
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
        assert M.check()
        for (x, y), mats in M.act.items():
            assert M.cat.homdim[(x, y)] and M.dims[x] and M.dims[y]
            assert len(mats) == M.cat.homdim[(x, y)]
        assert radical_rows(M) == _dense_radical_rows(M)
