import sys
from itertools import product

import pytest

from ausglue.errors import (NotHereditary, GldimTooBig, NotClusterTilting,
                            NotRepFinite, OrbitDiverges, NonSchurianVertex)
from ausglue.linalg import QQ, GF, default_field
from ausglue.quiver import (Quiver, BoundPresentation, DynkinSpec,
                            hereditary_presentation, nakayama_linear,
                            parse_quiver_file)
from ausglue.pathcat import category_from_presentation
from ausglue import glue, knitting, tower
from ausglue.fincat import projective_module, injective_module
from ausglue.homology import (ext_dim, ext_space, min_proj_resolution,
                              gldim, hom_table,
                              lift_chain_map, modules_isomorphic)
from ausglue.knitting import knit
from ausglue.glue import (build_sk, build_mk, build_glued, is_rigid,
                          is_cluster_tilting, cluster_tilting_from_tau_n)
import oracles
from oracles import (direct_sum, hom_by_naturality, hom_dim, simple_module,
                     pdim, tau, yoneda_compose, NotComposable)

FIELD = default_field()


def make(spec, field=FIELD):
    return category_from_presentation(hereditary_presentation(spec), field)


def nakayama(field=FIELD):
    return category_from_presentation(nakayama_linear(4, 3), field)


A2 = make(DynkinSpec("A", 2))
A3 = make(DynkinSpec("A", 3))


@pytest.fixture(scope="module")
def s1_a3():
    return build_sk(A3, 1)


def test_axioms_exhaustive(s1_a3):
    for glued in (build_sk(A2, 1), s1_a3, build_mk(nakayama(), 1, 2)):
        assert oracles.check_identities(glued.cat) == (True, None)
        assert oracles.check_associativity(glued.cat) == (True, None)


def test_hom_table_refuses_an_end_above_k():
    """hom_table needs End = K of every module, and names the one that
    fails: P_1 (+) P_1 has the 2 x 2 matrices over K as its End."""
    P1 = projective_module(A3, 1)
    M = direct_sum(A3, [P1, P1])[0]
    with pytest.raises(NonSchurianVertex,
                       match=r"End\(P_1\+P_1\) has dimension 4"):
        hom_table(A3, [M], ["P_1+P_1"])


def test_hom_table_cross_check(s1_a3):
    """Every glued hom dimension equals the independently computed hom
    (same shift), Ext^n (shift up by one), or zero (larger gaps): both by
    the naturality reference, Ext^1(X, Y) = D Hom(Y, tau X) over the
    hereditary A3."""
    g = build_sk(A3, 2)
    m = len(g.modules)
    for a in range(m):
        t = tau(g.modules[a])
        for b in range(m):
            hom = len(hom_by_naturality(g.modules[a], g.modules[b]))
            ext = len(hom_by_naturality(g.modules[b], t)) \
                if t.total_dim() else 0
            assert ext == ext_dim(g.modules[a], g.modules[b], 1)
            for i in range(3):
                for j in range(3):
                    expect = hom if i == j else ext if j == i + 1 else 0
                    assert hom_dim(g, a, i, b, j) == expect


def test_connecting_homs_satisfy_ar_duality(s1_a3):
    g = s1_a3
    for a in range(len(g.modules)):
        for b in range(len(g.modules)):
            t = tau(g.modules[a])
            expect = len(hom_by_naturality(g.modules[b], t)) \
                if t.total_dim() else 0
            assert hom_dim(g, a, 0, b, 1) == expect


def test_build_mk_with_n_1_equals_build_sk(s1_a3):
    g1 = s1_a3
    g2 = build_mk(A3, 1, 1)
    assert sorted(g1.cat.objects) == sorted(g2.cat.objects)
    for key in g1.cat.homdim:
        assert g1.cat.homdim[key] == g2.cat.homdim[key]


def test_yoneda_compose(s1_a3):
    g = s1_a3
    cat = g.cat
    one = cat.field.one
    src, dst = ("P_2", 0), ("P_1", 0)
    assert cat.homdim[(src, dst)] == 1
    f = (src, dst, [one])
    ident = (dst, dst, oracles.identity_vector(cat, dst))
    assert yoneda_compose(g, ident, f) == (src, dst, [one])
    with pytest.raises(NotComposable):
        yoneda_compose(g, f, f)
    with pytest.raises(NotComposable):
        yoneda_compose(g, f, (src, dst, [one, one]))
    with pytest.raises(NotComposable):
        yoneda_compose(g, f, (("bogus", 0), src, []))


def test_ext_after_ext_vanishes():
    g = build_sk(A3, 2)
    m = len(g.modules)
    found = 0
    for a in range(m):
        for b in range(m):
            if hom_dim(g, a, 0, b, 1) == 0:
                continue
            for c in range(m):
                if hom_dim(g, b, 1, c, 2) == 0:
                    continue
                assert hom_dim(g, a, 0, c, 2) == 0
                e1 = ((g.names[a], 0), (g.names[b], 1),
                      [g.cat.field.one] * hom_dim(g, a, 0, b, 1))
                e2 = ((g.names[b], 1), (g.names[c], 2),
                      [g.cat.field.one] * hom_dim(g, b, 1, c, 2))
                assert yoneda_compose(g, e2, e1)[2] == []
                found += 1
    assert found > 0


def test_euler_characteristic_additive_on_ar_sequences():
    """For each almost-split sequence 0 -> tau(Z) -> K -> Z -> 0 over a
    hereditary algebra, and every indecomposable G, the six-term exact
    hom/ext sequence forces the alternating dimension sum to vanish."""
    ar = knit(A3)
    mods = [ar.module(i) for i in range(ar.count)]

    def chi(G, M):
        return len(hom_by_naturality(G, M)) - ext_dim(G, M, 1)

    assert ar.tau  # A3 does have non-projective vertices
    for z, tz in ar.tau.items():
        middle = []
        for s, mult in oracles.arrows_into(ar, z):
            middle.extend([ar.module(s)] * mult)
        K, _, _ = direct_sum(A3, middle)
        Z, tZ = ar.module(z), ar.module(tz)
        assert tuple(a + b for a, b in zip(tZ.dim_vector(), Z.dim_vector())) \
            == K.dim_vector()
        for G in mods:
            assert chi(G, tZ) - chi(G, K) + chi(G, Z) == 0


def test_rigidity():
    ar = knit(A3)
    mods = [ar.module(i) for i in range(ar.count)]
    assert is_rigid(mods, mods, 1) == (True, None)
    ok, witness = is_rigid(mods, mods, 2)
    assert not ok and witness is not None
    a, b, i = witness
    assert i == 1 and ext_dim(mods[a], mods[b], 1) > 0


def _reference_is_rigid(sources, targets, n):
    """is_rigid by cocycles: one ext_space per source, target and degree
    0 < i < n up to the length of the source's resolution."""
    for a, Ma in enumerate(sources):
        res = min_proj_resolution(Ma)
        for b, Mb in enumerate(targets):
            for i in range(1, min(n, res.length + 1)):
                if ext_space(Ma, Mb, i).dim:
                    return False, (a, b, i)
    return True, None


def test_is_rigid_matches_reference(monkeypatch):
    """is_rigid, which ranks, gives the (ok, witness) of the cocycle loop:
    on the knitted indecomposables of A3 with n = 2 and 3; on the unpaired
    injectives of Sigma for A3 with k = 1 at its d, into the P_x that are
    not injective, which is all that verify passes it, and into its whole
    gen-cogen list, every P_x and the unpaired I_y, so that injective
    targets stay covered; and on the cluster-tilting list of
    Nakayama(4,3) plus one more indecomposable."""
    ar = knit(A3)
    mods = [ar.module(i) for i in range(ar.count)]
    cases = [(mods, mods, 2), (mods, mods, 3)]
    monkeypatch.setattr(tower, "is_rigid", lambda sources, targets, n: (
        cases.append((sources, targets, n)) or is_rigid(sources, targets, n)))
    assert tower.verify_theorem_dynkin(DynkinSpec("A", 3), 1).passed
    assert [len(cases[2][0]), len(cases[2][1]), cases[2][2]] == [3, 3, 4]
    S = tower.sigma(build_sk(A3, 1))[0]
    pairing = tower.projective_injectives(S)
    unpaired = [y for y in S.objects if y not in pairing.values()]
    injs = [injective_module(S, y) for y in unpaired]
    gen_cogen = [projective_module(S, x) for x in S.objects] + injs
    assert len(gen_cogen) == 12
    cases.append((injs, gen_cogen, cases[2][2]))
    nak = nakayama()
    ct = cluster_tilting_from_tau_n(nak, 2)
    ar = knit(nak)
    extra = next(M for M in (ar.module(i) for i in range(ar.count))
                 if not any(modules_isomorphic(M, T) for T in ct))
    cases.append((ct + [extra], ct + [extra], 2))
    got = [is_rigid(*case) for case in cases]
    assert got == [_reference_is_rigid(*case) for case in cases]
    assert [ok for ok, _ in got] == [False, False, True, True, False]


def test_cluster_tilting_rigid_witness_is_positional():
    """is_cluster_tilting passes is_rigid only the non-projective sources
    and the non-injective targets, and maps its witness back: on the
    knitted indecomposables of A3 with n = 2 it is the first failure of
    the cocycle loop over the whole list."""
    ar = knit(A3)
    mods = [ar.module(i) for i in range(ar.count)]
    ok, witness = _reference_is_rigid(mods, mods, 2)
    assert not ok
    assert is_cluster_tilting(A3, mods, 2) == (False, ("rigid", witness))


def _knit_reference(ambient, n):
    """The knit-based test is_cluster_tilting made before it read gldim
    End(M): a list passes iff it is n-rigid and maximal on each side, so
    that every knitted indecomposable X outside it has Ext^i(X, -) != 0
    and Ext^i(-, X) != 0 on it for some 0 < i < n (Iyama).  Returns that
    test as a function of the list; each Ext^i between two knitted modules
    is computed once, by cocycles.  knit's NotRepFinite propagates."""
    ar = knit(ambient)
    knitted = [ar.module(i) for i in range(ar.count)]
    meets = {}

    def meet(a, b):
        if (a, b) not in meets:
            top = min_proj_resolution(knitted[a]).length
            meets[(a, b)] = any(ext_space(knitted[a], knitted[b], i).dim
                                for i in range(1, min(n, top + 1)))
        return meets[(a, b)]

    def is_ct(modules):
        idx = [next(a for a, X in enumerate(knitted)
                    if modules_isomorphic(X, M)) for M in modules]
        if any(meet(a, b) for a in idx for b in idx):
            return False
        return all(any(meet(x, b) for b in idx) and any(meet(a, x) for a in idx)
                   for x in range(len(knitted)) if x not in idx)
    return is_ct


def _aus(rank):
    return glue.auslander_category(make(DynkinSpec("A", rank)))[0]


@pytest.mark.parametrize("case", ["nakayama-4-3", "auslander-A3",
                                  "auslander-A4"])
def test_cluster_tilting_matches_knit_reference(case):
    """On the tau_2-closure of the injectives and each of its one-module
    deletions, is_cluster_tilting agrees with the knit-based maximality
    test; the closure passes and every deletion is refused, those of a
    module neither projective nor injective by gldim End(M) > 3."""
    ambient = nakayama() if case == "nakayama-4-3" else _aus(int(case[-1]))
    ct = cluster_tilting_from_tau_n(ambient, 2)
    reference = _knit_reference(ambient, 2)
    assert is_cluster_tilting(ambient, ct, 2) == (True, None)
    assert reference(ct)
    kinds = set()
    for idx in range(len(ct)):
        sub = ct[:idx] + ct[idx + 1:]
        ok, witness = is_cluster_tilting(ambient, sub, 2)
        assert not ok and not reference(sub)
        kinds.add(witness[0])
        if witness[0] == "gldim":
            assert witness[1][1] > 3
    assert kinds == ({"generator", "cogenerator"} if case == "nakayama-4-3"
                     else {"generator", "cogenerator", "gldim"})


def test_cluster_tilting_checks():
    nak = nakayama()
    ct = cluster_tilting_from_tau_n(nak, 2)
    assert len(ct) == 6
    assert is_cluster_tilting(nak, ct, 2) == (True, None)
    # over linear A3, P_2, P_3 and S_2 have Ext^1(-, DA) = 0 but are not
    # injective: DA alone is no generator, as knitting finds too
    a3 = make(DynkinSpec("A", 3, "linear"))
    injs = [injective_module(a3, x) for x in a3.objects]
    assert is_rigid(injs, injs, 2) == (True, None)
    assert is_cluster_tilting(a3, injs, 2) == (False, ("generator", 2))
    assert not _knit_reference(a3, 2)(injs)


def test_cluster_tilting_refuses_a_repeated_module():
    """A list with a module twice is not basic: is_cluster_tilting names
    the pair, and build_mk and verify_theorem_higher refuse it with
    NotClusterTilting before any glued category is built."""
    nak = nakayama()
    ct = cluster_tilting_from_tau_n(nak, 2)
    twice = ct + [ct[-1]]
    assert is_cluster_tilting(nak, twice, 2) == (False, ("basic", (5, 6)))
    reason = "^not basic: P_4 is isomorphic to P_4#1$"
    with pytest.raises(NotClusterTilting, match=reason):
        build_mk(nak, 1, 2, modules=twice)
    with pytest.raises(NotClusterTilting, match=reason):
        tower.verify_theorem_higher(nak, 1, 2, modules=twice)


def test_input_validation():
    nak = nakayama()
    with pytest.raises(NotHereditary):
        build_sk(nak, 1)
    with pytest.raises(GldimTooBig):
        build_mk(nak, 1, 1)
    ct = cluster_tilting_from_tau_n(nak, 2)
    with pytest.raises(NotClusterTilting,
                       match="^not a generator: P_4 is not among them$"):
        build_mk(nak, 1, 2, modules=ct[:-1])
    ar = knit(nak)
    extra = next(M for M in (ar.module(i) for i in range(ar.count))
                 if not any(modules_isomorphic(M, T) for T in ct))
    with pytest.raises(NotClusterTilting, match=r"^not 2-rigid: Ext\^1\("):
        build_mk(nak, 1, 2, modules=ct + [extra])


def test_kronecker_refused_with_knit_reason():
    """A representation-infinite algebra has no cluster-tilting
    subcategory.  Over the Kronecker algebra the projectives are no
    cogenerator, and the projectives and injectives have gldim End = 3 >
    n + 1: is_cluster_tilting refuses both without knitting, build_mk and
    verify_theorem_higher raise NotClusterTilting and make no report, and
    the knit-based test raises knit's reason.  The tau_n orbit refuses the
    algebra with knit's reason too."""
    kron = category_from_presentation(BoundPresentation(
        Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), []), FIELD)
    projs = [projective_module(kron, x) for x in kron.objects]
    injs = [injective_module(kron, x) for x in kron.objects]
    reason = "^representation-infinite: 2 Gabriel arrows 1 -> 2"
    with pytest.raises(NotRepFinite, match=reason):
        _knit_reference(kron, 1)
    for mods, witness, text in (
            (projs, ("cogenerator", 1), "not a cogenerator: I_1 is not "
             "among them"),
            (projs + injs, ("gldim", (2, 3)), r"gldim End\(M\) > 2: the "
             r"projective End\(M\)-module at I_1 has injective dimension 3")):
        assert is_cluster_tilting(kron, mods, 1) == (False, witness)
        with pytest.raises(NotClusterTilting, match="^%s$" % text):
            build_mk(kron, 1, 1, modules=mods)
    with pytest.raises(NotClusterTilting, match="^gldim End"):
        tower.verify_theorem_higher(kron, 1, 1, modules=projs + injs)
    with pytest.raises(NotRepFinite, match=reason):
        cluster_tilting_from_tau_n(kron, 1)


def _gldim_by_simples(cat):
    """The textbook global dimension: max pdim over the simples."""
    return max(pdim(simple_module(cat, x)) for x in cat.objects)


def test_gldim_by_injectives_matches_simples():
    """gldim reads max id P_x off the coresolution table; it agrees with
    max pdim over the simples on ambients (the commutative
    square and End of the Kronecker {P1, P2, I1, I2} among them), on Gamma
    and Sigma of three towers, and on End(M) of every one-module deletion
    of the tau_2-closures in test_cluster_tilting_matches_knit_reference."""
    kron = category_from_presentation(BoundPresentation(
        Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), []), FIELD)
    kron_m = [projective_module(kron, x) for x in kron.objects] + \
        [injective_module(kron, x) for x in kron.objects]
    square = category_from_presentation(parse_quiver_file(
        "quiver\narrow a 1 2\narrow b 1 3\narrow c 2 4\narrow d 3 4\n"
        "relation 2*a.c;-3*b.d\n"), FIELD)
    cats = [A3, make(DynkinSpec("D", 4)), nakayama(), _aus(3), square,
            hom_table(kron, kron_m, list("abcd"))[1]]
    for glued in (build_sk(A3, 2), build_sk(make(DynkinSpec("D", 4)), 1),
                  build_mk(nakayama(), 1, 2)):
        cats += [tower.gamma(glued), tower.sigma(glued)[0]]
    for ambient in (nakayama(), _aus(3), _aus(4)):
        ct = cluster_tilting_from_tau_n(ambient, 2)
        for idx in range(len(ct)):
            sub = ct[:idx] + ct[idx + 1:]
            cats.append(hom_table(ambient, sub, list(map(str, sub)))[1])
    got = [gldim(cat) for cat in cats]
    assert got == [_gldim_by_simples(cat) for cat in cats]
    assert got[:12] == [1, 1, 2, 2, 2, 3, 8, 7, 5, 4, 7, 6]


def test_tau_n_orbit_refuses_a_decomposable_translate(monkeypatch):
    """cluster_tilting_from_tau_n refuses a tau_n(M) whose End is not K,
    here the sum of two labelled injectives, naming the dimension vector
    of M = I_1, the first module of the orbit."""
    nak = nakayama()
    I1, I2 = (injective_module(nak, x) for x in nak.objects[:2])
    monkeypatch.setattr(glue, "tau_n",
                        lambda M, n: direct_sum(nak, [I1, I2])[0])
    with pytest.raises(NotClusterTilting,
                       match=r"^tau_n of \(1, 0, 0, 0\) has a 3-dimensional End$"):
        cluster_tilting_from_tau_n(nak, 2)


def test_orbit_limit_caps_only_n_above_one(monkeypatch):
    """ORBIT_LIMIT caps the tau_n orbit at n >= 2 only; at n = 1 the
    ambient is hereditary and Ovsienko's bound ends the orbit."""
    monkeypatch.setattr(glue, "ORBIT_LIMIT", 3)
    assert len(cluster_tilting_from_tau_n(A3, 1)) == 6
    with pytest.raises(OrbitDiverges, match="^more than 3 orbit modules$"):
        cluster_tilting_from_tau_n(nakayama(), 2)


def test_hom_table_built_once(monkeypatch):
    """One hom table per module list: build_sk, a whole A3 verdict with
    k = 1 (quiver claim included) and auslander_category each build the
    structure constants once and compute Hom for each ordered pair of the
    six indecomposables of A3 once; knitting builds no hom table at all;
    build_mk builds one, shared by is_cluster_tilting and build_glued, and
    never knits; and is_cluster_tilting alone builds one.  Hom is counted
    as the calls of ext_space at n = 0."""
    calls, tables, knits = [], [], []

    def counted(M, N, n):
        if n == 0:
            calls.append((M, N))
        return ext_space(M, N, n)

    def counted_table(*args):
        tables.append(args)
        return hom_table(*args)
    for name, mod in list(sys.modules.items()):
        if name.startswith("ausglue"):
            for attr, fn in (("ext_space", counted),
                             ("hom_table", counted_table)):
                if hasattr(mod, attr):
                    monkeypatch.setattr(mod, attr, fn)
    for run in (lambda: build_sk(A3, 1),
                lambda: tower.verify_theorem_dynkin(DynkinSpec("A", 3), 1),
                lambda: glue.auslander_category(A3)):
        del calls[:], tables[:]
        result = run()
        assert (len(calls), len(tables)) == (36, 1)
    aus, _ = result
    ar = knit(aus)
    assert len(tables) == 1
    assert ar.count == 17 and all(ar.module(i).total_dim()
                                  for i in range(ar.count))
    monkeypatch.setattr(knitting, "knit",
                        lambda *a, **kw: knits.append(a) or knit(*a, **kw))
    nak = nakayama()
    ct = cluster_tilting_from_tau_n(nak, 2)
    del tables[:]
    assert len(build_mk(nak, 1, 2, modules=ct).cat.objects) == 12
    assert (len(tables), knits) == (1, [])
    del tables[:]
    assert is_cluster_tilting(nak, ct, 2) == (True, None)
    assert len(tables) == 1


def test_field_independence_of_hom_tables():
    g_q = build_sk(make(DynkinSpec("A", 3), QQ), 1)
    g_p = build_sk(make(DynkinSpec("A", 3), GF(32003)), 1)
    assert sorted(g_q.cat.objects) == sorted(g_p.cat.objects)
    assert g_q.cat.homdim == g_p.cat.homdim


def test_glued_rank_and_gaps():
    g = build_sk(A2, 3)
    assert len(g.cat.objects) == 3 * 4
    for (src, dst), d in g.cat.homdim.items():
        if dst[1] - src[1] not in (0, 1):
            assert d == 0


def test_build_glued_rejects_negative_k():
    ar = knit(A2)
    mods = [ar.module(i) for i in range(ar.count)]
    with pytest.raises(ValueError):
        build_glued(A2, mods, ["a", "b", "c"], 1, -1, ar.table)


def _assert_comp_on_support(cat, comp):
    """comp, the blocks of cat by key, holds a key exactly at the triples
    (x, y, z) with hom(x, y), hom(y, z) and hom(x, z) all nonzero, and
    each block there is a full dim(y, z) x dim(x, y) array of
    dim(x, z)-vectors: none is empty."""
    d = cat.homdim
    assert set(comp) == {(x, y, z) for x, y in d
                         for z in cat.out_support[y] if d[(x, z)]}
    for (x, y, z), t in comp.items():
        assert len(t) == d[(y, z)]
        assert all(len(row) == d[(x, y)] for row in t)
        assert all(len(v) == d[(x, z)] for row in t for v in row)


def test_comp_is_kept_on_its_support():
    """The support invariant opposite() relies on, for path categories,
    a hom_table End, Gamma^k at n = 1 and n = 2, Sigma^k and their
    opposites; an opposite shares its category's comp, and its blocks are
    read through oracles.block."""
    aus, ar = glue.auslander_category(A3)
    D4 = make(DynkinSpec("D", 4))
    gammas = [build_sk(A3, 2), build_sk(D4, 1), build_mk(aus, 2, 2),
              build_mk(nakayama(), 1, 2)]
    cats = [A3, D4, nakayama(), aus,
            hom_table(A3, [ar.module(i) for i in range(ar.count)],
                      ar.labels())[1]]
    cats += [g.cat for g in gammas] + [tower.sigma(g)[0] for g in gammas]
    for cat in cats:
        _assert_comp_on_support(cat, cat.comp)
        op = cat.opposite()
        assert op.comp is cat.comp
        _assert_comp_on_support(op, {(x, y, z): oracles.block(op, x, y, z)
                                     for z, y, x in op.comp})


@pytest.mark.parametrize("n, k", [(2, 1), (1, 2)],
                         ids=["auslander-A3-n2", "A3-k2"])
def test_build_glued_lifts_only_what_a_block_reads(monkeypatch, n, k):
    """build_glued lifts hom(a, b)'s basis to degree n only when some c
    has Ext^n(b, c) != 0 and Ext^n(a, c) != 0, where an ext o hom block
    reads the lift, and then once per basis element."""
    if n == 2:
        ambient = glue.auslander_category(A3)[0]
        modules, names, (homs, end) = glue.cluster_tilting_subcategory(
            ambient, n)
    else:
        ambient = A3
        ar, modules, names = glue._knit_indecomposables(A3)
        homs, end = ar.table
    m = len(modules)
    ext = {(a, b): ext_space(modules[a], modules[b], n).dim
           for a in range(m) for b in range(m)}
    want = sum(homs[(a, b)].dim for a in range(m) for b in range(m)
               if any(ext[(b, c)] and ext[(a, c)] for c in range(m)))
    calls, lift = [], glue.lift_chain_map

    def counted(*args):
        calls.append(args)
        return lift(*args)
    monkeypatch.setattr(glue, "lift_chain_map", counted)
    build_glued(ambient, modules, names, n, k, (homs, end))
    assert 0 < len(calls) == want < sum(H.dim for H in homs.values())


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
@pytest.mark.parametrize("case", ["A3-k2", "D4-k1", "auslander-A3-n2"])
def test_glued_blocks_match_dense_reference(case, field):
    """Every ext o hom and hom o ext block of build_glued, a lift and a
    pull, equals the reduced product from dense forms: for ext o hom the
    cocycle applied by the matrix of Hom(L_n, Z) (FreeModule.hom_into) of
    the degree-n lift L_n, for hom o ext g's dense blocks
    (oracles.dense_map) applied to the cocycle's images
    (oracles.compose_hom_with_ext).  On Gamma^2 of A3 and Gamma^1 of D4
    (n = 1), and on Gamma^1 of Auslander(A3) with n = 2.  D4 has a
    two-dimensional Ext^1 and a module of dimension 2 at an object, where
    a lift or a pull of the wrong map gives other coordinates."""
    if case == "D4-k1":
        glued = build_sk(make(DynkinSpec("D", 4), field), 1)
    else:
        ambient = make(DynkinSpec("A", 3), field)
        glued = build_sk(ambient, 2) if case == "A3-k2" else \
            build_mk(glue.auslander_category(ambient)[0], 1, 2)
    mods, n = glued.modules, glued.n
    m = len(mods)
    res = [min_proj_resolution(M) for M in mods]
    homs = {(a, b): ext_space(mods[a], mods[b], 0)
            for a, b in product(range(m), repeat=2)}
    exts = {(a, b): ext_space(mods[a], mods[b], n)
            for a, b in product(range(m), repeat=2)}

    def block(a, b, c, db):
        return glued.cat.comp[((glued.names[a], 0), (glued.names[b], db),
                               (glued.names[c], 1))]
    blocks = [0, 0]
    for a, b, c in product(range(m), repeat=3):
        E = exts[(a, c)]
        if not E.dim:
            continue
        if homs[(a, b)].dim and exts[(b, c)].dim:
            F, objs = res[b].frees[n], res[a].terms[n]
            lifts = [lift_chain_map(homs[(a, b)].images(f), mods[b], res[a],
                                    res[b], n)[n] for f in homs[(a, b)].reps]
            assert block(a, b, c, 0) == [
                [E.reduce(oracles.hom_matrix(F, mods[c], objs, L).apply(vec))
                 for L in lifts] for vec in exts[(b, c)].reps]
            blocks[0] += 1
        if exts[(a, b)].dim and homs[(b, c)].dim:
            G = homs[(b, c)]
            assert block(a, b, c, 1) == [
                [E.reduce(oracles.compose_hom_with_ext(
                    oracles.dense_map(mods[b], mods[c], G.images(g)),
                    exts[(a, b)], r))
                 for r in exts[(a, b)].reps] for g in G.reps]
            blocks[1] += 1
    assert all(blocks)
