import fractions

import pytest
from click.testing import CliRunner

import ausglue.linalg
from ausglue.cli import main
from ausglue.errors import NoApproximation, NotRepFinite
from ausglue.linalg import QQ, GF, default_field, row_space_basis
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear,
                            parse_quiver_file)
from ausglue.pathcat import category_from_presentation
from ausglue.fincat import (FinCategory, injective_module, injective_label,
                            projective_label, projective_module, is_basic,
                            dual_module, zero_module)
from ausglue.homology import domdim, gldim, min_proj_resolution, tau_n
from ausglue.knitting import knit, vertex_label
from ausglue.glue import (build_sk, build_glued, auslander_category,
                          cluster_tilting_from_tau_n, _unique_names)
from ausglue.tower import (gamma, sigma, projective_injectives,
                           expected_glued_ar_arrows, verify_theorem_dynkin,
                           verify_theorem_higher, four_angles)
import oracles
from oracles import direct_sum, pdim

FIELD = default_field()


def make(spec):
    return category_from_presentation(hereditary_presentation(spec), FIELD)


A3 = make(DynkinSpec("A", 3))
D4 = make(DynkinSpec("D", 4, "out"))


def glued_arrow_set(cat):
    return {(s, d): m for (s, d), m in cat.gabriel_arrows().items()}


# frozen expected quivers -----------------------------------------------------

A3_COPY_ARROWS = [("P_3", "P_2"), ("P_2", "P_1"), ("P_2", "S_2"),
                  ("P_1", "I_2"), ("S_2", "I_2"), ("I_2", "I_1")]
A3_CONNECTING = [("I_1", "P_2"), ("I_2", "P_3")]

D4_COPY_ARROWS = (
    [("P_%d" % i, "P_1") for i in (2, 3, 4)]
    + [("P_1", m) for m in ("M(1, 0, 1, 1)", "M(1, 1, 0, 1)",
                            "M(1, 1, 1, 0)")]
    + [(m, "M(2, 1, 1, 1)") for m in ("M(1, 0, 1, 1)", "M(1, 1, 0, 1)",
                                      "M(1, 1, 1, 0)")]
    + [("M(2, 1, 1, 1)", "I_%d" % i) for i in (2, 3, 4)]
    + [("I_%d" % i, "I_1") for i in (2, 3, 4)])
D4_CONNECTING = [("I_1", "P_%d" % i) for i in (2, 3, 4)]


def expected_glued(copy_arrows, connecting, k):
    exp = {}
    for j in range(k + 1):
        for s, d in copy_arrows:
            exp[((s, j), (d, j))] = 1
    for j in range(k):
        for s, d in connecting:
            exp[((s, j), (d, j + 1))] = 1
    return exp


def test_glued_quiver_a3():
    g = build_sk(A3, 1)
    assert len(g.cat.objects) == 12
    arrows = glued_arrow_set(g.cat)
    assert len(arrows) == 14
    assert arrows == expected_glued(A3_COPY_ARROWS, A3_CONNECTING, 1)


def test_glued_quiver_d4():
    g = build_sk(D4, 1)
    assert len(g.cat.objects) == 24
    arrows = glued_arrow_set(g.cat)
    assert len(arrows) == 33
    assert arrows == expected_glued(D4_COPY_ARROWS, D4_CONNECTING, 1)


def test_expected_arrows_helper_matches_category():
    for cat, k in ((A3, 2), (D4, 1)):
        g = build_sk(cat, k)
        ar = knit(cat)
        exp = expected_glued_ar_arrows(ar, g.names, k)
        assert exp == glued_arrow_set(g.cat)


def _reference_gabriel_arrows(cat):
    """gabriel_arrows by composing unit vectors through oracles.compose."""
    arrows = {}
    for x in cat.objects:
        for y in cat.objects:
            if x == y or cat.homdim[(x, y)] == 0:
                continue
            vecs = [oracles.compose(cat, x, z, y,
                                    oracles.basis_vec(cat, z, y, i),
                                    oracles.basis_vec(cat, x, z, j))
                    for z in cat.objects if z != x and z != y
                    for i in range(cat.homdim[(z, y)])
                    for j in range(cat.homdim[(x, z)])]
            m = cat.homdim[(x, y)] - len(
                row_space_basis(cat.field, vecs, cat.homdim[(x, y)]))
            if m:
                arrows[(x, y)] = m
    return arrows


def _reference_is_basic(cat):
    """is_basic by composing unit vectors x -> y -> x through
    oracles.compose."""
    return not any(
        any(v != cat.field.zero for v in oracles.compose(
            cat, x, y, x, oracles.basis_vec(cat, y, x, i),
            oracles.basis_vec(cat, x, y, j)))
        for x in cat.objects for y in cat.objects if x != y
        for i in range(cat.homdim[(y, x)])
        for j in range(cat.homdim[(x, y)]))


def test_arrows_and_basic_read_structure_constants():
    """gabriel_arrows and is_basic read comp directly and agree with the
    composition loops, on basic categories and on one with 1 = 2."""
    one = FIELD.one
    both = FinCategory(FIELD, [1, 2],
                       {(x, y): 1 for x in (1, 2) for y in (1, 2)},
                       {(x, y, z): [[[one]]] for x in (1, 2) for y in (1, 2)
                        for z in (1, 2)})
    cats = [A3, D4,
            category_from_presentation(nakayama_linear(4, 3), FIELD),
            auslander_category(A3)[0], build_sk(A3, 1).cat, both]
    for cat in cats:
        assert cat.gabriel_arrows() == _reference_gabriel_arrows(cat)
        assert is_basic(cat)[0] == _reference_is_basic(cat)
    assert all(is_basic(cat) == (True, None) for cat in cats[:-1])
    assert is_basic(both) == (False, (1, 2))


def test_gamma_and_basic():
    g = build_sk(A3, 1)
    G = gamma(g)
    assert is_basic(G) == (True, None)
    assert len(G.objects) == 12


def test_sigma_a3():
    g = build_sk(A3, 1)
    S, order, match = sigma(g)
    assert match
    expected = {(nm, 0) for nm in g.names} | {("P_%d" % i, 1)
                                              for i in (1, 2, 3)}
    assert set(order) == expected
    assert len(S.objects) == 9


def test_sigma_d4_truncation():
    g = build_sk(D4, 1)
    S, order, match = sigma(g)
    assert match
    assert len(S.objects) == 16
    arrows = glued_arrow_set(S)
    exp = expected_glued(D4_COPY_ARROWS, D4_CONNECTING, 1)
    exp = {(s, d): m for (s, d), m in exp.items() if (s in set(order)
                                                      and d in set(order))}
    assert len(arrows) == 21
    assert arrows == exp


def test_projective_injectives_of_ambient():
    assert projective_injectives(A3) == {1: 3}  # P_1 = I_3
    aus, _ = auslander_category(A3)
    # hom(x, -) is injective exactly when x carries an ambient projective
    assert sorted(projective_injectives(aus)) == ["P_1", "P_2", "P_3"]


def test_injective_resolution_pattern():
    """Over the glued category of A3 with one shift, the injectives at the
    ambient non-injective labels in the bottom copy have projective
    dimension 5 with singleton terms repeating a fixed label triple; every
    other injective is already projective."""
    G = gamma(build_sk(A3, 1))
    long_ones = {}
    for x in G.objects:
        I = injective_module(G, x)
        p = pdim(I)
        if p:
            long_ones[x] = p
    assert long_ones == {("P_2", 0): 5, ("P_3", 0): 5, ("S_2", 0): 5}
    res = min_proj_resolution(injective_module(G, ("P_2", 0)))
    assert res.terms == [[("P_3", 0)], [("P_1", 0)], [("I_2", 0)],
                         [("P_3", 1)], [("P_1", 1)], [("I_2", 1)]]


def test_four_angles():
    aus_cat, ar = auslander_category(A3)
    modules = cluster_tilting_from_tau_n(aus_cat, 2)
    assert len(modules) == 10
    names = _unique_names([vertex_label(aus_cat, M) for M in modules])
    angles = four_angles(aus_cat, modules, names)
    assert sorted(angles) == sorted([
        ("P_S_2", ("P_P_2",), ("P_P_3",), "I_P_3"),
        ("S_S_2", ("I_S_2",), ("I_P_2",), "I_P_3"),
        ("P_I_2", ("P_P_1",), ("P_P_3",), "I_P_2"),
        ("P_I_1", ("P_P_1",), ("P_P_2",), "I_S_2"),
    ])


def test_four_angles_refuses_modules_that_are_not_cluster_tilting():
    """Over hereditary A3 every injective coresolution of a knitted module
    has length at most 1, never the 2 of a 4-angle, so four_angles raises
    NoApproximation at the first non-injective module."""
    ar = knit(A3)
    with pytest.raises(NoApproximation, match=r"coresolution of P_2 has "
                       r"shape \[\[3\], \[1\]\]"):
        four_angles(A3, [ar.module(i) for i in range(ar.count)],
                    _unique_names(ar.labels()))


def test_verify_report_shape():
    rep = verify_theorem_dynkin(DynkinSpec("A", 2), 1)
    d = rep.to_dict()
    assert d["passed"] is True
    assert set(d) == {"input", "parameters", "stats", "claims", "passed"}
    assert d["parameters"] == {"k": 1, "n": 1}
    ids = [c["id"] for c in d["claims"]]
    assert "thm1.2.gldim" in ids and "thm1.2.quiver_ar" in ids
    for c in d["claims"]:
        assert {"id", "paper_ref", "expected", "computed", "status"} <= set(c)
        assert c["status"] in ("pass", "fail", "skipped")


def test_verify_k0_has_skips():
    rep = verify_theorem_dynkin(DynkinSpec("A", 2), 0)
    assert rep.passed
    statuses = {c.cid: c.status for c in rep.claims}
    assert statuses["classical.gldim"] == "pass"
    assert statuses["thm1.4.gldim_sigma"] == "skipped"


def test_verify_rejects_infinite_type():
    kron = BoundPresentation(
        Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), [])
    with pytest.raises(NotRepFinite):
        verify_theorem_dynkin(kron, 1)


def test_rigidity_witness_names_modules(monkeypatch):
    """A failed thm1.4.rigidity claim names its two modules by their P/I
    labels, with the degree, not by positions in an internal list."""
    from ausglue import tower
    from ausglue.fincat import module_label
    seen = []

    def fail(sources, targets, n):
        seen.append((sources, targets))
        return False, (1, 2, n - 1)
    monkeypatch.setattr(tower, "is_rigid", fail)
    rep = verify_theorem_dynkin(DynkinSpec("A", 3), 1)
    claim = next(c for c in rep.claims if c.cid == "thm1.4.rigidity")
    assert claim.status == "fail" and not rep.passed
    sources, targets = seen[0]
    assert claim.witness == [module_label(sources[1]),
                             module_label(targets[2]), 3]
    assert claim.witness[0][0] == "I" and claim.witness[1][0] == "P"
    assert claim.to_dict()["witness"][2] == 3


@pytest.mark.parametrize("case, expected", [
    ("A3", 3), ("auslander-A3", 4),
], ids=["A3", "auslander-A3"])
def test_tau_d_closure_translates_unpaired_injectives(case, expected,
                                                      monkeypatch):
    """The tau_d-closure applies tau_d only to the injectives of Sigma that
    are not projective; on these inputs every tau_d(I_y) is zero or
    labelled."""
    from ausglue import tower
    calls = []

    def counted(*a, **kw):
        calls.append(a)
        return tau_n(*a, **kw)
    monkeypatch.setattr(tower, "tau_n", counted)
    assert _report_claims(case, FIELD)[1]
    assert len(calls) == expected


def test_tau_d_closure_refuses_a_decomposable_translate(monkeypatch):
    """A tau_d(I_y) that is the sum of two labelled modules fails the
    closure at once, with y and the dimension vector of the sum as the
    witness: tau_d of an indecomposable in a d-cluster-tilting subcategory
    is indecomposable, so nothing is split to rescue it."""
    from ausglue import tower
    seen = []

    def split_sum(M, d):
        S = M.cat
        T = direct_sum(S, [projective_module(S, x) for x in S.objects[:2]])[0]
        seen.append((injective_label(M), T.dim_vector()))
        return T
    monkeypatch.setattr(tower, "tau_n", split_sum)
    rep = verify_theorem_dynkin(DynkinSpec("A", 3), 1)
    claim = next(c for c in rep.claims if c.cid == "thm1.4.tau_d_closure")
    assert claim.status == "fail" and not rep.passed
    y, dimvec = seen[-1]
    assert claim.witness == (y, dimvec)
    assert claim.to_dict()["witness"] == [list(y), list(dimvec)]


def test_ct_summands_witness_names_the_unmatched_labels(monkeypatch):
    """A failing prop5.ct_summands claim carries the symmetric difference
    of the labels of Sigma's generator-cogenerator and those of its
    injectives and tau_d images: with every tau_d(I_y) stubbed to zero,
    the P_x of Sigma that are not injective are left unmatched."""
    from ausglue import tower
    sigmas = []
    monkeypatch.setattr(tower, "tau_n", lambda M, d: zero_module(M.cat))
    monkeypatch.setattr(tower, "sigma",
                        lambda g: sigmas.append(sigma(g)) or sigmas[-1])
    rep = verify_theorem_dynkin(DynkinSpec("A", 3), 1)
    claim = next(c for c in rep.claims if c.cid == "prop5.ct_summands")
    assert claim.status == "fail" and not rep.passed
    S = sigmas[0][0]
    paired = projective_injectives(S)
    unmatched = [("P", x) for x in S.objects if x not in paired]
    assert unmatched
    assert claim.witness == sorted(unmatched, key=str)
    assert claim.to_dict()["witness"] == [["P", list(x)]
                                          for _, x in claim.witness]


def test_count_claims_witness_the_pairing(monkeypatch):
    """With the last pair dropped from every Nakayama pairing the verifier
    reads, the four prop5 count claims fail: projinj_gamma and
    projinj_sigma carry the paired objects x (P_x injective), sorted, and
    injnotproj_gamma and injnotproj_sigma the y whose I_y is left
    unpaired, sorted, among them the y of the dropped pair."""
    from ausglue import tower
    calls = []

    def short(cat):
        pairing = dict(list(projective_injectives(cat).items())[:-1])
        calls.append((cat, pairing))
        return pairing
    monkeypatch.setattr(tower, "projective_injectives", short)
    rep = verify_theorem_dynkin(DynkinSpec("A", 3), 1)
    claims = {c.cid: c for c in rep.claims}
    G = calls[0][0]
    S = next(cat for cat, _ in calls if cat is not G)
    for cat, which in ((G, "gamma"), (S, "sigma")):
        pairing = next(p for c, p in calls if c is cat)
        dropped = list(projective_injectives(cat).items())[-1]
        paired, unpaired = (claims["prop5.%s_%s" % (cid, which)]
                            for cid in ("projinj", "injnotproj"))
        assert paired.status == unpaired.status == "fail"
        assert paired.computed == len(pairing)
        assert paired.witness == sorted(pairing, key=str)
        assert dropped[0] not in paired.witness
        assert unpaired.witness == sorted(
            (y for y in cat.objects if y not in pairing.values()), key=str)
        assert unpaired.computed == len(unpaired.witness)
        assert dropped[1] in unpaired.witness


def test_rank_claims_witness_the_objects_per_shift(monkeypatch):
    """With the last object of the top shift dropped from Gamma and from
    Sigma, prop5.rank_gamma and prop5.rank_sigma fail, and each carries
    the number of the category's objects at each shift 0..k: one short at
    the top shift, against the m per shift of Gamma, and the m per lower
    shift and r at the top of Sigma."""
    from ausglue import tower

    def drop_last(cat):
        return cat.full_subcategory(cat.objects[:-1])

    def short_sigma(glued):
        S, pi, match = sigma(glued)
        return drop_last(S), pi, match
    monkeypatch.setattr(tower, "gamma", lambda g: drop_last(g.cat))
    monkeypatch.setattr(tower, "sigma", short_sigma)
    for k in (1, 2):
        rep = verify_theorem_dynkin(DynkinSpec("A", 3), k)
        claims = {c.cid: c for c in rep.claims}
        m, r = 6, 3
        for cid, counts in (("prop5.rank_gamma", [m] * k + [m - 1]),
                            ("prop5.rank_sigma", [m] * k + [r - 1])):
            c = claims[cid]
            assert c.status == "fail"
            assert c.witness == counts
            assert sum(c.witness) == c.computed == c.expected - 1
            assert c.to_dict()["witness"] == counts


def test_sigma_resolves_each_unpaired_injective_once(monkeypatch):
    """verify_theorem_dynkin(A3, k = 2) resolves each injective I_y of
    Sigma that is not projective once, counted over every module
    isomorphic to it: gldim Sigma, the rigidity check and the
    tau_d-closure share that one resolution.  gldim Sigma is the longest
    of those resolutions, and nothing over Sigma^op is resolved for it,
    nor is Sigma's coresolution table built."""
    from ausglue import homology, tower
    calls, sigmas = [], []
    real = homology._resolve

    def counted(M):
        calls.append(M)
        return real(M)
    monkeypatch.setattr(homology, "_resolve", counted)
    monkeypatch.setattr(tower, "sigma",
                        lambda g: sigmas.append(sigma(g)) or sigmas[-1])
    rep = verify_theorem_dynkin(DynkinSpec("A", 3), 2)
    assert rep.passed
    S = sigmas[0][0]
    paired = set(projective_injectives(S).values())
    unpaired = [y for y in S.objects if y not in paired]
    assert len(unpaired) == 3  # m - r = 6 - 3
    on_sigma = [M for M in calls if M.cat is S]
    assert [sum(injective_label(M) == y for M in on_sigma)
            for y in unpaired] == [1, 1, 1]
    assert not any(M.cat is S.opposite() for M in calls)
    assert getattr(S, "_coresolutions", None) is None
    assert rep.stats["gldim_sigma"] == max(
        min_proj_resolution(M).length for M in on_sigma) == gldim(S) == 7


def test_failing_gldim_and_domdim_name_a_coresolution(monkeypatch):
    """Glued over every knitted indecomposable of A3 with n = 2 and k = 1,
    which is not 2-cluster tilting, thm1.3.gldim, thm1.3.domdim and
    thm1.4.gldim_sigma fail.  Each witness is [x, terms]: the first P_x of
    largest injective dimension, or attaining domdim, and the socle labels
    of the terms of its minimal injective coresolution.  The computed
    value is read back from the witness, and the terms are recomputed from
    P_x alone."""
    from ausglue import tower
    sigmas = []
    monkeypatch.setattr(tower, "sigma",
                        lambda g: sigmas.append(sigma(g)) or sigmas[-1])
    ar = knit(A3)
    glued = build_glued(A3, [ar.module(i) for i in range(ar.count)],
                        _unique_names(ar.labels()), 2, 1, ar.table)
    claims = {c.cid: c for c in
              tower._verify_glued(glued, "all of A3", "thm1.3").claims}

    def terms_of(cat, x):
        return min_proj_resolution(dual_module(projective_module(cat, x))).terms

    def leading_projinj(cat, terms):
        return next((i for i, t in enumerate(terms) if any(
            projective_label(injective_module(cat, y)) is None for y in t)),
            None)

    G, S = glued.cat, sigmas[0][0]
    for cid, cat, value in (
            ("thm1.3.gldim", G, lambda terms: len(terms) - 1),
            ("thm1.3.domdim", G, lambda terms: leading_projinj(G, terms)),
            ("thm1.4.gldim_sigma", S, lambda terms: len(terms) - 1)):
        c = claims[cid]
        assert c.status == "fail"
        x, terms = c.witness
        assert value(terms) == c.computed != c.expected
        assert terms_of(cat, x) == terms
        first = next(y for y in cat.objects
                     if value(terms_of(cat, y)) == c.computed)
        assert first == x
    assert (claims["thm1.3.gldim"].computed,
            claims["thm1.3.gldim"].expected) == (2, 7)


def test_verdict_resolves_each_module_once(monkeypatch):
    """verify_theorem_dynkin(A3, k = 2), counted by the modules resolved
    (homology._resolve, which builds every Resolution): no module object
    is resolved twice; each D(P_x) of Gamma that is not projective over
    Gamma^op is resolved once, for gldim and domdim together, and the
    others not at all; no module over Gamma is resolved (the next test
    checks that none of Gamma's injectives and no projective of Gamma or
    Gamma^op is built); on Sigma only the injectives that are not
    projective are resolved, once each, no projective; and nothing over
    Sigma^op, as gldim Sigma is read off those injectives."""
    from ausglue import homology, tower
    resolved, sigmas = [], []
    real = homology._resolve

    def counted(module):
        resolved.append(module)
        return real(module)
    monkeypatch.setattr(homology, "_resolve", counted)
    monkeypatch.setattr(tower, "sigma",
                        lambda g: sigmas.append((g, sigma(g))) or sigmas[-1][1])
    assert verify_theorem_dynkin(DynkinSpec("A", 3), 2).passed
    assert len({id(M) for M in resolved}) == len(resolved)
    glued, (S, _, _) = sigmas[0]
    G = glued.cat
    paired = projective_injectives(G)
    assert paired and len(paired) < len(G.objects)
    on_gamma_op = [injective_label(M) for M in resolved
                   if M.cat is G.opposite()]
    assert on_gamma_op == [x for x in G.objects if x not in paired]
    assert not any(M.cat is G for M in resolved)
    unpaired = [y for y in S.objects
                if y not in projective_injectives(S).values()]
    assert len(unpaired) == 3  # m - r = 6 - 3
    on_sigma = [M for M in resolved if M.cat is S]
    assert [injective_label(M) for M in on_sigma] == unpaired
    assert all(projective_label(M) is None for M in on_sigma)
    assert not any(M.cat is S.opposite() for M in resolved)


def test_verdict_builds_no_projective_of_gamma_or_the_opposites(monkeypatch):
    """verify_theorem_dynkin(A3, k = 2), with the category of every
    projective_module and every injective_module call recorded in each
    ausglue namespace that binds it: free modules and the coresolution
    table read the structure constants in place, and Sigma's injectives
    are built over Sigma, so no projective_module call falls on Gamma,
    Gamma^op or Sigma^op, and no injective_module call on Gamma.  Sigma's
    own projectives, the generators of its rigidity check, are still
    built."""
    import sys
    from ausglue import fincat, tower
    cats = {"projective_module": [], "injective_module": []}
    sigmas = []
    for fname, calls in cats.items():
        real = getattr(fincat, fname)

        def recorded(cat, x, real=real, calls=calls):
            calls.append(cat)
            return real(cat, x)
        for name, mod in list(sys.modules.items()):
            if name.partition(".")[0] == "ausglue" and \
                    getattr(mod, fname, None) is real:
                monkeypatch.setattr(mod, fname, recorded)
    monkeypatch.setattr(tower, "sigma",
                        lambda g: sigmas.append((g, sigma(g))) or sigmas[-1][1])
    assert verify_theorem_dynkin(DynkinSpec("A", 3), 2).passed
    glued, (S, _, _) = sigmas[0]
    G = glued.cat
    projs, injs = cats["projective_module"], cats["injective_module"]
    assert any(c is S for c in projs)
    assert not [c for c in projs
                if c is G or c is G.opposite() or c is S.opposite()]
    assert any(c is S for c in injs)
    assert not [c for c in injs if c is G]


def _report_claims(case, field):
    if case in ("A3", "D4"):
        spec = DynkinSpec(case[0], int(case[1]), "out" if case == "D4" else None)
        rep = verify_theorem_dynkin(spec, 1, field=field)
    else:
        if case == "auslander-A3":
            ambient, _ = auslander_category(category_from_presentation(
                hereditary_presentation(DynkinSpec("A", 3)), field))
        else:
            ambient = category_from_presentation(nakayama_linear(4, 3), field)
        rep = verify_theorem_higher(ambient, 1, 2)
    return [c.to_dict() for c in rep.claims], rep.passed


@pytest.mark.parametrize("case", ["A3", "D4", "auslander-A3", "nakayama-4-3"])
def test_claims_independent_of_field(case):
    """Every claim, with its expected and computed values and its verdict,
    comes out the same over GF(2), GF(3), GF(5), QQ and GF(32003)."""
    reports = [_report_claims(case, f)
               for f in (GF(2), GF(3), GF(5), QQ, GF(32003))]
    assert reports[0][1]
    assert all(r == reports[0] for r in reports[1:])


COMMUTATIVE_SQUARE = ("quiver\narrow a 1 2\narrow b 1 3\narrow c 2 4\n"
                      "arrow d 3 4\nrelation 2*a.c;-3*b.d\n")


def test_non_unit_coefficients_independent_of_field(tmp_path, monkeypatch):
    """The square 2ac = 3bd has the non-integer structure constant 3/2
    over QQ, so QQ mixes ints and Fractions there; its invariants, its
    knitted dimension vectors and the refusal of verify --n 2 are the same
    over QQ, GF(5), GF(7) and GF(32003)."""
    built = []

    class CountingFraction(fractions.Fraction):
        def __new__(cls, *args):
            built.append(args)
            return fractions.Fraction(*args)
    monkeypatch.setattr(ausglue.linalg, "Fraction", CountingFraction)
    monkeypatch.delenv("AUSGLUE_FIELD", raising=False)
    qf = tmp_path / "square.quiver"
    qf.write_text(COMMUTATIVE_SQUARE)
    dimvecs, messages = [], []
    for field, name in ((QQ, "QQ"), (GF(5), "5"), (GF(7), "7"),
                        (GF(32003), "32003")):
        built.clear()
        cat = category_from_presentation(
            parse_quiver_file(COMMUTATIVE_SQUARE), field)
        assert (gldim(cat), domdim(cat)) == (2, 1)
        assert projective_injectives(cat) == {"1": "4"}
        dimvecs.append([dv for _, dv in knit(cat).vertices])
        assert bool(built) == (field == QQ)
        r = CliRunner().invoke(main, ["verify", "--quiver-file", str(qf),
                                      "--k", "1", "--n", "2",
                                      "--field", name])
        assert r.exit_code == 2
        assert "not a generator: P_2 is not among them" in r.stderr
        messages.append(r.stderr)
    assert all(d == dimvecs[0] for d in dimvecs[1:])
    assert all(m == messages[0] for m in messages[1:])
