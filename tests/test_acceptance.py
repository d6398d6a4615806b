"""Acceptance gate: one test per criterion, each printing a single
pass/fail line.  All tolerances are exact integer equalities."""

import pytest

from ausglue.errors import NotRepFinite
from ausglue.linalg import QQ, GF, default_field
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
from ausglue.fincat import injective_label, injective_module, projective_label
from ausglue.homology import ext_dim, hom_table, injective_dims, INFINITY
from ausglue.knitting import knit, vertex_label
from ausglue.glue import (build_sk, build_mk, auslander_category,
                          cluster_tilting_from_tau_n, is_cluster_tilting,
                          _unique_names)
from ausglue.tower import (gamma, sigma, verify_theorem_dynkin,
                           verify_theorem_higher, four_angles)
import oracles
from oracles import direct_sum, hom_by_naturality, tau

FIELD = default_field()

GRID = [
    ("A2", DynkinSpec("A", 2)),
    ("A3-linear", DynkinSpec("A", 3, "linear")),
    ("A3-alternating", DynkinSpec("A", 3, "alternating")),
    ("A4", DynkinSpec("A", 4)),
    ("D4", DynkinSpec("D", 4, "out")),
]


def report_line(num, ok):
    print("criterion %d: %s" % (num, "PASS" if ok else "FAIL"))
    assert ok


def make(spec, field=FIELD):
    return category_from_presentation(hereditary_presentation(spec), field)


@pytest.fixture(scope="module")
def grid_reports():
    return {(name, k): verify_theorem_dynkin(spec, k)
            for name, spec in GRID for k in (0, 1, 2)}


@pytest.fixture(scope="module")
def aus_setup():
    aus_cat, _ = auslander_category(make(DynkinSpec("A", 3)))
    modules = cluster_tilting_from_tau_n(aus_cat, 2)
    names = _unique_names([vertex_label(aus_cat, M) for M in modules])
    return aus_cat, modules, names


def claims_by_id(rep):
    return {c.cid: c for c in rep.claims}


def test_criterion_1_gldim_equals_domdim(grid_reports):
    ok = True
    for name, _ in GRID:
        for k in (1, 2):
            c = claims_by_id(grid_reports[(name, k)])
            for cid in ("thm1.2.gldim", "thm1.2.domdim"):
                ok &= (c[cid].status == "pass"
                       and c[cid].expected == 3 * k + 2)
    report_line(1, ok)


def test_criterion_2_classical_degeneration(grid_reports):
    ok = True
    for name, _ in GRID:
        c = claims_by_id(grid_reports[(name, 0)])
        ok &= c["classical.gldim"].status == "pass"
        ok &= c["classical.domdim"].status == "pass"
        rep = grid_reports[(name, 0)]
        ok &= rep.stats["gldim_gamma"] <= 2
        dd = rep.stats["domdim_gamma"]
        ok &= dd is INFINITY or dd >= 2
    report_line(2, ok)


def test_criterion_3_counting_suite(grid_reports):
    ok = True
    for name, spec in GRID:
        aus = spec.positive_root_count()
        n = spec.rank
        for k in (1, 2):
            c = claims_by_id(grid_reports[(name, k)])
            expect = {
                "prop5.rank_gamma": (k + 1) * aus,
                "prop5.rank_sigma": k * aus + n,
                "prop5.projinj_gamma": k * aus + n,
                "prop5.projinj_sigma": (k - 1) * aus + 2 * n,
                "prop5.injnotproj_gamma": aus - n,
                "prop5.injnotproj_sigma": aus - n,
            }
            for cid, val in expect.items():
                ok &= c[cid].status == "pass" and c[cid].expected == val
    report_line(3, ok)


def test_criterion_4_sigma_suite(grid_reports):
    ok = True
    for name, _ in GRID:
        for k in (1, 2):
            c = claims_by_id(grid_reports[(name, k)])
            ok &= (c["thm1.4.gldim_sigma"].status == "pass"
                   and c["thm1.4.gldim_sigma"].expected == 3 * k + 1)
            for cid in ("thm1.4.rigidity", "thm1.4.tau_d_closure",
                        "prop5.ct_summands"):
                ok &= c[cid].status == "pass"
    report_line(4, ok)


# frozen figure data ---------------------------------------------------------

D4_COPY = ([("P_%d" % i, "P_1") for i in (2, 3, 4)]
           + [("P_1", m) for m in ("M(1, 0, 1, 1)", "M(1, 1, 0, 1)",
                                   "M(1, 1, 1, 0)")]
           + [(m, "M(2, 1, 1, 1)") for m in ("M(1, 0, 1, 1)",
                                             "M(1, 1, 0, 1)",
                                             "M(1, 1, 1, 0)")]
           + [("M(2, 1, 1, 1)", "I_%d" % i) for i in (2, 3, 4)]
           + [("I_%d" % i, "I_1") for i in (2, 3, 4)])
D4_CONNECTING = [("I_1", "P_%d" % i) for i in (2, 3, 4)]

# 12-vertex gluing figure for A3: two Auslander-algebra copies joined by
# three extension modules.  Vertices as drawn (primed = second copy),
# arrows as drawn; the dictionary sends a drawn vertex to a glued object
# and reverses arrows (the figure presents the opposite algebra).
A3_FIGURE_ARROWS = [
    ("1", "2"), ("2", "3"), ("2", "x"), ("3", "4"), ("x", "4"),
    ("4", "5"), ("4", "1'"), ("5", "2'"),
    ("1'", "2'"), ("2'", "3'"), ("2'", "x'"), ("3'", "4'"), ("x'", "4'"),
    ("4'", "5'"),
]
A3_FIGURE_MODULE = {"1": "I_1", "2": "I_2", "3": "P_1",
                    "x": "S_2", "4": "P_2", "5": "P_3"}


def a3_figure_vertex(v):
    if v.endswith("'"):
        return (A3_FIGURE_MODULE[v[:-1]], 0)
    return (A3_FIGURE_MODULE[v], 1)


def test_criterion_5_figures():
    ok = True
    # 24-vertex glued quiver for D4 with one shift
    g = build_sk(make(DynkinSpec("D", 4, "out")), 1)
    expected = {((s, j), (d, j)): 1 for j in (0, 1) for s, d in D4_COPY}
    expected.update({((s, 0), (d, 1)): 1 for s, d in D4_CONNECTING})
    ok &= len(g.cat.objects) == 24
    ok &= g.cat.gabriel_arrows() == expected
    # fundamental-domain truncation: everything at shift 0 plus the four
    # projectives at shift 1 (16 vertices, 21 arrows)
    S, order, match = sigma(g)
    keep = set(order)
    ok &= match and len(order) == 16
    truncated = {a: m for a, m in expected.items()
                 if a[0] in keep and a[1] in keep}
    ok &= len(truncated) == 21
    ok &= S.gabriel_arrows() == truncated
    # 12-vertex glued quiver for A3, via the drawn figure
    g3 = build_sk(make(DynkinSpec("A", 3)), 1)
    drawn = {(a3_figure_vertex(w), a3_figure_vertex(v)): 1
             for v, w in A3_FIGURE_ARROWS}
    ok &= len(g3.cat.objects) == 12
    ok &= g3.cat.gabriel_arrows() == drawn
    # the three extension modules sit at the drawn positions: each is the
    # injective at the unprimed end and the projective at the primed end
    G3 = gamma(g3)
    ext_positions = {  # name: (support vertices, injective at, projective at)
        "E_1": (["1'", "x", "4"], "x", "1'"),
        "E_2": (["1'", "2'", "4", "5"], "4", "2'"),
        "E_3": (["2'", "x'", "5"], "5", "x'"),
    }
    from ausglue.fincat import projective_module
    from ausglue.homology import modules_isomorphic
    for support, inj_at, proj_at in ext_positions.values():
        I = injective_module(G3, a3_figure_vertex(inj_at))
        sup = {y for y in G3.objects if I.dims[y]}
        ok &= sup == {a3_figure_vertex(v) for v in support}
        ok &= all(I.dims[y] == 1 for y in sup)
        ok &= modules_isomorphic(
            I, projective_module(G3, a3_figure_vertex(proj_at)))
    report_line(5, ok)


@pytest.mark.xfail(strict=True, reason="recorded expectation of a 9-vertex "
                   "truncation; the computed fundamental domain for D4 with "
                   "one shift has 16 vertices")
def test_criterion_5_literal_nine_vertex_truncation():
    g = build_sk(make(DynkinSpec("D", 4, "out")), 1)
    _, order, _ = sigma(g)
    assert len(order) == 9


AUS_A3_ANGLES = sorted([
    ("P_S_2", ("P_P_2",), ("P_P_3",), "I_P_3"),
    ("S_S_2", ("I_S_2",), ("I_P_2",), "I_P_3"),
    ("P_I_2", ("P_P_1",), ("P_P_3",), "I_P_2"),
    ("P_I_1", ("P_P_1",), ("P_P_2",), "I_S_2"),
])


def test_criterion_6_higher_case(aus_setup):
    aus_cat, modules, names = aus_setup
    ok = len(modules) == 10
    ok &= is_cluster_tilting(aus_cat, modules, 2) == (True, None)
    rep = verify_theorem_higher(aus_cat, 1, 2, modules=modules,
                                input_desc="auslander(A3)")
    c = claims_by_id(rep)
    ok &= c["thm1.3.gldim"].status == "pass" and c["thm1.3.gldim"].expected == 7
    ok &= (c["thm1.3.domdim"].status == "pass"
           and c["thm1.3.domdim"].expected == 7)
    ok &= rep.stats["rank_gamma"] == 20
    ok &= sorted(four_angles(aus_cat, modules, names)) == AUS_A3_ANGLES
    report_line(6, ok)


@pytest.mark.xfail(strict=True, reason="recorded expectation of 9 "
                   "indecomposables / rank 18; the tau_2-closure of the "
                   "injectives has 10 indecomposables, so the glued rank "
                   "is 20")
def test_criterion_6_literal_rank_eighteen(aus_setup):
    aus_cat, modules, _ = aus_setup
    assert len(modules) == 9
    assert 2 * len(modules) == 18


def test_criterion_7_nakayama_family():
    m, ell = 4, 3
    d = 2
    ok = d * ell == 2 * (m - 1)
    nak = category_from_presentation(nakayama_linear(m, ell), FIELD)
    ct = cluster_tilting_from_tau_n(nak, d)
    ok &= len(ct) == m + ell - 1 == 6
    rep = verify_theorem_higher(nak, 1, d, input_desc="nakayama(4,3)")
    c = claims_by_id(rep)
    ok &= c["thm1.3.gldim"].status == "pass" and rep.stats["gldim_gamma"] == 7
    ok &= (c["thm1.3.domdim"].status == "pass"
           and rep.stats["domdim_gamma"] == 7)
    ok &= (c["thm1.4.gldim_sigma"].status == "pass"
           and rep.stats["gldim_sigma"] == 6)
    ok &= c["thm1.4.rigidity"].status == "pass"
    report_line(7, ok)


def test_criterion_8_property_suites(aus_setup):
    aus_cat, modules, _ = aus_setup
    ok = True
    # exhaustive associativity on all basis triples
    glued_list = [build_sk(make(DynkinSpec("A", 2)), 1),
                  build_sk(make(DynkinSpec("A", 3)), 1),
                  build_mk(aus_cat, 1, 2, modules=modules)]
    for g in glued_list:
        ok &= oracles.check_identities(g.cat) == (True, None)
        ok &= oracles.check_associativity(g.cat) == (True, None)
    # hom/ext exactness across every almost-split sequence of A3
    A3 = make(DynkinSpec("A", 3))
    ar3 = knit(A3)
    for z, tz in ar3.tau.items():
        middle = []
        for s, mult in oracles.arrows_into(ar3, z):
            middle.extend([ar3.module(s)] * mult)
        K, _, _ = direct_sum(A3, middle)
        for i in range(ar3.count):
            G = ar3.module(i)
            total = 0
            for sign, M in ((1, ar3.module(tz)), (-1, K),
                            (1, ar3.module(z))):
                total += sign * (len(hom_by_naturality(G, M)) -
                                 ext_dim(G, M, 1))
            ok &= total == 0
    # AR duality over all ordered pairs, and the mesh property
    for spec in (DynkinSpec("A", 3), DynkinSpec("D", 4, "out")):
        cat = make(spec)
        ar = knit(cat)
        ok &= oracles.check_mesh(ar)[0]
        mods = [ar.module(i) for i in range(ar.count)]
        for X in mods:
            for Y in mods:
                tY = tau(Y)
                lhs = len(hom_by_naturality(X, tY)) if tY.total_dim() else 0
                ok &= lhs == ext_dim(Y, X, 1)
    # field independence of every claim for (A3, k=1)
    rep_q = verify_theorem_dynkin(DynkinSpec("A", 3), 1, field=QQ)
    rep_p = verify_theorem_dynkin(DynkinSpec("A", 3), 1, field=GF(32003))
    flat_q = [(c.cid, c.expected, c.computed, c.status) for c in rep_q.claims]
    flat_p = [(c.cid, c.expected, c.computed, c.status) for c in rep_p.claims]
    ok &= flat_q == flat_p and rep_q.passed and rep_p.passed
    report_line(8, ok)


def test_criterion_9_negative_controls(aus_setup):
    """Dropping any one module of the 2-cluster-tilting subcategory of
    Auslander(A3) fails, with the witness of the first test to fail: a
    dropped P_x loses the generator at x, a dropped I_y the cogenerator
    at y, and the one module that is neither (S_S_2) leaves End of the
    rest with gldim > 3, recomputed from the witness (a, d) alone as the
    injective dimension of P_a over that End."""
    aus_cat, modules, names = aus_setup
    ok = True
    other = []
    for idx in range(len(modules)):
        sub = modules[:idx] + modules[idx + 1:]
        passed, witness = is_cluster_tilting(aus_cat, sub, 2)
        ok &= not passed
        x, y = projective_label(modules[idx]), injective_label(modules[idx])
        if x is not None:
            assert witness == ("generator", x)
        elif y is not None:
            assert witness == ("cogenerator", y)
        else:
            other.append(names[idx])
            kind, (a, d) = witness
            assert kind == "gldim" and d > 3
            end = hom_table(aus_cat, sub, [names[i] for i in
                                           range(len(modules)) if i != idx])[1]
            assert injective_dims(end)[a] == d
    assert other == ["S_S_2"]
    kron = BoundPresentation(Quiver([1, 2], [("a", 1, 2), ("b", 1, 2)]), [])
    try:
        verify_theorem_dynkin(kron, 1)
        ok = False
    except NotRepFinite:
        pass
    report_line(9, ok)
