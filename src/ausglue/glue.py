"""Glued categories: k+1 shifted copies of a module category, with
hom(X[i], Y[i]) the ordinary hom, hom(X[i], Y[i+1]) = Ext^n(X, Y), and
nothing across larger gaps.

Hom (ext_space at n = 0) and Ext^n are both ExtSpaces; every product is
a Yoneda composite (homology.yoneda_block): hom after hom is the
hom_table's, ext after hom pulls the cocycle along f's chain-map lift,
hom after ext pulls g along the cocycle's lift through its target's
cover, and ext after ext vanishes.  build_glued makes each block once,
for a triple whose three hom spaces are nonzero, writes it under its
shifted keys, and lifts a hom basis to degree n only where an ext after
hom block reads the lift.  Associativity is not assumed; the tests check
it exhaustively.
"""

from .fincat import (FinCategory, injective_module, projective_label,
                     injective_label, is_basic)
from .homology import (min_proj_resolution, ext_space, ext_dims, gldim,
                       injective_dims, lift_chain_map, _lift, tau_n,
                       hom_table, yoneda_block, modules_isomorphic)
from .knitting import (knit, vertex_label, single_gabriel_arrows,
                       OVSIENKO_BOUND)
from .errors import (NotHereditary, NotClusterTilting, GldimTooBig,
                     InvalidParams, OrbitDiverges, NotRepFinite)


class GluedCategory:
    """The glued category on k+1 copies of the given indecomposables.

    cat: the assembled FinCategory; objects are (name, shift) pairs.
    modules/names: the indecomposables of one copy, in object order.
    n: the Ext degree used for the connecting homs; k: number of shifts.
    The hom and Ext bases behind the structure constants are not kept.
    ar: the AR quiver of the ambient when build_sk knitted it, else None.
    """

    def __init__(self, cat, ambient, modules, names, n, k):
        self.cat = cat
        self.ambient = ambient
        self.modules = modules
        self.names = names
        self.n = n
        self.k = k
        self.ar = None


def _unique_names(labels):
    seen = {}
    out = []
    for lab in labels:
        c = seen.get(lab, 0)
        seen[lab] = c + 1
        out.append(lab if c == 0 else "%s#%d" % (lab, c))
    return out


def _check_k_and_n(k, n):
    """ValueError, naming the value, unless k >= 0 and n >= 1."""
    if k < 0:
        raise ValueError("k = %d: the number of shifts must be >= 0" % k)
    if n < 1:
        raise ValueError("n = %d: the Ext degree must be >= 1" % n)


def build_glued(ambient, modules, names, n, k, table):
    """Assemble the glued category from a list of pairwise non-isomorphic
    indecomposable modules over the ambient category and their
    hom_table, in one pass over the support of the structure constants
    (see the module docstring)."""
    _check_k_and_n(k, n)
    m = len(modules)
    res = [min_proj_resolution(M) for M in modules]
    homs, end = table
    exts = {(a, b): ext_space(modules[a], modules[b], n)
            for a in range(m) for b in range(m)}
    ext_out = [[c for c in range(m) if exts[(a, c)].dim] for a in range(m)]
    objects = [(names[a], s) for s in range(k + 1) for a in range(m)]

    homdim = {}  # zero across larger gaps; FinCategory keeps only nonzeros
    for s in range(k + 1):
        at = objects[s * m:(s + 1) * m]
        up = objects[(s + 1) * m:(s + 2) * m]
        for (a, b), H in homs.items():
            homdim[(at[a], at[b])] = H.dim
            if s < k:
                homdim[(at[a], up[b])] = exts[(a, b)].dim

    comp = {}

    def spread(a, b, c, db, dc, t):
        # t at ((a, s), (b, s + db), (c, s + dc)) for every shift s there
        for s in range(k + 1 - dc):
            comp[(objects[s * m + a], objects[(s + db) * m + b],
                  objects[(s + dc) * m + c])] = t

    for (a, b, c), t in end.comp.items():
        spread(a, b, c, 0, 0, t)
    cols = {}  # each pulled rep's Yoneda columns, shared across sources a
    for (a, b), H in homs.items():
        cs = [c for c in ext_out[b] if exts[(a, c)].dim]
        if not H.dim or not cs:
            continue
        # Ext^n(b, c), Ext^n(a, c) != 0: both resolutions reach F_n, so
        # every lift has a degree-n term
        lifts = [lift_chain_map(H.images(r), modules[b], res[a], res[b],
                                n)[n] for r in H.reps]
        for c in cs:
            spread(a, b, c, 0, 1,
                   yoneda_block(exts[(b, c)], lifts, exts[(a, c)], cols))
    covers = [{} for _ in modules]  # each cover's columns, by object
    for a, bs in enumerate(ext_out):
        for b in bs:  # c = b qualifies, so every lift below is read
            E, objs = exts[(a, b)], res[a].frees[n].summands
            lifts = [_lift(res[b].frees[0], modules[b], res[b].tops, objs,
                           E.images(r), covers[b]) for r in E.reps]
            for c in (c for c in bs if homs[(b, c)].dim):
                spread(a, b, c, 1, 1,
                       yoneda_block(homs[(b, c)], lifts, exts[(a, c)], cols))

    cat = FinCategory(ambient.field, objects, homdim, comp)
    return GluedCategory(cat, ambient, modules, names, n, k)


def endomorphism_category(table, names):
    """The basic endomorphism algebra of the direct sum of pairwise
    non-isomorphic indecomposables, End of their hom_table, as a
    FinCategory with the names as objects."""
    end = table[1]
    homdim = {(names[a], names[b]): d for (a, b), d in end.homdim.items()}
    comp = {(names[a], names[b], names[c]): t
            for (a, b, c), t in end.comp.items()}
    return FinCategory(end.field, list(names), homdim, comp)


def auslander_category(ambient):
    """The Auslander algebra: End of the sum of all indecomposables.
    Returns (FinCategory, ARQuiver of the ambient)."""
    ar, _, names = _knit_indecomposables(ambient)
    return endomorphism_category(ar.table, names), ar


def _knit_indecomposables(ambient):
    """The AR quiver, its modules and their unique names, or NotRepFinite."""
    ar = knit(ambient)
    return ar, [ar.module(i) for i in range(ar.count)], \
        _unique_names(ar.labels())


def build_sk(ambient, k):
    """Glue k+1 copies of the module category of a hereditary
    representation-finite algebra along Ext^1; NotHereditary otherwise."""
    _check_k_and_n(k, 1)
    g = gldim(ambient)
    if g != 1:
        raise NotHereditary("gldim %d: " % g + (
            "the algebra is semisimple, so there is no Ext to glue along"
            if g == 0 else "the algebra is not hereditary, so it is not "
            "glued along Ext^1"))
    ar, modules, names = _knit_indecomposables(ambient)
    glued = build_glued(ambient, modules, names, 1, k, ar.table)
    glued.ar = ar
    return glued


def build_mk(ambient, k, n, modules=None):
    """Glue k+1 copies of an n-cluster-tilting subcategory along Ext^n.
    With modules=None the subcategory is generated from the injectives by
    the higher translate tau_n."""
    _check_k_and_n(k, n)
    modules, names, table = cluster_tilting_subcategory(ambient, n, modules)
    return build_glued(ambient, modules, names, n, k, table)


def cluster_tilting_subcategory(ambient, n, modules=None):
    """The subcategory that build_mk glues and `ausglue angles` lists:
    GldimTooBig unless gldim(ambient) <= n, InvalidParams at gldim 0 (a
    semisimple ambient has no Ext^n to glue along), and NotClusterTilting
    unless is_cluster_tilting passes on the modules (the tau_n-closure of
    the injectives if None).  Returns (modules, names, hom_table), the table
    built once."""
    g = gldim(ambient)
    if g > n:
        raise GldimTooBig("gldim %d exceeds n = %d" % (g, n))
    if g == 0:
        raise InvalidParams("gldim 0: the algebra is semisimple, so there "
                            "is no Ext to glue along")
    if modules is None:
        modules = cluster_tilting_from_tau_n(ambient, n)
    names = _unique_names([vertex_label(ambient, M) for M in modules])
    table = hom_table(ambient, modules, names)
    ok, witness = is_cluster_tilting(ambient, modules, n, table)
    if not ok:
        raise NotClusterTilting(_witness_text(names, n, witness))
    return modules, names, table


def _witness_text(names, n, witness):
    """The failed is_cluster_tilting witness in words."""
    kind, w = witness
    if kind in ("generator", "cogenerator"):
        return "not a %s: %s_%s is not among them" % (
            kind, "P" if kind == "generator" else "I", w)
    if kind == "basic":
        return "not basic: %s is isomorphic to %s" % (names[w[0]], names[w[1]])
    if kind == "rigid":
        return "not %d-rigid: Ext^%d(%s, %s) != 0" % (n, w[2], names[w[0]],
                                                      names[w[1]])
    return ("gldim End(M) > %d: the projective End(M)-module at %s has "
            "injective dimension %d" % (n + 1, names[w[0]], w[1]))


def is_rigid(sources, targets, n):
    """Ext^i(X, Y) = 0 for 0 < i < n, X in sources and Y in targets.  It
    always holds for a projective X or an injective Y, so a caller leaves
    those out and maps positions back to its own lists.  Returns (True,
    None) or (False, (a, b, i)) for the first source a, then target b,
    then least i that fails."""
    for a, Ma in enumerate(sources):
        res = min_proj_resolution(Ma)
        top = min(n - 1, res.length)  # Ext^i(X, -) = 0 above pdim X
        for b, Mb in enumerate(targets if top > 0 else ()):
            for i, d in enumerate(ext_dims(res, Mb, top, 1), 1):
                if d:
                    return False, (a, b, i)
    return True, None


def is_cluster_tilting(ambient, modules, n, table=None):
    """Whether the sum M of the given indecomposables, each with End = K,
    is n-cluster tilting, by the higher Auslander correspondence (Iyama,
    "Auslander correspondence", Adv. Math. 210, 2007, Thm 0.2, with
    Mueller, Canad. J. Math. 20, 1968): a basic generator-cogenerator M
    with Ext^i(M, M) = 0 for 0 < i < n is n-cluster tilting iff
    gldim End(M) <= n + 1.  Nothing is knitted.  Returns (True, None), or
    (False, witness) from the first test to fail: ("generator", x) or
    ("cogenerator", y), no P_x or I_y; ("basic", (a, b)), two isomorphic
    positions; ("rigid", (a, b, i)), as is_rigid on modules twice, which
    skips projective sources and injective targets; ("gldim", (a, d)), the
    first projective End(M)-module, at a, with injective dimension
    d > n + 1.  table: the modules' hom_table, built if None."""
    labels = [[label(M) for M in modules]
              for label in (projective_label, injective_label)]
    for kind, have in zip(("generator", "cogenerator"), labels):
        x = next((x for x in ambient.objects if x not in have), None)
        if x is not None:
            return False, (kind, x)
    end = (table or hom_table(ambient, modules,
                              [str(M.dim_vector()) for M in modules]))[1]
    ok, pair = is_basic(end)
    if not ok:
        return False, ("basic", pair)
    srcs, tgts = ([a for a, x in enumerate(xs) if x is None] for xs in labels)
    ok, witness = is_rigid([modules[a] for a in srcs],
                           [modules[b] for b in tgts], n)
    if not ok:
        a, b, i = witness
        return False, ("rigid", (srcs[a], tgts[b], i))
    if gldim(end) > n + 1:
        return False, ("gldim", next((a, d) for a, d in
                                     injective_dims(end).items() if d > n + 1))
    return True, None


# No bound is derived for the tau_n orbit at n >= 2: its modules need not be
# directing, so Ovsienko's bound does not apply.  512 admits Auslander(A_r) at
# n = 2, with 10, 20, 35, 56 and 84 closure modules for r = 3..7 (measured).
ORBIT_LIMIT = 512


def cluster_tilting_from_tau_n(ambient, n):
    """Closure of the indecomposable injectives under the higher translate
    tau_n.  Raises NotRepFinite at once for a multiple Gabriel arrow, whose
    tau_n-orbits do not end, and at n = 1, where the ambient is hereditary,
    at a module above OVSIENKO_BOUND (knitting module docstring), so the
    orbit ends; at n >= 2, OrbitDiverges past ORBIT_LIMIT modules.  In an
    n-cluster-tilting subcategory tau_n sends each indecomposable to an
    indecomposable (Iyama 2007, Thm 2.3), and here every indecomposable
    has End = K, so a tau_n(M) with a larger End raises NotClusterTilting."""
    single_gabriel_arrows(ambient)
    # a basic category has pairwise non-isomorphic injectives
    found = [injective_module(ambient, x) for x in ambient.objects]
    queue = list(found)
    while queue:
        M = queue.pop(0)
        T = tau_n(M, n)
        if T.total_dim() == 0:
            continue
        if n == 1 and max(T.dim_vector()) > OVSIENKO_BOUND:
            raise NotRepFinite(
                "not representation-finite: tau gives dimension vector %s, "
                "with a coordinate above %d" % (T.dim_vector(), OVSIENKO_BOUND))
        e = ext_space(T, T, 0).dim
        if e != 1:
            raise NotClusterTilting("tau_n of %s has a %d-dimensional End"
                                    % (M.dim_vector(), e))
        if any(modules_isomorphic(T, M2) for M2 in found):
            continue
        if n > 1 and len(found) >= ORBIT_LIMIT:
            raise OrbitDiverges("more than %d orbit modules" % ORBIT_LIMIT)
        found.append(T)
        queue.append(T)
    return found
