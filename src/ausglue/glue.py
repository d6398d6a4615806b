"""Glued categories: k+1 shifted copies of a module category, with
hom(X[i], Y[i]) the ordinary hom, hom(X[i], Y[i+1]) = Ext^n(X, Y), and
nothing across larger gaps.

Composition is Yoneda composition on explicit cocycles: hom after hom is
map composition, ext after hom precomposes with a lifted chain map, hom
after ext postcomposes on cocycle blocks, and ext after ext vanishes.
Associativity of the assembled category is not assumed; the tests verify
it exhaustively through FinCategory.check_associativity.
"""

from .linalg import coords_in_basis
from .fincat import (FinCategory, hom_modules, identity_map, decompose,
                     injective_module, projective_module, modules_isomorphic)
from .homology import (min_proj_resolution, ext_space, gldim,
                       lift_chain_map, compose_hom_with_ext, tau_n)
from .errors import (NonSchurianVertex, NotHereditary, NotRepFinite,
                     NotClusterTilting, GldimTooBig, OrbitDiverges,
                     NotComposable, BudgetExceeded)


class GluedCategory:
    """The glued category on k+1 copies of the given indecomposables.

    cat: the assembled FinCategory; objects are (name, shift) pairs.
    modules/names: the indecomposables of one copy, in object order.
    n: the Ext degree used for the connecting homs; k: number of shifts.
    homs[(a,b)] / exts[(a,b)] keep the chosen bases (ModuleMaps resp.
    ExtSpaces indexed by positions in `modules`) for downstream checks.
    ar: the AR quiver of the ambient when build_sk knitted it, else None.
    """

    def __init__(self, cat, ambient, modules, names, n, k, homs, exts,
                 resolutions):
        self.cat = cat
        self.ambient = ambient
        self.modules = modules
        self.names = names
        self.n = n
        self.k = k
        self.homs = homs
        self.exts = exts
        self.resolutions = resolutions
        self.ar = None

    def obj(self, a, shift):
        return (self.names[a], shift)

    @property
    def rank(self):
        return len(self.cat.objects)

    def hom_dim(self, a, i, b, j):
        return self.cat.homdim[(self.obj(a, i), self.obj(b, j))]


def _unique_names(labels):
    seen = {}
    out = []
    for lab in labels:
        c = seen.get(lab, 0)
        seen[lab] = c + 1
        out.append(lab if c == 0 else "%s#%d" % (lab, c))
    return out


def _hom_tables(field, modules, names):
    """Hom bases between the given indecomposables, with the identity as
    the basis of each End, and the structure constants of hom after hom:
    comp[(a, b, c)][i][j] = coordinates of g_i o f_j in the hom(a, c)
    basis, for g_i in hom(b, c) and f_j in hom(a, b).  Keys are positions
    in `modules`."""
    m = len(modules)
    homs = {}
    for a in range(m):
        for b in range(m):
            basis = hom_modules(modules[a], modules[b])
            if a == b:
                if len(basis) != 1:
                    raise NonSchurianVertex(
                        "End(%s) has dimension %d" % (names[a], len(basis)))
                basis = [identity_map(modules[a])]
            homs[(a, b)] = basis
    hflat = {key: [g.flatten() for g in basis] for key, basis in homs.items()}
    comp = {}
    for a in range(m):
        for b in range(m):
            if not homs[(a, b)]:
                continue
            for c in range(m):
                if not homs[(b, c)] or not homs[(a, c)]:
                    continue
                comp[(a, b, c)] = [
                    [coords_in_basis(field, hflat[(a, c)],
                                     g.compose(f).flatten())
                     for f in homs[(a, b)]]
                    for g in homs[(b, c)]]
    return homs, comp


def build_glued(ambient, modules, names, n, k):
    """Assemble the glued category from a list of pairwise non-isomorphic
    indecomposable modules over the ambient category."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    field = ambient.field
    m = len(modules)
    res = [min_proj_resolution(M, stop_at=n + 1) for M in modules]

    homs, comp_hh = _hom_tables(field, modules, names)
    exts = {(a, b): ext_space(modules[a], modules[b], n, resolution=res[a])
            for a in range(m) for b in range(m)}

    # degree-n chain-map lift of every hom basis element, for ext o hom
    lifts = {}
    for (a, b), basis in homs.items():
        for j, f in enumerate(basis):
            L = lift_chain_map(f, res[a], res[b], n)
            lifts[(a, b, j)] = L[n] if len(L) > n else None

    comp_he = {}
    comp_eh = {}
    for a in range(m):
        for b in range(m):
            dab = len(homs[(a, b)])
            eab = exts[(a, b)].dim
            for c in range(m):
                dbc = len(homs[(b, c)])
                ebc = exts[(b, c)].dim
                if dab and ebc and exts[(a, c)].dim:
                    t = []
                    for i in range(ebc):
                        vec = exts[(b, c)].reps[i]
                        row = []
                        for j in range(dab):
                            L = lifts[(a, b, j)]
                            if L is None:
                                w = [field.zero] * _cocycle_len(
                                    res[a], modules[c], n)
                            else:
                                w = L.hom_into(modules[c]).apply(vec)
                            row.append(exts[(a, c)].reduce(w))
                        t.append(row)
                    comp_he[(a, b, c)] = t
                if eab and dbc and exts[(a, c)].dim:
                    t = []
                    for g in homs[(b, c)]:
                        row = []
                        for j in range(eab):
                            w = compose_hom_with_ext(
                                g, exts[(a, b)], exts[(a, b)].reps[j])
                            row.append(exts[(a, c)].reduce(w))
                        t.append(row)
                    comp_eh[(a, b, c)] = t

    objects = [(names[a], s) for s in range(k + 1) for a in range(m)]
    homdim = {}
    for s in range(k + 1):
        for t in range(k + 1):
            for a in range(m):
                for b in range(m):
                    if s == t:
                        d = len(homs[(a, b)])
                    elif t == s + 1:
                        d = exts[(a, b)].dim
                    else:
                        d = 0
                    homdim[((names[a], s), (names[b], t))] = d

    comp = {}
    for s in range(k + 1):
        for (a, b, c), t in comp_hh.items():
            comp[((names[a], s), (names[b], s), (names[c], s))] = t
        if s < k:
            for (a, b, c), t in comp_he.items():
                comp[((names[a], s), (names[b], s), (names[c], s + 1))] = t
            for (a, b, c), t in comp_eh.items():
                comp[((names[a], s), (names[b], s + 1), (names[c], s + 1))] = t

    cat = FinCategory(field, objects, homdim, comp)
    return GluedCategory(cat, ambient, modules, names, n, k, homs, exts, res)


def yoneda_compose(glued, g, f):
    """Compose two morphisms of the glued category, each a (src, dst,
    coeffs) triple with coeffs over the hom basis of hom(src, dst).
    Returns the triple of g o f; raises NotComposable unless f ends where
    g starts."""
    fs, fd, fc = f
    gs, gd, gc = g
    cat = glued.cat
    for x in (fs, fd, gs, gd):
        if x not in cat.obj_index:
            raise NotComposable("unknown object %r" % (x,))
    if len(fc) != cat.homdim[(fs, fd)] or len(gc) != cat.homdim[(gs, gd)]:
        raise NotComposable("coefficient length does not match hom space")
    if fd != gs:
        raise NotComposable("cannot compose %r -> %r after %r -> %r"
                            % (gs, gd, fs, fd))
    return fs, gd, cat.compose(fs, fd, gd, gc, fc)


def endomorphism_category(ambient, modules, names):
    """The basic endomorphism algebra of the direct sum of the given
    pairwise non-isomorphic indecomposables, as a FinCategory with the
    names as objects."""
    homs, comp_hh = _hom_tables(ambient.field, modules, names)
    homdim = {(names[a], names[b]): len(basis)
              for (a, b), basis in homs.items()}
    comp = {(names[a], names[b], names[c]): t
            for (a, b, c), t in comp_hh.items()}
    return FinCategory(ambient.field, list(names), homdim, comp)


def auslander_category(ambient, budget=512):
    """The Auslander algebra: End of the sum of all indecomposables.
    Returns (FinCategory, ARQuiver of the ambient)."""
    from .knitting import knit
    try:
        ar = knit(ambient, budget=budget)
    except BudgetExceeded as e:
        raise NotRepFinite(str(e))
    modules = [ar.module(i) for i in range(ar.count)]
    names = _unique_names(ar.labels())
    return endomorphism_category(ambient, modules, names), ar


def _cocycle_len(res, Y, n):
    if n > res.length:
        return 0
    return sum(Y.dims[b] for b in res.terms[n])


def build_sk(ambient, k, budget=512):
    """Glue k+1 copies of the module category of a hereditary
    representation-finite algebra along Ext^1."""
    if gldim(ambient) != 1:
        raise NotHereditary("global dimension is not 1")
    from .knitting import knit
    try:
        ar = knit(ambient, budget=budget)
    except BudgetExceeded as e:
        raise NotRepFinite(str(e))
    modules = [ar.module(i) for i in range(ar.count)]
    names = _unique_names(ar.labels())
    glued = build_glued(ambient, modules, names, 1, k)
    glued.ar = ar
    return glued


def build_mk(ambient, k, n, modules=None, budget=512):
    """Glue k+1 copies of an n-cluster-tilting subcategory along Ext^n.
    With modules=None the subcategory is generated from the injectives by
    the higher translate tau_n."""
    g = gldim(ambient)
    if g > n:
        raise GldimTooBig("gldim %d exceeds n = %d" % (g, n))
    if modules is None:
        modules = cluster_tilting_from_tau_n(ambient, n, budget=budget)
    ok, witness = is_cluster_tilting(ambient, modules, n, budget=budget)
    if not ok:
        raise NotClusterTilting(repr(witness))
    from .knitting import vertex_label
    names = _unique_names([vertex_label(ambient, M) for M in modules])
    return build_glued(ambient, modules, names, n, k)


def is_rigid(modules, n):
    """Ext^i vanishing for 0 < i < n on all ordered pairs.  Returns
    (True, None) or (False, (a, b, i))."""
    for a, Ma in enumerate(modules):
        res = min_proj_resolution(Ma, stop_at=n)
        for b, Mb in enumerate(modules):
            for i in range(1, n):
                if ext_space(Ma, Mb, i, resolution=res).dim:
                    return False, (a, b, i)
    return True, None


def is_cluster_tilting(ambient, modules, n, budget=512):
    """Rigidity plus maximality: every indecomposable that is Ext-orthogonal
    to the collection in degrees 0 < i < n must already be in it.  Maximality
    needs the full indecomposable list; if the ambient cannot be enumerated
    within the budget the check degrades to rigidity plus the
    generator-cogenerator criterion and says so in the witness slot."""
    ok, witness = is_rigid(modules, n)
    if not ok:
        return False, ("rigid", witness)
    from .knitting import knit
    try:
        ar = knit(ambient, budget=budget)
    except BudgetExceeded:
        for x in ambient.objects:
            for pick in (projective_module, injective_module):
                N = pick(ambient, x)
                if not any(modules_isomorphic(N, M) for M in modules):
                    return False, ("generator-cogenerator", x)
        return True, "criterion-verified, not enumeration-verified"
    for idx in range(ar.count):
        X = ar.module(idx)
        if any(modules_isomorphic(X, M) for M in modules):
            continue
        resX = min_proj_resolution(X, stop_at=n)
        orthogonal = True
        for M in modules:
            resM = min_proj_resolution(M, stop_at=n)
            for i in range(1, n):
                if ext_space(X, M, i, resolution=resX).dim or \
                        ext_space(M, X, i, resolution=resM).dim:
                    orthogonal = False
                    break
            if not orthogonal:
                break
        if orthogonal:
            return False, ("maximal", idx, X.dim_vector())
    return True, None


def cluster_tilting_from_tau_n(ambient, n, budget=512):
    """Closure of the indecomposable injectives under the higher translate
    tau_n; raises OrbitDiverges past the budget."""
    found = []
    queue = []
    for x in ambient.objects:
        I = injective_module(ambient, x)
        if not any(modules_isomorphic(I, M) for M in found):
            found.append(I)
            queue.append(I)
    while queue:
        M = queue.pop(0)
        T = tau_n(M, n)
        if T.total_dim() == 0:
            continue
        for S in decompose(T):
            if any(modules_isomorphic(S, M2) for M2 in found):
                continue
            if len(found) >= budget:
                raise OrbitDiverges("more than %d orbit modules" % budget)
            found.append(S)
            queue.append(S)
    return found
