"""The theorem layer: endomorphism algebras of the glued categories, their
dimension statistics and rank counts, higher almost-split 4-angles, and
verification reports.

For a glued category G on m indecomposables over a rank-r ambient algebra
with glue degree n and k shifts, the verified statements are:

  gldim Gamma^k = domdim Gamma^k = (n+2)k + n + 1
  rank Gamma^k = (k+1)m            rank Sigma^k = km + r
  projinj Gamma^k = rank Sigma^k   projinj Sigma^k = (k-1)m + 2r
  inj-not-proj of both = m - r
  gldim Sigma^k = (n+2)k + n = d, with Sigma (+) DSigma d-rigid and
  closed under tau_d (d-representation-finiteness certificate)

plus, for the hereditary (n=1) case, the identification of the quiver of
(Gamma^k)^op with the repeated-and-connected AR quiver.
"""

from .fincat import (projective_module, injective_module,
                     modules_isomorphic, dual_module, top_generators,
                     decompose)
from .homology import (gldim, domdim, min_proj_resolution, ext_dim, tau_n,
                       projective_injectives, INFINITY)
from .glue import build_sk, build_mk, is_rigid
from .errors import NoApproximation
from .quiver import DynkinSpec, hereditary_presentation
from .pathcat import category_from_presentation
from .linalg import default_field


class Claim:
    """One verified statement: pass / fail-with-witness / skipped."""

    def __init__(self, cid, ref, expected, computed, status, witness=None):
        self.cid = cid
        self.ref = ref
        self.expected = expected
        self.computed = computed
        self.status = status
        self.witness = witness

    def to_dict(self):
        d = {"id": self.cid, "paper_ref": self.ref,
             "expected": _jsonable(self.expected),
             "computed": _jsonable(self.computed),
             "status": self.status}
        if self.witness is not None:
            d["witness"] = _jsonable(self.witness)
        return d

    def __repr__(self):
        return "Claim(%s: %s)" % (self.cid, self.status)


def _jsonable(v):
    if v is INFINITY:
        return "infinity"
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (int, str, bool)) or v is None:
        return v
    return str(v)


class TowerReport:
    def __init__(self, input_desc, k, n):
        self.input_desc = input_desc
        self.k = k
        self.n = n
        self.claims = []
        self.stats = {}

    def add(self, cid, ref, expected, computed, witness=None):
        status = "pass" if expected == computed else "fail"
        self.claims.append(Claim(cid, ref, expected, computed, status,
                                 witness if status == "fail" else None))

    def skip(self, cid, ref, reason):
        self.claims.append(Claim(cid, ref, None, None, "skipped", reason))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.claims)

    def to_dict(self):
        return {"input": self.input_desc,
                "parameters": {"k": self.k, "n": self.n},
                "stats": _jsonable(self.stats),
                "claims": [c.to_dict() for c in self.claims],
                "passed": self.passed}


# ---------------------------------------------------------------------------
# Gamma and Sigma


def is_basic(cat):
    """No two distinct objects isomorphic: in a schurian category x and y
    are isomorphic iff some composite x -> y -> x is nonzero."""
    for x in cat.objects:
        for y in cat.objects:
            if x == y:
                continue
            for i in range(cat.homdim[(y, x)]):
                g = cat._basis_vec(y, x, i)
                for j in range(cat.homdim[(x, y)]):
                    f = cat._basis_vec(x, y, j)
                    if any(v != cat.field.zero
                           for v in cat.compose(x, y, x, g, f)):
                        return False
    return True


def gamma(glued):
    """Gamma^k = End of the sum of all glued objects: by additivity this is
    the glued category itself, re-read as a basic algebra."""
    if not is_basic(glued.cat):
        raise ValueError("glued category is not basic")
    return glued.cat


def sigma(glued):
    """Sigma^k: End over Gamma^k of the projective-injectives, i.e. the full
    subcategory on them.  The object set is cross-checked against the
    generator-cogenerator description End(M (+) M[1] (+) ... (+) A[k]):
    everything at shifts < k together with the ambient projectives at the
    top shift (the shift-symmetric form of DLambda (+) shifted copies)."""
    pi = projective_injectives(glued.cat)
    alt = []
    for j in range(glued.k):
        alt.extend((nm, j) for nm in glued.names)
    for a, M in enumerate(glued.modules):
        if _is_ambient_projective(glued.ambient, M):
            alt.append((glued.names[a], glued.k))
    match = sorted(pi, key=str) == sorted(alt, key=str)
    return glued.cat.full_subcategory(pi), pi, match


def _is_ambient_projective(ambient, M):
    return any(modules_isomorphic(M, projective_module(ambient, x))
               for x in ambient.objects)


def _distinct_modules(mods):
    out = []
    for M in mods:
        if not any(modules_isomorphic(M, N) for N in out):
            out.append(M)
    return out


# ---------------------------------------------------------------------------
# expected AR quiver of the glued category (hereditary case)


def expected_glued_ar_arrows(ambient, ar, names, k):
    """AR quiver of the glued category built independently of the category:
    k+1 copies of the AR quiver of the ambient, plus connecting arrows
    I -> P[next]: an injective with socle x maps irreducibly to P_a[1] iff
    the AR quiver has an arrow P_a -> P_x (the mesh around P_a[1], whose
    translate is I_a)."""
    arrows = {}
    for s, d, mult in ar.arrows:
        for j in range(k + 1):
            arrows[((names[s], j), (names[d], j))] = mult
    vertex_of_proj = {ar.projective_of[i]: i for i in range(ar.count)
                      if ar.projective_of[i] is not None}
    for v in range(ar.count):
        if not ar.injective_flags[v]:
            continue
        x = _socle_label(ambient, ar.module(v))
        tgt = vertex_of_proj[x]
        for s, d, mult in ar.arrows:
            if d != tgt or ar.projective_of[s] is None:
                continue
            for j in range(k):
                arrows[((names[v], j), (names[s], j + 1))] = mult
    return arrows


def _socle_label(ambient, M):
    gens = top_generators(dual_module(M))
    if len(gens) != 1:
        raise ValueError("module has non-simple socle")
    return gens[0][0]


# ---------------------------------------------------------------------------
# verification pipelines


def verify_theorem_dynkin(spec, k, field=None, budget=512):
    """Full verification for the hereditary tower.  spec is a DynkinSpec or
    a relation-free BoundPresentation; non-representation-finite input is
    rejected by the knitting budget (NotRepFinite)."""
    field = field or default_field()
    if isinstance(spec, DynkinSpec):
        pres = hereditary_presentation(spec)
        desc = "dynkin %s%d (%s)" % (spec.letter, spec.rank,
                                     spec.orientation)
    else:
        pres = spec
        desc = "quiver on %d vertices" % len(spec.quiver.vertices)
    ambient = category_from_presentation(pres, field)
    glued = build_sk(ambient, k, budget=budget)
    rep = _verify_glued(glued, desc, gldim_id="thm1.2")
    _add_quiver_claim(rep, glued)
    return rep


def verify_theorem_higher(ambient, k, n, modules=None, input_desc="higher",
                          budget=512):
    """Full verification for the n-cluster-tilting tower over an algebra of
    global dimension <= n."""
    glued = build_mk(ambient, k, n, modules=modules, budget=budget)
    return _verify_glued(glued, input_desc, gldim_id="thm1.3")


def _verify_glued(glued, input_desc, gldim_id):
    k, n = glued.k, glued.n
    rep = TowerReport(input_desc, k, n)
    G = gamma(glued)
    m = len(glued.modules)
    r = len(glued.ambient.objects)
    d = (n + 2) * k + n

    g_gldim = gldim(G)
    g_domdim = domdim(G)
    S, pi, char_match = sigma(glued)
    rep.stats.update(rank_gamma=len(G.objects), gldim_gamma=g_gldim,
                     domdim_gamma=g_domdim, projinj_count=len(pi))

    if k == 0:
        rep.add("classical.gldim", "sec2.3", True, g_gldim <= n + 1,
                witness=g_gldim)
        rep.add("classical.domdim", "sec2.3", True,
                g_domdim == INFINITY or g_domdim >= n + 1, witness=g_domdim)
    else:
        rep.add(gldim_id + ".gldim", gldim_id, d + 1, g_gldim)
        rep.add(gldim_id + ".domdim", gldim_id, d + 1, g_domdim)

    rep.add("prop5.rank_gamma", "sec5", (k + 1) * m, len(G.objects))
    rep.add("prop5.projinj_gamma", "sec5", k * m + r, len(pi))
    rep.add("prop5.injnotproj_gamma", "sec5", m - r,
            len(G.objects) - len(pi))

    rep.add("prop3.4.projinj_set", "prop3.4", True, char_match,
            witness=sorted(pi, key=str))
    rep.add("prop5.rank_sigma", "sec5", k * m + r, len(S.objects))

    if k == 0:
        rep.skip("prop5.projinj_sigma", "sec5", "count formula needs k >= 1")
        rep.skip("prop5.injnotproj_sigma", "sec5",
                 "count formula needs k >= 1")
        rep.skip("thm1.4.gldim_sigma", "thm1.4", "Sigma tower needs k >= 1")
        rep.skip("thm1.4.rigidity", "thm1.4", "Sigma tower needs k >= 1")
        rep.skip("thm1.4.tau_d_closure", "thm1.4",
                 "Sigma tower needs k >= 1")
        rep.skip("prop5.ct_summands", "sec5", "Sigma tower needs k >= 1")
        return rep

    s_pi = projective_injectives(S)
    rep.stats.update(rank_sigma=len(S.objects), projinj_sigma=len(s_pi),
                     inj_not_proj_gamma=len(G.objects) - len(pi),
                     inj_not_proj_sigma=len(S.objects) - len(s_pi))
    rep.add("prop5.projinj_sigma", "sec5", (k - 1) * m + 2 * r, len(s_pi))
    rep.add("prop5.injnotproj_sigma", "sec5", m - r,
            len(S.objects) - len(s_pi))

    s_gldim = gldim(S)
    rep.stats["gldim_sigma"] = s_gldim
    rep.add("thm1.4.gldim_sigma", "thm1.4", d, s_gldim)

    projs = [projective_module(S, x) for x in S.objects]
    injs = [injective_module(S, x) for x in S.objects]
    # the projectives, then the injectives that are not also projective
    inj_proj = set(projective_injectives(S.opposite()))
    gen_cogen = projs + [I for y, I in zip(S.objects, injs)
                         if y not in inj_proj]
    ok, witness = is_rigid(gen_cogen, d)
    rep.stats["rigidity_result"] = ok
    rep.add("thm1.4.rigidity", "thm1.4", True, ok, witness=witness)

    tau_summands = []
    closure_ok = True
    closure_witness = None
    for x in S.objects:
        T = tau_n(injective_module(S, x), d)
        if T.total_dim() == 0:
            continue
        for Z in decompose(T):
            tau_summands.append(Z)
            if not any(modules_isomorphic(Z, W) for W in gen_cogen):
                closure_ok = False
                closure_witness = (x, Z.dim_vector())
    rep.stats["tau_d_closure_ok"] = closure_ok
    rep.add("thm1.4.tau_d_closure", "thm1.4", True, closure_ok,
            witness=closure_witness)

    other = _distinct_modules(injs + tau_summands)
    same = (all(any(modules_isomorphic(a, b) for b in other)
                for a in gen_cogen)
            and all(any(modules_isomorphic(b, a) for a in gen_cogen)
                    for b in other))
    rep.add("prop5.ct_summands", "sec5", True, same)
    return rep


def _add_quiver_claim(rep, glued):
    expected = expected_glued_ar_arrows(glued.ambient, glued.ar, glued.names,
                                        glued.k)
    computed = glued.cat.gabriel_arrows()
    rep.add("thm1.2.quiver_ar", "thm1.2", expected, computed,
            witness=sorted(set(expected) ^ set(computed), key=str))


# ---------------------------------------------------------------------------
# 4-angles (n = 2)


def four_angles(ambient, modules, names):
    """Connecting 4-angles X -> I0 -> I1 -> Y -> X[2] of a 2-cluster-tilting
    subcategory, one per non-injective X: the exact sequence
    0 -> X -> I0 -> I1 -> Y -> 0 is the injective coresolution of X
    (iterated minimal left approximation by injectives), and the angle
    closes through a nonzero class in Ext^2(Y, X).

    Raises NoApproximation if a coresolution does not land in the
    subcategory in three steps with an indecomposable end, which signals
    non-cluster-tilting input.
    """
    index = {nm: i for i, nm in enumerate(names)}
    inj_name = {}
    for v in ambient.objects:
        I = injective_module(ambient, v)
        for j, M in enumerate(modules):
            if modules_isomorphic(I, M):
                inj_name[v] = names[j]
    angles = []
    for a, M in enumerate(modules):
        if names[a] in set(inj_name.values()):
            continue  # injective: no outgoing angle
        res = min_proj_resolution(dual_module(M), stop_at=3)
        if res.length != 2 or len(res.terms[2]) != 1 or \
                any(v not in inj_name for t in res.terms[:3] for v in t):
            raise NoApproximation(
                "coresolution of %s has shape %r" % (names[a], res.terms))
        y = inj_name[res.terms[2][0]]
        angle = (names[a],
                 tuple(sorted(inj_name[v] for v in res.terms[0])),
                 tuple(sorted(inj_name[v] for v in res.terms[1])), y)
        if ext_dim(modules[index[y]], M, 2) == 0:
            raise NoApproximation(
                "no connecting extension %s -> %s[2]" % (y, names[a]))
        angles.append(angle)
    return angles
