"""Minimal resolutions, Ext with explicit Yoneda cocycles, the AR
translate (as DTr on minimal projective presentations) and its higher
analogues, and the two dimension statistics gldim and domdim.

A minimal resolution works in free-module coordinates: each syzygy is
kept as the RREF rows of its value spaces inside the last free module,
never as a module of its own, and its top is read off through the free
module's action by fincat.submodule_top, the routine that gives the top
of the module itself (Green, Solberg and Zacharia, "Minimal projective
resolutions", Trans. AMS 353, 2001).  Every step walks only the support
of its free module, the objects where it is nonzero; elsewhere the syzygy
is 0.  Rank-nullity gives each syzygy's dimensions, so only kernels
neither 0 nor everything are solved.  The higher translate tau_n is
D Tr of F_n -> F_{n-1} in that resolution.
ext_dims reads dim Ext^i off ranks; ext_space builds cocycles, and
lift_chain_map lifts a map of modules to their resolutions to compose Ext
with Hom.  A differential, a lift, a map of modules and a cocycle are all
kept as the images of generators and applied by their Yoneda columns at
one object at a time (FreeModule.pull); only ext_space and ext_dims,
which need a kernel or a rank, form the rows of the matrix of Hom(d, N)
(FreeModule.hom_into) and eliminate on them.

Hom is Ext^0: by left exactness Hom(M, N) = ker Hom(d_0, N), so
ext_space(M, N, 0) carries Hom as it carries Ext.  yoneda_block makes
every block of Yoneda products: a lift through a cover (_lift), a pull
of the outer reps along it, and ExtSpace.reduce, the one coordinate
reader.  The modules compared in scope are indecomposable with End = K
(the algebras are representation-directed or n-representation-finite),
so isomorphism is decided by one Hom and no module is ever split.

Injective-side computations are routed through the opposite category via
the duality D, so only projective resolutions are ever built.  Each
category keeps its Nakayama pairing P_x = I_y (projective_injectives),
read from the structure constants by Yoneda, and one table of the minimal
injective coresolutions of its P_x (injective_coresolutions), which
coresolves only the unpaired P_x; domdim and gldim are read off it.
gldim is max id P_x: on a directed category, whose hom support (x -> y
for hom(x, y) != 0, x != y) has no cycle (quiver.topological_order over
out_support decides this, on the support alone), the algebra is
triangular, so its global dimension d is finite, and then d = id A:
Ext^d(N, S) != 0 for some module N and simple S, and Ext^d(N, -) is right
exact, so the epi P(S) ->> S gives Ext^d(N, P(S)) ->> Ext^d(N, S).
Dually d = pd DA, the largest pd I_y over the I_y that are not projective
(0 if none): Ext^d(-, N) is right exact, so S -> I(S) gives
Ext^d(I(S), N) ->> Ext^d(S, N).  Sigma is a full subcategory of Gamma, so
it is directed once gldim(Gamma) has passed, and tower reads gldim Sigma
this way, off the I_y it resolves anyway.  Any other category is refused as
NotDirected, naming a cycle of its hom support.
"""

from itertools import accumulate

from .linalg import (Mat, NoSolution, identity_rows, kernel_basis,
                     kernel_rows, quotient_coords, rank, row_reduce,
                     row_space_basis, solve)
from .fincat import (FinCategory, FreeModule, CatModule, dual_module,
                     dual_projective_module, submodule_top, top_generators,
                     zero_module)
from .quiver import topological_order
from .errors import Truncated, InvalidParams, NotDirected, NonSchurianVertex

INFINITY = float("inf")


class Resolution:
    """A minimal projective resolution ... -> F_1 -> F_0 -> M -> 0.

    frees[i]: the FreeModule F_i, for the offsets and the action of its
    value spaces, and terms[i] its summand-object list; diffs[i]: the
    images in F_i of the generators of F_{i+1}, which fix the differential
    by Yoneda; tops: the images in M of the generators of F_0, which fix
    the cover F_0 -> M.
    Neither M nor any map out of a free module is kept, so a module is not
    referenced by its own resolution.  The syzygies are not kept either:
    each was only the RREF rows of its value spaces in F_i.
    """

    def __init__(self, frees, diffs, tops):
        self.frees = frees
        self.diffs = diffs
        self.tops = tops

    @property
    def terms(self):
        return [F.summands for F in self.frees]

    @property
    def length(self):
        return len(self.frees) - 1


def min_proj_resolution(M):
    """The complete minimal projective resolution of M, down to its last
    nonzero term; raises Truncated past length dim(cat) + 2.  Built once
    and kept on M (modules are immutable)."""
    if not hasattr(M, "_resolution"):
        M._resolution = _resolve(M)
    return M._resolution


def _resolve(M):
    """min_proj_resolution without keeping it on M.

    The syzygy K = ker(F_i -> F_{i-1}) is kept as rows[y], the RREF rows
    of K(y) inside F_i(y), for y in the support of F_i only.  Its
    generators become the summands of F_{i+1}, which maps to F_i with the
    same kernel as its cover of K."""
    cat = M.cat
    max_len = cat.total_dimension() + 2
    gens = top_generators(M)
    F = FreeModule(cat, [x for x, _ in gens])
    tops = [v for _, v in gens]
    res = Resolution([F], [], tops)
    rows = {y: _next_rows(F, M, tops, y, M.dims[y]) for y in F.support}
    while any(rows.values()):
        if len(res.diffs) + 1 > max_len:
            raise Truncated(max_len)
        kgens = submodule_top(F, rows)
        G = FreeModule(cat, [y for y, _ in kgens])
        images = [w for _, w in kgens]
        res.diffs.append(images)
        res.frees.append(G)
        rows = {y: _next_rows(G, F, images, y, len(rows.get(y, ())))
                for y in G.support}
        F = G
    return res


def _next_rows(G, F, images, y, k):
    """RREF rows of ker(G(y) -> F(y)) for G covering K, dim K(y) = k, by
    sending its generators to images in F (M itself at degree 0): of
    dimension dim G(y) - k, and all of G(y) where K(y) = 0."""
    f, d = G.cat.field, G.dims[y]
    if d == k:
        return []
    if not k:
        return identity_rows(f, d)
    return kernel_rows(f, [[f(v) for v in r] for r in
                           zip(*G.yoneda_columns(F, images, y))], d)


def gldim(cat):
    """Global dimension, as max id P_x; NotDirected unless cat is
    directed, checked before anything is resolved."""
    _refuse_cycles(cat)
    return max(injective_dims(cat).values())


def _refuse_cycles(cat):
    """NotDirected unless the hom support of cat has no cycle.  The message
    names one: dropping, one at a time, each object that some cycle avoids
    leaves a cycle without chords, in which each object has one successor."""
    cyc = list(cat.objects)
    if _acyclic(cat, cyc):
        return
    for x in cat.objects:
        rest = [y for y in cyc if y != x]
        if not _acyclic(cat, rest):
            cyc = rest
    path = cyc[:1]
    while len(path) < len(cyc):
        path.append(next(y for y in cyc
                         if y != path[-1] and cat.homdim[(path[-1], y)]))
    raise NotDirected("not directed: hom support has the cycle " +
                      " -> ".join(map(str, path + path[:1])))


def _acyclic(cat, objs):
    """Whether the hom support of cat on objs (x -> y for hom(x, y) != 0,
    x != y) has no cycle, by topological_order over out_support."""
    keep = set(objs)
    return topological_order(objs, {
        x: [y for y in cat.out_support[x] if y != x and y in keep]
        for x in objs}) is not None


def injective_coresolutions(cat):
    """{x: socle labels of each term of the minimal injective coresolution
    of P_x}, in object order: [[y]] where P_x = I_y (projective_injectives,
    which builds no module), else the projective resolution of D(P_x) over
    the opposite category, read in place from the structure constants
    (dual_projective_module).  Kept once per category; do not mutate."""
    table = getattr(cat, "_coresolutions", None)
    if table is None:
        pairing = projective_injectives(cat)
        table = cat._coresolutions = {
            x: [[pairing[x]]] if x in pairing else
            _resolve(dual_projective_module(cat, x)).terms
            for x in cat.objects}
    return table


def _nakayama_pairing(cat):
    """{x: y} where P_x = I_y.  By Yoneda Hom(P_x, I_y) = D hom(x, y), so
    P_x = I_y iff dim hom(x, z) = dim hom(z, y) for all z (at z = y, so
    hom(x, y) = K) and composition hom(z, y) x hom(x, z) -> hom(x, y) is a
    perfect pairing at each z in out_support[x].  The dimensions are
    compared on their support, as (z, dim) pairs in object order."""
    objs, hd, comp, f = cat.objects, cat.homdim, cat.comp, cat.field
    col = {y: [] for y in objs}  # (z, dim hom(z, y)) for hom(z, y) != 0
    for z in objs:
        for y in cat.out_support[z]:
            col[y].append((z, hd[(z, y)]))
    cols = {}  # the y by their column
    for y in objs:
        cols.setdefault(tuple(col[y]), []).append(y)

    def invertible(x, z, y):
        # only the rank is read, the same for either orientation of comp
        d = hd[(x, z)]
        t = comp.get((y, z, x) if cat.transposed else (x, z, y))
        return t is not None and (t[0][0][0] != f.zero if d == 1 else rank(
            f, [[c[0] for c in r] for r in t], d) == d)

    return {x: y for x in objs
            for y in cols.get(tuple((z, hd[(x, z)])
                                    for z in cat.out_support[x]), ())
            if all(invertible(x, z, y) for z in cat.out_support[x])}


def projective_injectives(cat):
    """The Nakayama pairing {x: y}, in object order: P_x is injective and
    isomorphic to I_y.  _nakayama_pairing is an iff and builds no module;
    these are exactly the one-term entries of injective_coresolutions,
    which takes them from here.  Kept once per category; do not mutate."""
    if getattr(cat, "_pairing", None) is None:
        cat._pairing = _nakayama_pairing(cat)
    return cat._pairing


def injective_dims(cat):
    """{x: id P_x}, read off injective_coresolutions."""
    return {x: len(terms) - 1
            for x, terms in injective_coresolutions(cat).items()}


def dominant_dims(cat):
    """{x: the number of leading projective-injective terms of the
    coresolution of P_x}, INFINITY where P_x is injective; a last term is
    not projective, as a surjection onto a projective splits."""
    projinj = set(projective_injectives(cat).values())  # I_y projective
    return {x: next((i for i, term in enumerate(terms)
                     if not projinj.issuperset(term)), INFINITY)
            for x, terms in injective_coresolutions(cat).items()}


def domdim(cat):
    """Dominant dimension: the least of dominant_dims.  Returns INFINITY
    for self-injective input."""
    return min(dominant_dims(cat).values())


# ---------------------------------------------------------------------------
# Ext with explicit cocycles


class ExtSpace:
    """A basis of Ext^n(X, Y) with Yoneda-cocycle representatives; at
    n = 0 a basis of Hom(X, Y).

    A cocycle is a vector in Hom(F_n, Y) coordinates: the concatenation of
    one Y(b) block per summand b of term n of X's minimal resolution.
    reduce() maps any cocycle to coordinates over the chosen representative
    basis, discarding coboundaries.
    """

    __slots__ = ("Y", "n", "resolution", "reps", "dim", "cob_rows", "field",
                 "_factor")

    def __init__(self, Y, n, resolution, reps, cob_rows):
        self.Y = Y
        self.n = n
        self.resolution = resolution
        self.reps = reps
        self.dim = len(reps)
        self.cob_rows = cob_rows
        self.field = Y.cat.field
        self._factor = None  # reduce's free columns, or its factored span

    def images(self, vec):
        """A cocycle as the images in Y of the generators of F_n."""
        F = self.resolution.frees[self.n]
        offs = list(accumulate((self.Y.dims[b] for b in F.summands),
                               initial=0))
        return [vec[o:e] for o, e in zip(offs, offs[1:])]

    def reduce(self, vec):
        """Coordinates of a cocycle modulo coboundaries, in the rep basis;
        NoSolution for any other vector.  With no coboundaries (every Hom,
        n = 0) the reps are kernel_basis vectors, each 1 at its free column
        (its last nonzero entry) and 0 at the others': the coordinates are
        vec's entries there, and clearing those columns with the reps must
        leave 0.  Otherwise the first call takes the RREF of
        [cob_rows + reps | identity], whose rows pair a vector of the span
        with its coordinates; clearing the pivots of [vec | 0] then leaves
        0 and minus the coordinates of vec."""
        f, n = self.field, len(vec)
        if not self.cob_rows:
            if self._factor is None:
                self._factor = [max(j for j, v in enumerate(r) if v)
                                for r in self.reps]
            if any(quotient_coords(f, self.reps, self._factor, range(n),
                                   vec)):
                raise NoSolution()
            return [f(vec[j]) for j in self._factor]
        basis = self.cob_rows + self.reps
        m = len(basis)
        if self._factor is None:
            self._factor = row_reduce(f, [[f(v) for v in b] + e for b, e in
                                          zip(basis, identity_rows(f, m))],
                                      n + m)
        rest = quotient_coords(f, *self._factor, range(n + m),
                               list(vec) + [f.zero] * m)
        if any(v != f.zero for v in rest[:n]):
            raise NoSolution()
        return [f(-v) for v in rest[n + len(self.cob_rows):]]


def ext_space(X, Y, n):
    """Ext^n(X, Y), n >= 0, with explicit representatives: a basis of the
    cocycles of Hom(F_n, Y) modulo the coboundaries.  At n = 0 there are
    none, and the cocycles are Hom(X, Y)."""
    f = X.cat.field
    res = min_proj_resolution(X)
    hom_n = sum(Y.dims[b] for b in res.frees[n].summands) \
        if n <= res.length else 0
    if not hom_n:
        return ExtSpace(Y, n, res, [], [])
    # cocycles: kernel of Hom(F_n, Y) -> Hom(F_{n+1}, Y)
    if n < len(res.diffs):
        zvecs = kernel_basis(f, res.frees[n].hom_into(
            Y, res.frees[n + 1].summands, res.diffs[n]), hom_n)
    else:
        zvecs = identity_rows(f, hom_n)
    # coboundaries: image of Hom(F_{n-1}, Y) -> Hom(F_n, Y), its columns
    if n >= 1:
        bvecs = zip(*res.frees[n - 1].hom_into(Y, res.frees[n].summands,
                                               res.diffs[n - 1]))
    else:
        bvecs = []
    cob_rows = row_space_basis(f, bvecs, hom_n)
    # kernel_basis columns are independent, so with no coboundaries every
    # cocycle is kept; else one elimination of [coboundaries | cocycles]
    # keeps those at pivot columns, outside the span of all before them
    reps = zvecs
    if cob_rows and zvecs:
        c = len(cob_rows)
        pivots = row_reduce(f, list(zip(*cob_rows, *zvecs)),
                            c + len(zvecs))[1]
        reps = [zvecs[j - c] for j in pivots if j >= c]
    return ExtSpace(Y, n, res, reps, cob_rows)


def ext_dims(res, Y, top, low=0):
    """dim Ext^i(X, Y) for i = low..top, from res = min_proj_resolution(X):
    dim Hom(F_i, Y) less the ranks of the maps into and out of it, each
    built and ranked once."""
    hom = [sum(Y.dims[b] for b in F.summands) for F in res.frees] + \
        [0] * (top + 2)
    ranks = [0] * (top + 2)  # ranks[i]: of Hom(F_{i-1}, Y) -> Hom(F_i, Y)
    for i in range(max(low - 1, 0), min(top + 1, len(res.diffs))):
        if hom[i] and hom[i + 1]:
            ranks[i + 1] = rank(Y.cat.field, res.frees[i].hom_into(
                Y, res.frees[i + 1].summands, res.diffs[i]), hom[i])
    return [hom[i] - ranks[i] - ranks[i + 1] for i in range(low, top + 1)]


def ext_dim(X, Y, n):
    return ext_dims(min_proj_resolution(X), Y, n, n)[0]


# ---------------------------------------------------------------------------
# Hom as Ext^0, and the Yoneda products


def hom_table(cat, modules, names):
    """(homs, end) for pairwise non-isomorphic indecomposables over cat:
    homs[(a, b)] is Hom(modules[a], modules[b]) = ext_space(.., .., 0) by
    positions.  Each End must be K (NonSchurianVertex, naming the module,
    if not), and its basis element is then the identity: it is c.id, with
    images c.tops, and tops are unit vectors, so c = 1 at its free column.
    end is End of their direct sum on the positions 0..m-1, each block
    g o f made by yoneda_block from f lifted through b's cover."""
    homs = {}
    for a, Ma in enumerate(modules):
        for b, Mb in enumerate(modules):
            H = homs[(a, b)] = ext_space(Ma, Mb, 0)
            if a == b and H.dim != 1:
                raise NonSchurianVertex("End(%s) has dimension %d"
                                        % (names[a], H.dim))
    res = [min_proj_resolution(M) for M in modules]
    m = len(modules)
    out = [[c for c in range(m) if homs[(b, c)].dim] for b in range(m)]
    comp = {}
    cols, covers = {}, [{} for _ in modules]
    for (a, b), H in homs.items():
        objs = res[a].frees[0].summands
        lifts = [_lift(res[b].frees[0], modules[b], res[b].tops, objs,
                       H.images(r), covers[b]) for r in H.reps]
        for c in out[b] if lifts else ():
            if homs[(a, c)].dim:
                comp[(a, b, c)] = yoneda_block(homs[(b, c)], lifts,
                                               homs[(a, c)], cols)
    homdim = {key: H.dim for key, H in homs.items()}
    return homs, FinCategory(cat.field, range(m), homdim, comp)


def yoneda_block(outer, lifts, target, cols):
    """The structure constants of outer o inner: [i][j] holds the
    coordinates in target of rep i of outer after the inner element whose
    lift through outer's term is lifts[j], that is rep i pulled along
    lifts[j] (FreeModule.pull), read by target.reduce.  The lifts are
    vectors of outer's term at the summands of target's.  cols, a dict
    shared by a caller's blocks, keeps each rep's Yoneda columns by
    object across every block that pulls it."""
    F = outer.resolution.frees[outer.n]
    objs = target.resolution.frees[target.n].summands
    block = []
    for i, r in enumerate(outer.reps):
        images, rcols = outer.images(r), cols.setdefault((outer, i), {})
        block.append([target.reduce([v for w in F.pull(outer.Y, images, objs,
                                                        L, rcols) for v in w])
                      for L in lifts])
    return block


def modules_isomorphic(M, N):
    """Exact isomorphism test for modules whose End is K, which is every
    module compared in scope.  A one-dimensional Hom(M, N) holds an
    isomorphism iff its basis element is onto at each y, i.e. its Yoneda
    columns there, which span its image, have rank dim N(y).  Isomorphic
    modules have Hom(M, N) = End M, so a larger Hom between two modules with
    End = K rules one out; when an End is not K the test refuses with
    NonSchurianVertex, naming the dimension vector and dim End."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.total_dim() == 0:
        return True
    H = ext_space(M, N, 0)
    if H.dim < 2:
        F, f = H.resolution.frees[0], M.cat.field
        return H.dim == 1 and all(rank(
            f, F.yoneda_columns(N, H.images(H.reps[0]), y), N.dims[y])
            == N.dims[y] for y in N.support)
    for X in (M, N):
        e = ext_space(X, X, 0).dim
        if e != 1:
            raise NonSchurianVertex(
                "End of a module with dimension vector %s has dimension %d"
                % (X.dim_vector(), e))
    return False


# ---------------------------------------------------------------------------
# transpose and AR translates


def transpose_module(M, n=1):
    """Tr(Omega^{n-1} M): cokernel of the dualized minimal presentation
    d_n: F_n -> F_{n-1} in M's minimal resolution; a module over the
    opposite category.  Its images regroup the same Yoneda blocks: at
    summand j, the image of generator i of F_op(terms[n-1]) in G =
    F_op(terms[n]) holds the block of d_n's image j at summand i.  At each
    y of G the image is spanned by Yoneda columns, and the quotient keeps
    the free columns of its RREF, on which G's action is read through
    quotient_coords."""
    op = M.cat.opposite()
    res = min_proj_resolution(M)
    if len(res.diffs) < n:
        return zero_module(op)
    f = op.field
    lo = res.frees[n - 1]
    blocks = [lo.yoneda_entries(a, w)
              for a, w in zip(res.frees[n].summands, res.diffs[n - 1])]
    images = [[v for col in blocks for v in col[i]]
              for i in range(len(lo.summands))]
    F, G = FreeModule(op, lo.summands), FreeModule(op, res.frees[n].summands)
    quot = {}
    for y in G.support:
        rows, piv = row_reduce(f, [[f(v) for v in c] for c in
                                   F.yoneda_columns(G, images, y)], G.dims[y])
        quot[y] = (rows, piv, [j for j in range(G.dims[y]) if j not in piv])
    dims = {y: len(q[2]) for y, q in quot.items()}
    live = [y for y in G.support if dims[y]]
    act = {}
    for x in live:
        units = identity_rows(f, G.dims[x])
        units = [units[j] for j in quot[x][2]]
        for y in live:
            if op.homdim[(x, y)]:
                act[(x, y)] = [Mat.from_cols(f, [
                    quotient_coords(f, *quot[y], G.apply_action(x, y, i, e))
                    for e in units]) for i in range(op.homdim[(x, y)])]
    return CatModule(op, dims, act)


def tau_inv(M):
    """Inverse AR translate TrD; zero on injectives."""
    return transpose_module(dual_module(M))


def tau_n(M, n):
    """Higher translate tau Omega^{n-1} = D Tr(Omega^{n-1} M); n >= 1."""
    if n < 1:
        raise InvalidParams("tau_n needs n >= 1, got %r" % (n,))
    return dual_module(transpose_module(M, n))


# ---------------------------------------------------------------------------
# chain-map lifting (for Yoneda composition of Ext with Hom)


def lift_chain_map(images, Y, res_src, res_dst, upto):
    """Lift a map X -> Y, given by its images in Y of the generators of
    F_0(src), to a chain map between res_src and res_dst, the resolutions
    of X and Y, as lifts[i]: F_i(src) -> F_i(dst), i = 0..upto, each the
    images in F_i(dst) of the generators of F_i(src) (None where res_dst
    has ended, a zero lift).  Each degree is one _lift: the images through
    the cover F_0(dst) -> Y at degree 0, and after that the images of the
    differential of res_src, carried by the previous lift
    (FreeModule.pull), through the differential of res_dst.  Any two lifts
    differ by a homotopy, which dies in Ext."""
    lifts = []
    prev = None  # the images of the previous lift
    for m in range(upto + 1):
        if m > res_src.length:
            break
        if m > res_dst.length or (m and prev is None):
            # target resolution ended here or below; the lift is zero
            lifts.append(None)
            prev = None
            continue
        objs = res_src.frees[m].summands
        if m == 0:
            below, post, targets = Y, res_dst.tops, images
        else:
            below, post = res_dst.frees[m - 1], res_dst.diffs[m - 1]
            targets = res_src.frees[m - 1].pull(below, prev, objs,
                                                res_src.diffs[m - 1], {})
        prev = _lift(res_dst.frees[m], below, post, objs, targets, {})
        lifts.append(prev)
    return lifts


def _lift(F, below, post, objs, targets, cols):
    """Lift targets, vectors of below at objs, through the map F -> below
    that sends F's generators to post: the vectors of F at objs that it
    sends to targets, each solved against F's Yoneda columns at its
    object only, built once per object into cols, a dict that lifts
    through the same map share."""
    field = F.cat.field
    images = []
    for a, t in zip(objs, targets):
        if a not in cols:
            cols[a] = [[field(v) for v in c]
                       for c in F.yoneda_columns(below, post, a)]
        images.append(solve(field, list(zip(*cols[a], map(field, t))),
                            len(cols[a])))
    return images
