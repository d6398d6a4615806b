"""Reference constructions that only the tests use, as oracles: the
exhaustive axiom checks of a category (check_associativity,
check_identities, with basis_vec and identity_vector), of a module
(check_module) and of an AR quiver's mesh (check_mesh, with arrows_into
and arrows_out_of), a syzygy as a module of its own (kernel, Submodule),
a cokernel as a module of its own (cokernel, Quotient), the dense
realization of projectives, of free modules and of the maps between them
(dense_projective, dense_free, yoneda_map, realize, cover), the
differentials of a resolution as maps (differentials), the Yoneda
entries of a map of free modules (entries, from_entries) and its dual
over the opposite category (dual_map), the minimality and complex checks
of a resolution, direct sums with their inclusions and projections,
naturality and flattening of module maps, Hom by solving every
naturality square at once (hom_by_naturality) and the identity map of a
module (identity_map), the top of a module from its dense radical
(dense_top), the top of a submodule of a free module by one RREF of
every radical image (full_submodule_top, the reference for the
early-stopping scan), module maps with one matrix per object (DenseMap),
solved from a map's images (dense_map), the Hom basis as images and as
DenseMaps (hom_images, hom_maps), the arithmetic of module maps
(compose_maps, add_maps, sub_maps, scale_map, map_is_zero), an Ext
cocycle postcomposed with a dense map (compose_hom_with_ext), the
block-diagonal matrix, the matrix inverse and the invertibility test
(is_invertible), and the hom dimensions of a glued category by
copy.  The program's Mat only carries a module's action and eliminates
on row lists (linalg), so the matrix arithmetic of the tests is here,
over matmul and the linalg functions: mat_add, mat_scale, is_zero, col,
identity_mat, solve_mat (linalg.solve column by column), the readers of
a module's action that give a zero matrix where it stores none (action,
act_elem), and FreeModule.hom_into as a Mat (hom_matrix).  The passes
over a category that scan every object pair are kept here as references
for the ones that walk its hom support: the Nakayama pairing
(nakayama_pairing), the directedness check through the quiver of its hom
support (refuse_cycles, hom_support), the Gabriel quiver
(dense_gabriel_arrows) and the path category of a bound quiver
(dense_category_from_presentation).  So are the simple modules, pdim,
the AR translate tau, the composition of two morphisms of a category
(compose) and of a glued category (yoneda_compose), the product of two
maps of free modules, entry by entry in Yoneda coordinates
(compose_catmats), Kahn's algorithm on a Quiver (topological_order) and
the number of indecomposables of a Dynkin quiver (aus_rank), which only
the tests use.

The program reads every representable in place from the structure
constants, keeps a free module's action sparse and a map between free
modules F -> G, and a map of modules M -> N, as the images of the
generators of F or of M's cover, applied only by its Yoneda columns, and
reads Hom off a module's resolution; the dense forms, the compositions
and the naturality solver here are what those are checked against.
Here a map between free modules is the triple (F, G, images).  An
opposite category shares its category's structure constants and reads
them transposed; every reference here reads a block through block, which
transposes on read, independently of the program's readers."""

from itertools import product

from ausglue.errors import (AusglueError, InfiniteDimensional,
                            InvalidParams, NotDirected)
from ausglue.fincat import CatModule, FinCategory, FreeModule
from ausglue.homology import ext_space, min_proj_resolution, tau_n
from ausglue.knitting import knit
from ausglue.linalg import (Mat, NoSolution, echelon_columns, identity_rows,
                            kernel_basis, kernel_rows, quotient_coords, rank,
                            row_reduce, row_space_basis, solve)
from ausglue.quiver import Quiver


def matmul(a, b):
    """The product a b of two Mats over one field, entry by entry: the one
    matrix product of the tests."""
    if a.field != b.field:
        raise ValueError("field mismatch: %r vs %r" % (a.field, b.field))
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch: %dx%d * %dx%d"
                         % (a.nrows, a.ncols, b.nrows, b.ncols))
    cols = b.transpose().rows
    return Mat(a.field, [[sum(u * v for u, v in zip(r, c)) for c in cols]
                         for r in a.rows], a.nrows, b.ncols)


def mat_add(a, b):
    """a + b, entry by entry."""
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return Mat(a.field, [[u + v for u, v in zip(r, s)]
                         for r, s in zip(a.rows, b.rows)], a.nrows, a.ncols)


def mat_scale(m, c):
    """c m, entry by entry."""
    c = m.field(c)
    return Mat(m.field, [[c * v for v in r] for r in m.rows], m.nrows, m.ncols)


def is_zero(m):
    return not any(v for r in m.rows for v in r)


def col(m, j):
    """Column j of a Mat, as a list."""
    return [r[j] for r in m.rows]


def identity_mat(field, n):
    """The n x n identity Mat."""
    return Mat._wrap(field, identity_rows(field, n), n, n)


def solve_mat(a, b):
    """The X with a X = b, 0 at every free variable, by linalg.solve on
    each column of b; raises NoSolution."""
    if b.nrows != a.nrows:
        raise ValueError("rhs row count mismatch")
    cols = [solve(a.field, [r + [v] for r, v in zip(a.rows, col(b, j))],
                  a.ncols) for j in range(b.ncols)]
    return Mat._wrap(a.field, [list(r) for r in zip(*cols)] if cols else
                     [[] for _ in range(a.ncols)], a.ncols, b.ncols)


def action(M, x, y, i):
    """The matrix of the i-th basis element of hom(x, y) on the CatModule
    M; a zero matrix of the right shape where M stores no action."""
    mats = M.act.get((x, y))
    if mats is None:
        return Mat.zero(M.cat.field, M.dims[y], M.dims[x])
    return mats[i]


def act_elem(M, x, y, coeffs):
    """The action matrix on M of the hom(x, y) element with the given
    coordinates."""
    out = Mat.zero(M.cat.field, M.dims[y], M.dims[x])
    for i, c in enumerate(coeffs):
        if c != M.cat.field.zero:
            out = mat_add(out, mat_scale(action(M, x, y, i), c))
    return out


def hom_matrix(F, N, objs, images):
    """FreeModule.hom_into as a Mat: its rows, one column per entry of the
    N blocks of F's summands."""
    return Mat(F.cat.field, F.hom_into(N, objs, images),
               sum(N.dims[a] for a in objs), sum(N.dims[b] for b in F.summands))


def block(cat, x, y, z):
    """The structure constants of cat at (x, y, z), block[i][j] the
    coordinates of g_i o f_j, or None where comp has no key: an opposite
    category shares comp with its category, and its block is read from
    comp[(z, y, x)] with the two indices swapped."""
    if not cat.transposed:
        return cat.comp.get((x, y, z))
    t = cat.comp.get((z, y, x))
    return None if t is None else [list(row) for row in zip(*t)]


def compose(cat, x, y, z, g, f):
    """Compose coefficient vectors: g over hom(y,z), f over hom(x,y);
    returns coefficient vector over hom(x,z)."""
    n = cat.homdim[(x, z)]
    out = [cat.field.zero] * n
    zero = cat.field.zero
    t = block(cat, x, y, z)
    if t is None:
        return out
    for i, gc in enumerate(g):
        if gc == zero:
            continue
        for j, fc in enumerate(f):
            if fc == zero:
                continue
            sc = gc * fc
            row = t[i][j]
            for k in range(n):
                out[k] = out[k] + sc * row[k]
    if cat.field.p is not None:
        out = [v % cat.field.p for v in out]
    return out


def entries(u):
    """The Yoneda entries of the map u = (F, G, images): entries[i][j], the
    block at G's summand i of the image of F's generator j, a coefficient
    vector over hom(G.summands[i], F.summands[j])."""
    F, G, images = u
    cols = [G.yoneda_entries(a, w) for a, w in zip(F.summands, images)]
    return [[col[i] for col in cols] for i in range(len(G.summands))]


def from_entries(F, G, ents):
    """The map (F, G, images) with the given Yoneda entries: image j joins
    the entries of column j, one block per summand of G."""
    return F, G, [[v for row in ents for v in row[j]]
                  for j in range(len(F.summands))]


def compose_catmats(v, u):
    """The map v o u, for u: F -> G and v: G -> H.  Entry (k, j) is the
    sum over i of u's (i, j) entry composed with v's (k, i) entry,
    u_ij o v_ki in hom(H_k, F_j): the composite P_a -> P_b -> P_c sends
    1_a to u in hom(b, a), and then to u o v in hom(c, a)."""
    F, G, H = u[0], u[1], v[1]
    assert v[0].summands == G.summands
    c = F.cat
    p = c.field.p
    eu, ev = entries(u), entries(v)
    out = []
    for k, z in enumerate(H.summands):
        row = []
        for j, x in enumerate(F.summands):
            acc = [c.field.zero] * c.homdim[(z, x)]
            for i, y in enumerate(G.summands):
                if c.homdim[(z, y)] and c.homdim[(y, x)]:
                    uv = compose(c, z, y, x, eu[i][j], ev[k][i])
                    acc = [a + b for a, b in zip(acc, uv)]
            row.append(acc if p is None else [a % p for a in acc])
        out.append(row)
    return from_entries(F, H, out)


def dual_map(u):
    """The map u = (F, G, images) read over the opposite category,
    Hom(-, C): F_op(G.summands) -> F_op(F.summands), its entries
    transposed."""
    F, G, _ = u
    op = F.cat.opposite()
    ents = entries(u)
    return from_entries(FreeModule(op, G.summands), FreeModule(op, F.summands),
                        [list(col) for col in zip(*ents)] if ents else
                        [[] for _ in F.summands])


def basis_vec(cat, x, y, i):
    v = [cat.field.zero] * cat.homdim[(x, y)]
    v[i] = cat.field.one
    return v


def identity_vector(cat, x):
    return [cat.field.one]


def check_associativity(cat):
    """Exhaustive check of (h o g) o f = h o (g o f) on basis triples."""
    for w in cat.objects:
        for x in cat.objects:
            if cat.homdim[(w, x)] == 0:
                continue
            for y in cat.objects:
                if cat.homdim[(x, y)] == 0:
                    continue
                for z in cat.objects:
                    if cat.homdim[(y, z)] == 0:
                        continue
                    for i in range(cat.homdim[(y, z)]):
                        h = basis_vec(cat, y, z, i)
                        for j in range(cat.homdim[(x, y)]):
                            g = basis_vec(cat, x, y, j)
                            gf = compose(cat, x, y, z, h, g)
                            for k in range(cat.homdim[(w, x)]):
                                f = basis_vec(cat, w, x, k)
                                left = compose(cat, w, x, z, gf, f)
                                right = compose(
                                    cat, w, y, z, h,
                                    compose(cat, w, x, y, g, f))
                                if left != right:
                                    return False, (w, x, y, z, i, j, k)
    return True, None


def check_identities(cat):
    for x in cat.objects:
        for y in cat.objects:
            d = cat.homdim[(x, y)]
            for j in range(d):
                f = basis_vec(cat, x, y, j)
                if compose(cat, x, y, y, identity_vector(cat, y), f) != f:
                    return False, (x, y, j, "left")
                if compose(cat, x, x, y, f, identity_vector(cat, x)) != f:
                    return False, (x, y, j, "right")
    return True, None


def check_module(M):
    """Verify identity and composition compatibility of the action."""
    c = M.cat
    for x in c.objects:
        if M.dims[x] and not action(M, x, x, 0) == identity_mat(c.field,
                                                               M.dims[x]):
            return False
    for x in c.objects:
        for y in c.objects:
            if c.homdim[(x, y)] == 0:
                continue
            for z in c.objects:
                if c.homdim[(y, z)] == 0:
                    continue
                for i in range(c.homdim[(y, z)]):
                    g = basis_vec(c, y, z, i)
                    for j in range(c.homdim[(x, y)]):
                        f = basis_vec(c, x, y, j)
                        gf = compose(c, x, y, z, g, f)
                        if act_elem(M, x, z, gf) != \
                                matmul(action(M, y, z, i), action(M, x, y, j)):
                            return False
    return True


def arrows_into(ar, i):
    return sorted((s, m) for s, d, m in ar.arrows if d == i)


def arrows_out_of(ar, i):
    return sorted((d, m) for s, d, m in ar.arrows if s == i)


def check_mesh(ar):
    """At every non-projective vertex Z of the ARQuiver ar the multiset of
    arrow sources into Z must match the multiset of arrow targets out of
    tau(Z)."""
    for z, tz in ar.tau.items():
        if arrows_into(ar, z) != arrows_out_of(ar, tz):
            return False, z
    return True, None


class DenseMap:
    """A natural transformation between CatModules over the same category,
    with one matrix per object in mats: the dense form that the program's
    module maps, kept as generator images, are checked against."""

    def __init__(self, src, dst, mats):
        self.src = src
        self.dst = dst
        self.mats = mats


def dense_map(M, N, images):
    """The DenseMap of the map M -> N that sends the generators of F_0 in
    M's resolution to images in N.  Its block at y is the unique h_y with
    h_y C_y = D_y, for C_y and D_y the Yoneda columns at y of the cover
    F_0 -> M and of the images: C_y is onto, so one solve of C_y^T gives
    h_y."""
    f = M.cat.field
    res = min_proj_resolution(M)
    F = res.frees[0]
    mats = {}
    for y in M.cat.objects:
        m, n = M.dims[y], N.dims[y]
        if m and n:
            C = Mat.from_cols(f, F.yoneda_columns(M, res.tops, y))
            D = Mat.from_cols(f, F.yoneda_columns(N, images, y))
            mats[y] = solve_mat(C.transpose(), D.transpose()).transpose()
        else:
            mats[y] = Mat.zero(f, n, m)
    return DenseMap(M, N, mats)


def hom_images(M, N):
    """The images of each basis element of Hom(M, N) = ext_space(M, N, 0)."""
    H = ext_space(M, N, 0)
    return [H.images(r) for r in H.reps]


def hom_maps(M, N):
    """The DenseMaps of the basis of Hom(M, N), each solved from its images
    (dense_map)."""
    return [dense_map(M, N, images) for images in hom_images(M, N)]


def is_invertible(m):
    return m.nrows == m.ncols and rank(m.field, m.rows, m.ncols) == m.nrows


def compose_hom_with_ext(g, ext, vec):
    """Postcompose: g, a DenseMap Y -> Z, after vec, a cocycle for
    Ext^n(X, Y); the cocycle vector of g o vec in Ext^n(X, Z)
    coordinates, g's block at each summand of F_n applied to the image of
    that summand's generator."""
    return [v for b, w in zip(ext.resolution.frees[ext.n].summands,
                              ext.images(vec))
            for v in g.mats[b].apply(w)]


def compose_maps(phi, other):
    """phi o other."""
    b = other.mats
    return DenseMap(other.src, phi.dst,
                     {x: matmul(m, b[x]) for x, m in phi.mats.items()})


def add_maps(phi, other):
    b = other.mats
    return DenseMap(phi.src, phi.dst,
                    {x: mat_add(m, b[x]) for x, m in phi.mats.items()})


def scale_map(phi, c):
    return DenseMap(phi.src, phi.dst,
                    {x: mat_scale(m, c) for x, m in phi.mats.items()})


def sub_maps(phi, other):
    return add_maps(phi, scale_map(other, phi.src.cat.field(-1)))


def map_is_zero(phi):
    return all(is_zero(m) for m in phi.mats.values())


def block_diag(field, mats):
    nr = sum(m.nrows for m in mats)
    nc = sum(m.ncols for m in mats)
    out = Mat.zero(field, nr, nc)
    i0 = j0 = 0
    for m in mats:
        for i in range(m.nrows):
            out.rows[i0 + i][j0:j0 + m.ncols] = m.rows[i][:]
        i0 += m.nrows
        j0 += m.ncols
    return out


def inverse(m):
    if m.nrows != m.ncols:
        raise ValueError("not square")
    try:
        x = solve_mat(m, identity_mat(m.field, m.nrows))
    except NoSolution:
        raise ValueError("singular matrix")
    return x


class Submodule:
    """An action-stable subspace of a CatModule, spanned by the rows
    basis[x], with its own module structure."""

    def __init__(self, parent, basis_rows):
        c = parent.cat
        f = c.field
        self.basis = {x: basis_rows.get(x, []) for x in c.objects}
        dims = {x: len(self.basis[x]) for x in c.objects}
        act = {}
        for x in c.objects:
            if dims[x] == 0:
                continue
            Bx = Mat.from_cols(f, self.basis[x])
            for y in c.objects:
                d = c.homdim[(x, y)]
                if d == 0 or parent.dims[y] == 0:
                    continue
                imgs = [matmul(action(parent, x, y, i), Bx) for i in range(d)]
                if dims[y] == 0:
                    if not all(is_zero(img) for img in imgs):
                        raise ValueError("subspace not action-stable")
                    continue
                By = Mat.from_cols(f, self.basis[y])
                act[(x, y)] = [solve_mat(By, img) for img in imgs]
        self.module = CatModule(c, dims, act)


def kernel(phi):
    """Kernel of a DenseMap, as a Submodule of phi.src."""
    return Submodule(phi.src, {x: kernel_rows(m.field, m.rows, m.ncols)
                               for x, m in phi.mats.items()})


class Quotient:
    """Quotient of a CatModule by an action-stable subspace."""

    def __init__(self, parent, sub_rows):
        c = parent.cat
        f = c.field
        dims = {}
        proj = {}
        sect = {}
        for x in c.objects:
            rows = row_space_basis(f, sub_rows.get(x, []), parent.dims[x])
            piv, free = echelon_columns(f, rows, parent.dims[x])
            dims[x] = len(free)
            unit = identity_rows(f, parent.dims[x])
            proj[x] = Mat.from_cols(f, [quotient_coords(f, rows, piv, free, e)
                                        for e in unit])
            sect[x] = Mat(f, [[e[j] for j in free] for e in unit],
                          parent.dims[x], dims[x])
        act = {}
        for x in c.objects:
            for y in c.objects:
                d = c.homdim[(x, y)]
                if d == 0 or dims[x] == 0 or dims[y] == 0:
                    continue
                act[(x, y)] = [matmul(matmul(proj[y], action(parent, x, y, i)),
                                      sect[x])
                               for i in range(d)]
        self.module = CatModule(c, dims, act)


def cokernel(phi):
    """Cokernel of a DenseMap, as a Quotient of phi.dst by the span of
    the columns of each block."""
    return Quotient(phi.dst, {x: phi.mats[x].transpose().rows
                              for x in phi.src.cat.objects})


def dense_projective(cat, x):
    """P_x built densely: column j of the matrix of g_i in hom(y, z) is
    copied out of the structure constants of g_i o f_j, a zero block where
    comp has no key."""
    f = cat.field
    dims = {y: cat.homdim[(x, y)] for y in cat.objects}
    M = CatModule(cat, dims, {})
    for y in M.support:
        for z in M.support:
            d = cat.homdim[(y, z)]
            if d:
                t = block(cat, x, y, z) or \
                    [[[f.zero] * dims[z]] * dims[y]] * d
                M.act[(y, z)] = [
                    Mat.from_cols(f, [t[i][j] for j in range(dims[y])])
                    for i in range(d)]
    return M


def dense_top(M):
    """The top generators of M, read from the dense radical: every column
    of every action(M, x, y, i), x != y, spans rad M(y), and the unit vectors
    at the free columns of its RREF lift a basis of M(y) / rad M(y); as
    (object, vector) pairs in object order."""
    c = M.cat
    f = c.field
    gens = []
    for y in c.objects:
        vecs = [col(action(M, x, y, i), j) for x in c.objects if x != y
                for i in range(c.homdim[(x, y)]) for j in range(M.dims[x])]
        rad = row_space_basis(f, vecs, M.dims[y])
        for j in echelon_columns(f, rad, M.dims[y])[1]:
            v = [f.zero] * M.dims[y]
            v[j] = f.one
            gens.append((y, v))
    return gens


def full_submodule_top(F, rows):
    """fincat.submodule_top by the full scan: every image hom(x, y).K(x),
    x != y, taken in K's coordinates (the pivot columns of rows[y]) and
    collected, then one RREF of them all, whose free columns pick the rows
    of K(y) that lift a basis of K / rad K; as (y, vector of F(y)) pairs
    in the order of rows."""
    c = F.cat
    f = c.field
    live = [y for y, ky in rows.items() if ky]
    gens = []
    for y in live:
        ky = rows[y]
        k = len(ky)
        piv = None if k == F.dims[y] else \
            echelon_columns(f, ky, F.dims[y])[0]
        vecs = []
        for x in live:
            d = c.homdim[(x, y)]
            if not d or x == y:
                continue
            for i in range(d):
                for r in rows[x]:
                    w = F.apply_action(x, y, i, r)
                    if piv is not None:
                        w = [w[j] for j in piv]
                    if any(w):
                        vecs.append(w)
        rad = row_reduce(f, vecs, k)[1]
        gens.extend((y, ky[j]) for j in range(k) if j not in rad)
    return gens


def dense_free(F):
    """The FreeModule F as a CatModule of its own, with the block-diagonal
    action of its summands' projectives, built by dense_projective."""
    c = F.cat
    projs = [dense_projective(c, s) for s in F.summands]
    act = {}
    for y in F.support:
        for z in F.support:
            d = c.homdim[(y, z)]
            if d:
                act[(y, z)] = [block_diag(c.field, [action(p, y, z, i)
                                                    for p in projs])
                               for i in range(d)]
    return CatModule(c, F.dims, act)


def yoneda_map(F, N, elements):
    """The DenseMap dense_free(F) -> N sending the generator of summand j
    of the FreeModule F to elements[j], a vector of N(summands[j]), with
    a block of the right shape at every object."""
    f = F.cat.field
    mats = {}
    for y in F.cat.objects:
        cols = F.yoneda_columns(N, elements, y)
        mats[y] = Mat.from_cols(f, cols) if cols else \
            Mat.zero(f, N.dims[y], 0)
    return DenseMap(dense_free(F), N, mats)


def realize(u):
    """The map u = (F, G, images) as a DenseMap between dense free
    modules."""
    F, G, images = u
    return yoneda_map(F, dense_free(G), images)


def differentials(res):
    """The differentials of res as maps (F_{i+1}, F_i, images)."""
    return [(res.frees[i + 1], res.frees[i], d)
            for i, d in enumerate(res.diffs)]


def cover(res, M):
    """The cover F_0 -> M of M's resolution res, from its tops."""
    return yoneda_map(res.frees[0], M, res.tops)


def syzygy(M):
    """Omega(M) as a module of its own: the kernel of the projective
    cover."""
    return kernel(cover(min_proj_resolution(M), M)).module


def is_minimal(res):
    """Every differential image must lie in the radical: in Yoneda
    coordinates, no entry may contain an identity component."""
    for d in differentials(res):
        F, G, _ = d
        zero, ents = F.cat.field.zero, entries(d)
        for i, b in enumerate(G.summands):
            for j, a in enumerate(F.summands):
                if b == a and any(v != zero for v in ents[i][j]):
                    return False
    return True


def is_complex(M):
    """Whether M's resolution, with its cover, composes to zero, checked
    on the dense realizations."""
    res = min_proj_resolution(M)
    maps = [cover(res, M)] + [realize(d) for d in differentials(res)]
    return all(map_is_zero(compose_maps(hi, lo))
               for hi, lo in zip(maps, maps[1:]))


def direct_sum(cat, modules):
    """Direct sum with inclusion and projection maps."""
    f = cat.field
    dims = {x: sum(m.dims[x] for m in modules) for x in cat.objects}
    act = {}
    for x in cat.objects:
        for y in cat.objects:
            d = cat.homdim[(x, y)]
            if d == 0 or dims[x] == 0 or dims[y] == 0:
                continue
            act[(x, y)] = [block_diag(f, [action(m, x, y, i) for m in modules])
                           for i in range(d)]
    S = CatModule(cat, dims, act)
    incls, projs = [], []
    off = {x: 0 for x in cat.objects}
    for m in modules:
        inc, prj = {}, {}
        for x in cat.objects:
            mi = Mat.zero(f, dims[x], m.dims[x])
            mp = Mat.zero(f, m.dims[x], dims[x])
            for i in range(m.dims[x]):
                mi.rows[off[x] + i][i] = f.one
                mp.rows[i][off[x] + i] = f.one
            inc[x] = mi
            prj[x] = mp
        incls.append(DenseMap(m, S, inc))
        projs.append(DenseMap(S, m, prj))
        for x in cat.objects:
            off[x] += m.dims[x]
    return S, incls, projs


def is_natural(phi):
    """Whether the blocks of the DenseMap phi commute with every action."""
    c = phi.src.cat
    for x in c.objects:
        for y in c.objects:
            for i in range(c.homdim[(x, y)]):
                lhs = matmul(action(phi.dst, x, y, i), phi.mats[x])
                rhs = matmul(phi.mats[y], action(phi.src, x, y, i))
                if lhs != rhs:
                    return False
    return True


def flatten(phi):
    """All matrix entries of the DenseMap phi as one row vector (fixed
    object order)."""
    out = []
    for x in phi.src.cat.objects:
        for r in phi.mats[x].rows:
            out.extend(r)
    return out


def hom_by_naturality(M, N):
    """Exact basis of natural transformations M -> N, by solving all
    naturality squares simultaneously."""
    c = M.cat
    f = c.field
    objs = [x for x in c.objects]
    sizes = {x: N.dims[x] * M.dims[x] for x in objs}
    total = sum(sizes.values())
    if total == 0:
        return []
    offs = {}
    o = 0
    for x in objs:
        offs[x] = o
        o += sizes[x]

    rows = []
    for x in [x for x in objs if M.dims[x]]:
        for y in [y for y in objs if N.dims[y]]:
            for i in range(c.homdim[(x, y)]):
                A = action(N, x, y, i)   # N(x) -> N(y)
                B = action(M, x, y, i)   # M(x) -> M(y)
                # constraint: A * T_x - T_y * B = 0, entries (r, s) with
                # r over N.dims[y], s over M.dims[x]
                for r in range(N.dims[y]):
                    for s in range(M.dims[x]):
                        row = [f.zero] * total
                        for t in range(N.dims[x]):
                            # (A*T_x)[r,s] = sum_t A[r,t] T_x[t,s]
                            row[offs[x] + t * M.dims[x] + s] = A.rows[r][t]
                        for t in range(M.dims[y]):
                            v = row[offs[y] + r * M.dims[y] + t]
                            row[offs[y] + r * M.dims[y] + t] = v - B.rows[t][s]
                        if f.p is not None:
                            row = [v % f.p for v in row]
                        rows.append(row)
    out = []
    for v in kernel_basis(f, rows, total):
        mats = {}
        for x in objs:
            m = Mat.zero(f, N.dims[x], M.dims[x])
            for r in range(N.dims[x]):
                for s in range(M.dims[x]):
                    m.rows[r][s] = v[offs[x] + r * M.dims[x] + s]
            mats[x] = m
        out.append(DenseMap(M, N, mats))
    return out


def identity_map(M):
    f = M.cat.field
    return DenseMap(M, M, {x: identity_mat(f, M.dims[x])
                           for x in M.cat.objects})


def hom_dim(glued, a, i, b, j):
    """dim hom(X_a[i], X_b[j]) in the glued category."""
    return glued.cat.homdim[((glued.names[a], i), (glued.names[b], j))]


def simple_module(cat, x):
    f = cat.field
    return CatModule(cat, {x: 1}, {(x, x): [identity_mat(f, 1)]})


def pdim(M):
    if M.total_dim() == 0:
        return -1
    return min_proj_resolution(M).length


def tau(M):
    """AR translate DTr; zero on projectives."""
    return tau_n(M, 1)


class NotComposable(AusglueError):
    """Two morphisms given to yoneda_compose that do not compose."""


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
    return fs, gd, compose(cat, fs, fd, gd, gc, fc)


def aus_rank(spec, field):
    """Aus(Q): the number of indecomposables of the path algebra of the
    Dynkin quiver, i.e. the rank of its Auslander algebra."""
    from ausglue.quiver import hereditary_presentation
    from ausglue.pathcat import category_from_presentation
    cat = category_from_presentation(hereditary_presentation(spec), field)
    ar = knit(cat)
    assert ar.count == spec.positive_root_count()
    return ar.count


def nakayama_pairing(cat):
    """{x: y} where P_x = I_y.  By Yoneda Hom(P_x, I_y) = D hom(x, y), so
    P_x = I_y iff dim hom(x, z) = dim hom(z, y) for all z (at z = y, so
    hom(x, y) = K) and composition hom(z, y) x hom(x, z) -> hom(x, y) is a
    perfect pairing at each z in out_support[x]."""
    objs, hd = cat.objects, cat.homdim
    cols = {}  # the y by their column (dim hom(z, y))_z
    for y in objs:
        cols.setdefault(tuple(hd[(z, y)] for z in objs), []).append(y)
    return {x: y for x in objs
            for y in cols.get(tuple(hd[(x, z)] for z in objs), ())
            if all(block(cat, x, z, y) is not None and is_invertible(Mat(
                cat.field, [[c[0] for c in r] for r in block(cat, x, z, y)]))
                for z in cat.out_support[x])}


def refuse_cycles(cat):
    """NotDirected unless the hom support of cat has no cycle.  The message
    names one: dropping, one at a time, each object that some cycle avoids
    leaves a cycle without chords, in which each object has one successor."""
    cyc = list(cat.objects)
    if topological_order(hom_support(cat, cyc)) is not None:
        return
    for x in cat.objects:
        rest = [y for y in cyc if y != x]
        if topological_order(hom_support(cat, rest)) is None:
            cyc = rest
    path = cyc[:1]
    while len(path) < len(cyc):
        path.append(next(y for y in cyc
                         if y != path[-1] and cat.homdim[(path[-1], y)]))
    raise NotDirected("not directed: hom support has the cycle " +
                      " -> ".join(map(str, path + path[:1])))


def topological_order(quiver):
    """Vertices in a source-first order; None if the quiver has an
    oriented cycle.  Ties broken by position in the vertex list."""
    indeg = {v: 0 for v in quiver.vertices}
    for _, s, t in quiver.arrows:
        indeg[t] += 1
    order = []
    ready = [v for v in quiver.vertices if indeg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        for aid, s, t in quiver.arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        ready.sort(key=quiver.vertices.index)
    if len(order) != len(quiver.vertices):
        return None
    return order


def hom_support(cat, objs):
    """The quiver on objs with an arrow x -> y where hom(x, y) != 0, x != y."""
    return Quiver(objs, [(i, x, y) for i, (x, y) in
                         enumerate(product(objs, objs))
                         if x != y and cat.homdim[(x, y)]])


def dense_gabriel_arrows(cat):
    """The Gabriel quiver over every object pair: dim hom(x, y) less the
    rank of the composites x -> z -> y over every z other than x and y."""
    arrows = {}
    for x in cat.objects:
        for y in cat.objects:
            if x == y or not cat.homdim[(x, y)]:
                continue
            vecs = [v for z in cat.objects if z not in (x, y)
                    for row in block(cat, x, z, y) or () for v in row]
            m = cat.homdim[(x, y)] - len(
                row_space_basis(cat.field, vecs, cat.homdim[(x, y)]))
            if m:
                arrows[(x, y)] = m
    return arrows


def dense_category_from_presentation(pres, field):
    """category_from_presentation by scanning every arrow for each path,
    every vertex pair for the ideal and every object triple for
    composition."""
    q = pres.quiver
    if not q.is_acyclic:
        if not pres.relations:
            raise InfiniteDimensional("oriented cycle without relations")
        raise InvalidParams("cyclic quivers are out of scope: "
                            "representation-directed algebras are acyclic")

    # enumerate paths by length, grouped by (source, target)
    paths = {}  # (x, y) -> ordered path list
    for x in q.vertices:
        paths[(x, x)] = [()]
        for y in q.vertices:
            paths.setdefault((x, y), [])
    cur = {x: [((), x)] for x in q.vertices}  # by source: (path, endpoint)
    all_paths = {x: [((), x)] for x in q.vertices}
    while any(cur.values()):
        new = {x: [] for x in q.vertices}
        for x in q.vertices:
            for path, end in cur[x]:
                for aid, s, t in q.arrows:
                    if s == end:
                        np = path + (aid,)
                        new[x].append((np, t))
                        paths[(x, t)].append(np)
        for x in q.vertices:
            all_paths[x].extend(new[x])
        cur = new

    index = {}  # (x, y) -> {path: position}
    for key, plist in paths.items():
        index[key] = {p: i for i, p in enumerate(plist)}

    # two-sided ideal: p . r . q for every relation r and all paths p, q
    ideal_rows = {key: [] for key in paths}
    for rel in pres.relations:
        u = q.path_source(rel[0][1])
        v = q.path_target(rel[0][1])
        for x in q.vertices:
            for p, pend in all_paths[x]:
                if pend != u:
                    continue
                for qq, qend in all_paths[v]:
                    y = qend
                    vec = [0] * len(paths[(x, y)])
                    ok = True
                    for coeff, rp in rel:
                        full = p + rp + qq
                        pos = index[(x, y)].get(full)
                        if pos is None:
                            ok = False
                            break
                        vec[pos] += coeff
                    if ok:
                        ideal_rows[(x, y)].append([field(c) for c in vec])

    # reduce: basis = paths at non-pivot positions of the ideal's RREF
    basis = {}
    reducer = {}
    for key, plist in paths.items():
        rows = row_space_basis(field, ideal_rows[key], len(plist))
        piv, free = echelon_columns(field, rows, len(plist))
        basis[key] = [plist[j] for j in free]
        reducer[key] = (rows, piv, free)

    objects = list(q.vertices)
    homdim = {(x, y): len(basis[(x, y)]) for x in objects for y in objects}
    comp = {}
    for x in objects:
        for y in objects:
            if homdim[(x, y)] == 0:
                continue
            for z in objects:
                if homdim[(y, z)] == 0 or homdim[(x, z)] == 0:
                    continue
                rows, piv, free = reducer[(x, z)]
                at = index[(x, z)]
                t = []
                for g in basis[(y, z)]:
                    row = []
                    for f in basis[(x, y)]:
                        v = [field.zero] * len(at)
                        v[at[f + g]] = field.one
                        row.append(quotient_coords(field, rows, piv, free, v))
                    t.append(row)
                comp[(x, y, z)] = t
    return FinCategory(field, objects, homdim, comp)
