"""Finite K-categories with explicit hom bases, and modules over them.

A FinCategory is the uniform carrier for every algebra in the package:
path categories of bound quivers, the glued categories, and their
endomorphism algebras.  Objects are labels; hom(x,y) is a vector space
with a fixed ordered basis; composition is stored as structure constants.

A CatModule is a covariant functor to vector spaces: a dimension per
object and a matrix per hom-basis element.  Matrices act on column
vectors, so the action of f: x -> y has shape (dim M(y), dim M(x)).

All categories in scope are schurian: hom(x,x) is spanned by the
identity.  This is asserted at construction and makes the radical simply
the off-diagonal hom spaces.
"""

import random as _random

from .linalg import Mat, row_space_basis, echelon_columns, quotient_coords
from .errors import NonSchurianVertex, DecompositionFailed


class FinCategory:
    """objects: label list; homdim[(x,y)]: basis size; comp[(x,y,z)]:
    structure constants, comp[(x,y,z)][i][j] = coordinates in hom(x,z) of
    (g_i o f_j) for g_i in hom(y,z), f_j in hom(x,y)."""

    def __init__(self, field, objects, homdim, comp):
        self.field = field
        self.objects = list(objects)
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.homdim = dict(homdim)
        for x in self.objects:
            for y in self.objects:
                self.homdim.setdefault((x, y), 0)
        self.comp = comp
        self._op = None
        for x in self.objects:
            if self.homdim[(x, x)] != 1:
                raise NonSchurianVertex("hom(%r,%r) has dimension %d"
                                        % (x, x, self.homdim[(x, x)]))

    # -- basic structure ----------------------------------------------

    def dim(self, x, y):
        return self.homdim[(x, y)]

    def total_dimension(self):
        return sum(self.homdim.values())

    def compose_basis(self, x, y, z, i, j):
        """Coordinates in hom(x,z) of g_i o f_j, g_i in hom(y,z) basis,
        f_j in hom(x,y) basis."""
        t = self.comp.get((x, y, z))
        if t is None:
            return [self.field.zero] * self.homdim[(x, z)]
        return t[i][j]

    def compose(self, x, y, z, g, f):
        """Compose coefficient vectors: g over hom(y,z), f over hom(x,y);
        returns coefficient vector over hom(x,z)."""
        n = self.homdim[(x, z)]
        out = [self.field.zero] * n
        zero = self.field.zero
        for i, gc in enumerate(g):
            if gc == zero:
                continue
            for j, fc in enumerate(f):
                if fc == zero:
                    continue
                sc = gc * fc
                row = self.compose_basis(x, y, z, i, j)
                for k in range(n):
                    out[k] = out[k] + sc * row[k]
        if self.field.p is not None:
            out = [v % self.field.p for v in out]
        return out

    def precomposition_matrix(self, x, y, z, u):
        """Matrix of hom(y,z) -> hom(x,z), h |-> h o u, for u a coefficient
        vector over hom(x,y)."""
        cols = []
        dyz = self.homdim[(y, z)]
        for i in range(dyz):
            g = [self.field.zero] * dyz
            g[i] = self.field.one
            cols.append(self.compose(x, y, z, g, u))
        return Mat.from_cols(self.field, cols) if cols \
            else Mat.zero(self.field, self.homdim[(x, z)], 0)

    def postcomposition_matrix(self, x, y, z, u):
        """Matrix of hom(x,y) -> hom(x,z), f |-> u o f, for u a coefficient
        vector over hom(y,z)."""
        cols = []
        dxy = self.homdim[(x, y)]
        for j in range(dxy):
            f = [self.field.zero] * dxy
            f[j] = self.field.one
            cols.append(self.compose(x, y, z, u, f))
        return Mat.from_cols(self.field, cols) if cols \
            else Mat.zero(self.field, self.homdim[(x, z)], 0)

    def identity_vector(self, x):
        return [self.field.one]

    # -- structural checks --------------------------------------------

    def check_associativity(self):
        """Exhaustive check of (h o g) o f = h o (g o f) on basis triples."""
        for w in self.objects:
            for x in self.objects:
                if self.homdim[(w, x)] == 0:
                    continue
                for y in self.objects:
                    if self.homdim[(x, y)] == 0:
                        continue
                    for z in self.objects:
                        if self.homdim[(y, z)] == 0:
                            continue
                        for i in range(self.homdim[(y, z)]):
                            h = self._basis_vec(y, z, i)
                            for j in range(self.homdim[(x, y)]):
                                g = self._basis_vec(x, y, j)
                                gf = self.compose(x, y, z, h, g)
                                for k in range(self.homdim[(w, x)]):
                                    f = self._basis_vec(w, x, k)
                                    left = self.compose(w, x, z, gf, f)
                                    right = self.compose(
                                        w, y, z, h,
                                        self.compose(w, x, y, g, f))
                                    if left != right:
                                        return False, (w, x, y, z, i, j, k)
        return True, None

    def check_identities(self):
        for x in self.objects:
            for y in self.objects:
                d = self.homdim[(x, y)]
                for j in range(d):
                    f = self._basis_vec(x, y, j)
                    if self.compose(x, y, y, self.identity_vector(y), f) != f:
                        return False, (x, y, j, "left")
                    if self.compose(x, x, y, f, self.identity_vector(x)) != f:
                        return False, (x, y, j, "right")
        return True, None

    def _basis_vec(self, x, y, i):
        v = [self.field.zero] * self.homdim[(x, y)]
        v[i] = self.field.one
        return v

    # -- derived categories of the same kind ---------------------------

    def opposite(self):
        """The opposite category; hom_op(x,y) reuses the basis of hom(y,x)."""
        if self._op is not None:
            return self._op
        homdim = {(x, y): self.homdim[(y, x)]
                  for x in self.objects for y in self.objects}
        comp = {}
        for (x, y, z), t in self.comp.items():
            # comp_op[(z,y,x)][j][i] = comp[(x,y,z)][i][j]
            ni = self.homdim[(x, y)]
            nj = self.homdim[(y, z)]
            comp[(z, y, x)] = [[t[j][i] for j in range(nj)] for i in range(ni)]
        op = FinCategory(self.field, self.objects, homdim, comp)
        op._op = self
        self._op = op
        return op

    def full_subcategory(self, objs, relabel=None):
        """The full subcategory on objs (this *is* the basic endomorphism
        algebra of their direct sum).  relabel: optional dict old->new."""
        objs = list(objs)
        if relabel is None:
            relabel = {x: x for x in objs}
        homdim = {(relabel[x], relabel[y]): self.homdim[(x, y)]
                  for x in objs for y in objs}
        comp = {}
        for x in objs:
            for y in objs:
                for z in objs:
                    t = self.comp.get((x, y, z))
                    if t is not None:
                        comp[(relabel[x], relabel[y], relabel[z])] = t
        return FinCategory(self.field, [relabel[x] for x in objs],
                           homdim, comp)

    def gabriel_arrows(self):
        """Arrows of the Gabriel quiver: multiplicity of x->y equals
        dim rad(x,y)/rad^2(x,y).  Schurian, so rad(x,y) = hom(x,y) for
        x != y and rad(x,x) = 0."""
        arrows = {}
        for x in self.objects:
            for y in self.objects:
                if x == y or self.homdim[(x, y)] == 0:
                    continue
                vecs = []
                for z in self.objects:
                    if z == x or z == y:
                        continue
                    dxz, dzy = self.homdim[(x, z)], self.homdim[(z, y)]
                    for i in range(dzy):
                        g = self._basis_vec(z, y, i)
                        for j in range(dxz):
                            f = self._basis_vec(x, z, j)
                            vecs.append(self.compose(x, z, y, g, f))
                r2 = len(row_space_basis(self.field, vecs, self.homdim[(x, y)]))
                m = self.homdim[(x, y)] - r2
                if m:
                    arrows[(x, y)] = m
        return arrows


# ---------------------------------------------------------------------------
# modules


class CatModule:
    """A covariant module over a FinCategory.

    act[(x, y)] is the list of action matrices, one per basis element of
    hom(x, y).  A key is present only when homdim(x, y), dims[x] and
    dims[y] are all nonzero; every other action is zero, and action()
    returns it as a zero matrix of the right shape."""

    def __init__(self, cat, dims, act):
        self.cat = cat
        self.dims = {x: dims.get(x, 0) for x in cat.objects}
        self.act = act

    def action(self, x, y, i):
        mats = self.act.get((x, y))
        if mats is None:
            return Mat.zero(self.cat.field, self.dims[y], self.dims[x])
        return mats[i]

    def act_elem(self, x, y, coeffs):
        """Action matrix of the hom(x,y) element with the given coords."""
        out = Mat.zero(self.cat.field, self.dims[y], self.dims[x])
        for i, c in enumerate(coeffs):
            if c != self.cat.field.zero:
                out = out + self.action(x, y, i).scale(c)
        return out

    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[x] for x in self.cat.objects)

    def is_zero(self):
        return self.total_dim() == 0

    def check(self):
        """Verify identity and composition compatibility of the action."""
        c = self.cat
        for x in c.objects:
            if self.dims[x] and not self.action(x, x, 0) == Mat.identity(c.field, self.dims[x]):
                return False
        for x in c.objects:
            for y in c.objects:
                if c.homdim[(x, y)] == 0:
                    continue
                for z in c.objects:
                    if c.homdim[(y, z)] == 0:
                        continue
                    for i in range(c.homdim[(y, z)]):
                        g = c._basis_vec(y, z, i)
                        for j in range(c.homdim[(x, y)]):
                            f = c._basis_vec(x, y, j)
                            gf = c.compose(x, y, z, g, f)
                            if self.act_elem(x, z, gf) != \
                                    self.action(y, z, i) * self.action(x, y, j):
                                return False
        return True

    def __repr__(self):
        return "CatModule(dims=%r)" % ({x: d for x, d in self.dims.items() if d},)


class ModuleMap:
    """A natural transformation between CatModules over the same category."""

    def __init__(self, src, dst, mats):
        self.src = src
        self.dst = dst
        self.mats = {}
        f = src.cat.field
        for x in src.cat.objects:
            m = mats.get(x)
            if m is None:
                m = Mat.zero(f, dst.dims[x], src.dims[x])
            self.mats[x] = m

    def at(self, x):
        return self.mats[x]

    def compose(self, other):
        """self o other."""
        return ModuleMap(other.src, self.dst,
                         {x: self.mats[x] * other.mats[x]
                          for x in self.src.cat.objects})

    def __add__(self, other):
        return ModuleMap(self.src, self.dst,
                         {x: self.mats[x] + other.mats[x]
                          for x in self.src.cat.objects})

    def scale(self, c):
        return ModuleMap(self.src, self.dst,
                         {x: self.mats[x].scale(c) for x in self.src.cat.objects})

    def __sub__(self, other):
        return self + other.scale(self.src.cat.field(-1))

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def is_isomorphism(self):
        return all(self.mats[x].is_invertible() or
                   (self.src.dims[x] == self.dst.dims[x] == 0)
                   for x in self.src.cat.objects)

    def is_natural(self):
        c = self.src.cat
        for x in c.objects:
            for y in c.objects:
                for i in range(c.homdim[(x, y)]):
                    lhs = self.dst.action(x, y, i) * self.mats[x]
                    rhs = self.mats[y] * self.src.action(x, y, i)
                    if lhs != rhs:
                        return False
        return True

    def flatten(self):
        """All matrix entries as one row vector (fixed object order)."""
        out = []
        for x in self.src.cat.objects:
            for r in self.mats[x].rows:
                out.extend(r)
        return out


def identity_map(M):
    f = M.cat.field
    return ModuleMap(M, M, {x: Mat.identity(f, M.dims[x]) for x in M.cat.objects})


def zero_module(cat):
    return CatModule(cat, {}, {})


def simple_module(cat, x):
    f = cat.field
    return CatModule(cat, {x: 1}, {(x, x): [Mat.identity(f, 1)]})


def projective_module(cat, x):
    """P_x = hom(x,-); the action of f: y -> z is postcomposition.
    Cached on the category (modules are immutable)."""
    cache = getattr(cat, "_proj_cache", None)
    if cache is None:
        cache = cat._proj_cache = {}
    if x in cache:
        return cache[x]
    f = cat.field
    dims = {y: cat.homdim[(x, y)] for y in cat.objects}
    act = {}
    for y in cat.objects:
        for z in cat.objects:
            d = cat.homdim[(y, z)]
            if d == 0 or dims[y] == 0 or dims[z] == 0:
                continue
            mats = []
            for i in range(d):
                u = cat._basis_vec(y, z, i)
                mats.append(cat.postcomposition_matrix(x, y, z, u))
            act[(y, z)] = mats
    M = CatModule(cat, dims, act)
    cache[x] = M
    return M


def injective_module(cat, x):
    """I_x = D hom(-,x); the action of f: y -> z is the transpose of
    precomposition hom(z,x) -> hom(y,x).  Cached on the category."""
    cache = getattr(cat, "_inj_cache", None)
    if cache is None:
        cache = cat._inj_cache = {}
    if x in cache:
        return cache[x]
    dims = {y: cat.homdim[(y, x)] for y in cat.objects}
    act = {}
    for y in cat.objects:
        for z in cat.objects:
            d = cat.homdim[(y, z)]
            if d == 0 or dims[y] == 0 or dims[z] == 0:
                continue
            mats = []
            for i in range(d):
                u = cat._basis_vec(y, z, i)
                mats.append(cat.precomposition_matrix(y, z, x, u).transpose())
            act[(y, z)] = mats
    M = CatModule(cat, dims, act)
    cache[x] = M
    return M


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
            act[(x, y)] = [Mat.block_diag(f, [m.action(x, y, i) for m in modules])
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
        incls.append(ModuleMap(m, S, inc))
        projs.append(ModuleMap(S, m, prj))
        for x in cat.objects:
            off[x] += m.dims[x]
    return S, incls, projs


def dual_module(M):
    """D(M): a module over the opposite category, on the dual spaces."""
    op = M.cat.opposite()
    act = {}
    for x in op.objects:
        for y in op.objects:
            d = op.homdim[(x, y)]  # = hom_C(y, x)
            if d == 0 or M.dims[x] == 0 or M.dims[y] == 0:
                continue
            act[(x, y)] = [M.action(y, x, i).transpose() for i in range(d)]
    return CatModule(op, dict(M.dims), act)


def hom_modules(M, N):
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
                A = N.action(x, y, i)   # N(x) -> N(y)
                B = M.action(x, y, i)   # M(x) -> M(y)
                # constraint: A * T_x - T_y * B = 0, entries (r, s) with
                # r over N.dims[y], s over M.dims[x]
                for r in range(N.dims[y]):
                    for s in range(M.dims[x]):
                        row = [f.zero] * total
                        for t in range(N.dims[x]):
                            # (A*T_x)[r,s] = sum_t A[r,t] T_x[t,s]
                            row[offs[x] + t * M.dims[x] + s] = A[r, t]
                        for t in range(M.dims[y]):
                            v = row[offs[y] + r * M.dims[y] + t]
                            row[offs[y] + r * M.dims[y] + t] = v - B[t, s]
                        if f.p is not None:
                            row = [v % f.p for v in row]
                        rows.append(row)
    if not rows:
        K = Mat.identity(f, total)
    else:
        K = Mat(f, rows, len(rows), total).kernel_basis()
    out = []
    for j in range(K.ncols):
        v = K.col(j)
        mats = {}
        for x in objs:
            m = Mat.zero(f, N.dims[x], M.dims[x])
            for r in range(N.dims[x]):
                for s in range(M.dims[x]):
                    m.rows[r][s] = v[offs[x] + r * M.dims[x] + s]
            mats[x] = m
        out.append(ModuleMap(M, N, mats))
    return out


def modules_isomorphic(M, N):
    """Isomorphism test for modules with scalar endomorphism rings."""
    if M.dim_vector() != N.dim_vector():
        return False
    if M.total_dim() == 0:
        return True
    maps = hom_modules(M, N)
    if len(maps) != 1:
        # schurian world: iso would force a 1-dimensional hom space, except
        # for decomposables, which we compare via both directions
        return any(m.is_isomorphism() for m in maps) or _iso_search(maps)
    return maps[0].is_isomorphism()


def _iso_search(maps):
    """Look for an invertible combination of the given hom basis (small
    seeded search; only reachable for decomposable operands)."""
    if not maps:
        return False
    rng = _random.Random(11)
    f = maps[0].src.cat.field
    for _ in range(24):
        comb = None
        for m in maps:
            c = f(rng.randrange(1, 23))
            comb = m.scale(c) if comb is None else comb + m.scale(c)
        if comb.is_isomorphism():
            return True
    return False


# ---------------------------------------------------------------------------
# sub/quotient structure


class Submodule:
    """An action-stable subspace of a CatModule, with its own module
    structure and the inclusion map."""

    def __init__(self, parent, basis_rows):
        c = parent.cat
        f = c.field
        self.parent = parent
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
                imgs = [parent.action(x, y, i) * Bx for i in range(d)]
                if dims[y] == 0:
                    if not all(img.is_zero() for img in imgs):
                        raise ValueError("subspace not action-stable")
                    continue
                By = Mat.from_cols(f, self.basis[y])
                act[(x, y)] = [By.solve(img) for img in imgs]
        self.module = CatModule(c, dims, act)
        incl = {}
        for x in c.objects:
            incl[x] = Mat.from_cols(f, self.basis[x]) if dims[x] \
                else Mat.zero(f, parent.dims[x], 0)
        self.inclusion = ModuleMap(self.module, parent, incl)


class Quotient:
    """Quotient of a CatModule by an action-stable subspace, with the
    projection map and a linear section."""

    def __init__(self, parent, sub_rows):
        c = parent.cat
        f = c.field
        self.parent = parent
        dims = {}
        proj = {}
        sect = {}
        for x in c.objects:
            rows = row_space_basis(f, sub_rows.get(x, []), parent.dims[x])
            piv, free = echelon_columns(f, rows, parent.dims[x])
            dims[x] = len(free)
            pm = Mat.zero(f, dims[x], parent.dims[x])
            for r in range(parent.dims[x]):
                v = [f.zero] * parent.dims[x]
                v[r] = f.one
                w = quotient_coords(f, rows, piv, free, v)
                for i, val in enumerate(w):
                    pm.rows[i][r] = val
            proj[x] = pm
            sm = Mat.zero(f, parent.dims[x], dims[x])
            for i, jfree in enumerate(free):
                sm.rows[jfree][i] = f.one
            sect[x] = sm
        act = {}
        for x in c.objects:
            for y in c.objects:
                d = c.homdim[(x, y)]
                if d == 0 or dims[x] == 0 or dims[y] == 0:
                    continue
                act[(x, y)] = [proj[y] * parent.action(x, y, i) * sect[x]
                               for i in range(d)]
        self.module = CatModule(c, dims, act)
        self.projection = ModuleMap(parent, self.module, proj)
        self.section = {x: sect[x] for x in c.objects}


def kernel(phi):
    """Kernel of a ModuleMap, as a Submodule of phi.src."""
    rows = {}
    for x in phi.src.cat.objects:
        K = phi.mats[x].kernel_basis()
        rows[x] = row_space_basis(phi.src.cat.field,
                                  [K.col(j) for j in range(K.ncols)],
                                  phi.src.dims[x])
    return Submodule(phi.src, rows)


def image(phi):
    """Image of a ModuleMap, as a Submodule of phi.dst."""
    rows = {}
    for x in phi.src.cat.objects:
        im = phi.mats[x].image_basis()
        rows[x] = row_space_basis(phi.src.cat.field,
                                  [im.col(j) for j in range(im.ncols)],
                                  phi.dst.dims[x])
    return Submodule(phi.dst, rows)


def cokernel(phi):
    """Cokernel of a ModuleMap, as a Quotient of phi.dst."""
    rows = {}
    for x in phi.src.cat.objects:
        im = phi.mats[x].image_basis()
        rows[x] = [im.col(j) for j in range(im.ncols)]
    return Quotient(phi.dst, rows)


def radical_rows(M):
    """Spanning rows of rad M = J.M per object (J = category radical)."""
    c = M.cat
    out = {}
    for y in c.objects:
        vecs = []
        if M.dims[y]:
            for x in c.objects:
                if x == y or M.dims[x] == 0:
                    continue
                for A in M.act.get((x, y), ()):
                    for j in range(M.dims[x]):
                        vecs.append(A.col(j))
        out[y] = row_space_basis(c.field, vecs, M.dims[y])
    return out


def top_generators(M):
    """A minimal generating set: (object, vector) pairs lifting a basis of
    M / rad M.  Deterministic (standard coordinates at the free positions
    of the radical's RREF)."""
    c = M.cat
    f = c.field
    rad = radical_rows(M)
    gens = []
    for x in c.objects:
        for j in echelon_columns(f, rad[x], M.dims[x])[1]:
            v = [f.zero] * M.dims[x]
            v[j] = f.one
            gens.append((x, v))
    return gens


# ---------------------------------------------------------------------------
# free modules and category matrices


class FreeModule:
    """An explicit direct sum of representable projectives P_x, with
    bookkeeping of which block of each value space belongs to which
    summand."""

    def __init__(self, cat, summands):
        self.cat = cat
        self.summands = list(summands)
        f = cat.field
        dims = {y: sum(cat.homdim[(s, y)] for s in self.summands)
                for y in cat.objects}
        self.offsets = {}
        for y in cat.objects:
            offs = []
            o = 0
            for s in self.summands:
                offs.append(o)
                o += cat.homdim[(s, y)]
            self.offsets[y] = offs
        projs = [projective_module(cat, s) for s in self.summands]
        support = [y for y in cat.objects if dims[y]]
        act = {}
        for y in support:
            for z in support:
                d = cat.homdim[(y, z)]
                if d == 0:
                    continue
                mats = []
                for i in range(d):
                    blocks = [p.action(y, z, i) for p in projs]
                    mats.append(Mat.block_diag(f, blocks))
                act[(y, z)] = mats
        self.module = CatModule(cat, dims, act)

    def yoneda_map(self, N, elements):
        """The map self.module -> N determined by images of the canonical
        generators: elements[j] is a vector in N(summands[j])."""
        c = self.cat
        f = c.field
        mats = {}
        for y in c.objects:
            m = Mat.zero(f, N.dims[y], self.module.dims[y])
            for j, s in enumerate(self.summands):
                for i in range(c.homdim[(s, y)]):
                    col = N.action(s, y, i).apply(elements[j])
                    cix = self.offsets[y][j] + i
                    for r in range(N.dims[y]):
                        m.rows[r][cix] = col[r]
            mats[y] = m
        return ModuleMap(self.module, N, mats)


class CatMat:
    """A matrix of morphisms between free modules F(src_objs) -> F(dst_objs):
    entries[i][j] is a coefficient vector over hom(dst_objs[i], src_objs[j]),
    the Yoneda coordinate of the component P_{src_objs[j]} -> P_{dst_objs[i]}
    (acting by precomposition)."""

    def __init__(self, cat, src_objs, dst_objs, entries):
        self.cat = cat
        self.src_objs = list(src_objs)
        self.dst_objs = list(dst_objs)
        self.entries = entries

    def op(self):
        """The same data read as a map of free modules over the opposite
        category, Hom(-, C): F_op(dst_objs) -> F_op(src_objs)."""
        opc = self.cat.opposite()
        entries = [[self.entries[i][j] for i in range(len(self.dst_objs))]
                   for j in range(len(self.src_objs))]
        return CatMat(opc, self.dst_objs, self.src_objs, entries)

    def realize(self, src_free, dst_free):
        """The induced ModuleMap between the given free realizations."""
        c = self.cat
        f = c.field
        mats = {}
        for y in c.objects:
            m = Mat.zero(f, dst_free.module.dims[y], src_free.module.dims[y])
            for i, b in enumerate(self.dst_objs):
                for j, a in enumerate(self.src_objs):
                    u = self.entries[i][j]
                    if all(v == f.zero for v in u):
                        continue
                    blk = c.precomposition_matrix(b, a, y, u)
                    ro = dst_free.offsets[y][i]
                    co = src_free.offsets[y][j]
                    for r in range(blk.nrows):
                        for s in range(blk.ncols):
                            m.rows[ro + r][co + s] = blk[r, s]
            mats[y] = m
        return ModuleMap(src_free.module, dst_free.module, mats)

    def hom_into(self, N):
        """Induced map Hom(F(dst), N) -> Hom(F(src), N) in Yoneda
        coordinates (stacked N(obj) blocks)."""
        c = self.cat
        f = c.field
        src_dim = sum(N.dims[b] for b in self.dst_objs)
        dst_dim = sum(N.dims[a] for a in self.src_objs)
        m = Mat.zero(f, dst_dim, src_dim)
        ro = 0
        for j, a in enumerate(self.src_objs):
            co = 0
            for i, b in enumerate(self.dst_objs):
                u = self.entries[i][j]
                blk = N.act_elem(b, a, u)  # N(b) -> N(a)
                for r in range(blk.nrows):
                    for s in range(blk.ncols):
                        v = m.rows[ro + r][co + s]
                        m.rows[ro + r][co + s] = v + blk[r, s]
                co += N.dims[b]
            ro += N.dims[a]
        if f.p is not None:
            m = Mat(f, [[v % f.p for v in r] for r in m.rows], m.nrows, m.ncols)
        return m

    def on_injectives(self, src_inj, dst_inj):
        """The Nakayama image: the induced map between the corresponding
        sums of injectives, nu(P_x) = I_x."""
        c = self.cat
        f = c.field
        # block (i, j): I_{src_objs[j]} -> I_{dst_objs[i]} given by the same
        # Yoneda element u in hom(dst_objs[i], src_objs[j]): at object y it is
        # the transpose of postcomposition hom(y, dst_i) -> hom(y, src_j).
        mats = {}
        for y in c.objects:
            m = Mat.zero(f, dst_inj.module.dims[y], src_inj.module.dims[y])
            for i, b in enumerate(self.dst_objs):
                for j, a in enumerate(self.src_objs):
                    u = self.entries[i][j]
                    if all(v == f.zero for v in u):
                        continue
                    blk = c.postcomposition_matrix(y, b, a, u).transpose()
                    ro = dst_inj.offsets[y][i]
                    co = src_inj.offsets[y][j]
                    for r in range(blk.nrows):
                        for s in range(blk.ncols):
                            m.rows[ro + r][co + s] = blk[r, s]
            mats[y] = m
        return ModuleMap(src_inj.module, dst_inj.module, mats)


class InjSum:
    """An explicit direct sum of representable injectives I_x."""

    def __init__(self, cat, summands):
        self.cat = cat
        self.summands = list(summands)
        f = cat.field
        mods = [injective_module(cat, x) for x in self.summands]
        self.offsets = {}
        for y in cat.objects:
            offs = []
            o = 0
            for m in mods:
                offs.append(o)
                o += m.dims[y]
            self.offsets[y] = offs
        if mods:
            self.module, self.inclusions, self.projections = direct_sum(cat, mods)
        else:
            self.module = zero_module(cat)
            self.inclusions, self.projections = [], []


# ---------------------------------------------------------------------------
# decomposition into indecomposables


def decompose(M):
    """Split M into indecomposable summands via Fitting decompositions of
    endomorphisms (the concrete form of idempotent lifting here).

    All in-scope algebras are representation-directed, so indecomposables
    must have 1-dimensional endomorphism rings; this is asserted.
    """
    out = []
    work = [M]
    rng = _random.Random(20240817)
    while work:
        cur = work.pop()
        if cur.total_dim() == 0:
            continue
        ends = hom_modules(cur, cur)
        if len(ends) == 1:
            out.append(cur)
            continue
        split = _find_split(cur, ends, rng)
        if split is None:
            raise DecompositionFailed(
                "dim End = %d but no splitting found" % len(ends))
        work.extend(split)
    out.sort(key=lambda m: (m.dim_vector(),), reverse=False)
    return out


def _find_split(M, ends, rng):
    cands = list(ends)
    for _ in range(40):
        comb = None
        for e in ends:
            c = M.cat.field(rng.randrange(0, 23))
            comb = e.scale(c) if comb is None else comb + e.scale(c)
        cands.append(comb)
    for a in cands:
        res = _fitting_split(M, a)
        if res is not None:
            return res
    return None


def _fitting_split(M, a):
    from .minpoly import operator_min_poly_factors
    f = M.cat.field
    t = M.total_dim()
    factors = operator_min_poly_factors(a, f)
    if factors is None or len(factors) < 2:
        return None
    # primary decomposition along the first factor: M = ker g(a)^m (+) im
    g_coeffs, mult = factors[0]
    op = _eval_poly(M, a, g_coeffs)
    power = op
    for _ in range(mult - 1):
        power = power.compose(op)
    # raise to total-dim stability to be safe
    n = 1
    while n < t:
        power = power.compose(power)
        n *= 2
    K = kernel(power)
    I = image(power)
    if K.module.total_dim() == 0 or I.module.total_dim() == 0:
        return None
    if K.module.total_dim() + I.module.total_dim() != t:
        return None
    return [K.module, I.module]


def _eval_poly(M, a, coeffs):
    """coeffs low-to-high; evaluate at the module endomorphism a."""
    f = M.cat.field
    out = None
    for c in reversed(coeffs):
        if out is None:
            out = identity_map(M).scale(f(c))
        else:
            out = out.compose(a) + identity_map(M).scale(f(c))
    return out

