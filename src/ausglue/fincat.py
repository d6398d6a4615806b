"""Finite K-categories with explicit hom bases, and modules over them.

A FinCategory is the uniform carrier for every algebra in the package:
path categories of bound quivers, the glued categories, and their
endomorphism algebras.  Objects are labels; hom(x,y) is a vector space
with a fixed ordered basis; composition is stored as structure constants.

A CatModule is a covariant functor to vector spaces: a dimension per
object and a matrix per hom-basis element.  Matrices act on column
vectors, so the action of f: x -> y has shape (dim M(y), dim M(x)).

Hom and module dimensions are kept on their support only: homdim holds
the pairs with hom(x, y) != 0 and a module's dims the objects where it is
nonzero, each as a Sparse dict that reads 0 at every other key, so a pass
over a category or a module walks its support, not every object pair.

An opposite category shares comp with its category and, behind the flag
transposed, reads each block transposed.

All categories in scope are schurian: hom(x,x) is spanned by the
identity.  This is asserted at construction and makes the radical simply
the off-diagonal hom spaces.  One routine, submodule_top, takes the top
of a module and of every syzygy inside its free module, and stops as
soon as the radical images span.  A map out of a free module is kept
only as the images of its generators (Yoneda), one vector per summand,
and applied through its Yoneda columns at one object at a time, and so
is a map between modules, by the generators of its source's cover; only
FreeModule.hom_into forms a matrix from one, as plain rows.  Hom between
modules is Ext^0, read off minimal resolutions in homology (ext_space),
and with it the isomorphism test.
"""

import weakref
from functools import cached_property
from itertools import accumulate

from .linalg import (Mat, echelon_columns, identity_rows, quotient_coords,
                     rank)
from .errors import NonSchurianVertex


class Sparse(dict):
    """A dict of dimensions that holds only the nonzero ones and reads 0
    at any other key."""

    def __missing__(self, key):
        return 0


def _sparse(dims):
    return Sparse((key, d) for key, d in dims.items() if d)


class FinCategory:
    """objects: label list; homdim[(x,y)]: basis size, a Sparse dict kept
    on the pairs with hom(x, y) != 0; comp[(x,y,z)]: structure constants,
    comp[(x,y,z)][i][j] = coordinates in hom(x,z) of (g_i o f_j) for g_i
    in hom(y,z), f_j in hom(x,y), unless transposed (see opposite())."""

    def __init__(self, field, objects, homdim, comp):
        self.field = field
        self.objects = list(objects)
        self.obj_index = {x: i for i, x in enumerate(self.objects)}
        self.homdim = _sparse(homdim)
        self.comp = comp
        self.transposed = False  # see opposite()
        self._op = None
        for x in self.objects:
            if self.homdim[(x, x)] != 1:
                raise NonSchurianVertex("hom(%r,%r) has dimension %d"
                                        % (x, x, self.homdim[(x, x)]))
        self._total_dimension = sum(self.homdim.values())

    # -- basic structure ----------------------------------------------

    def total_dimension(self):
        return self._total_dimension

    @cached_property
    def out_support(self):
        """{x: the y with hom(x, y) != 0, in object order}."""
        out = {x: [] for x in self.objects}
        for x, y in self.homdim:
            out[x].append(y)
        for ys in out.values():
            ys.sort(key=self.obj_index.__getitem__)
        return out

    # -- derived categories of the same kind ---------------------------

    def opposite(self):
        """The opposite category; hom_op(x,y) reuses the basis of hom(y,x).
        It shares this category's comp and reads it transposed: with
        transposed set, block (x, y, z) is comp[(z, y, x)] with its two
        indices swapped, so comp_op[(x,y,z)][j][i] = comp[(z,y,x)][i][j].
        Kept once built.  It refers back to this category only weakly, so
        the two form no cycle; once this category has died, the opposite
        builds a new one."""
        op = self._op() if isinstance(self._op, weakref.ref) else self._op
        if op is not None:
            return op
        homdim = {(y, x): d for (x, y), d in self.homdim.items()}
        op = FinCategory(self.field, self.objects, homdim, self.comp)
        op.transposed = not self.transposed
        op._op = weakref.ref(self)
        self._op = op
        return op

    def full_subcategory(self, objs):
        """The full subcategory on objs (this *is* the basic endomorphism
        algebra of their direct sum)."""
        objs = list(objs)
        keep = set(objs)
        homdim = {(x, y): d for (x, y), d in self.homdim.items()
                  if x in keep and y in keep}
        comp = {key: t for key, t in self.comp.items() if keep.issuperset(key)}
        sub = FinCategory(self.field, objs, homdim, comp)
        sub.transposed = self.transposed
        return sub

    def gabriel_arrows(self):
        """Arrows of the Gabriel quiver: multiplicity of x->y equals
        dim rad(x,y)/rad^2(x,y).  Schurian, so rad(x,y) = hom(x,y) for
        x != y and rad(x,x) = 0, and rad^2(x,y) is spanned by the
        structure constants of the composites x -> z -> y, the same
        vectors in either orientation of comp.  A one-dimensional rad(x, y)
        is an arrow iff every composite is zero."""
        arrows = {}
        flip = self.transposed
        for x in self.objects:
            for y in self.out_support[x]:
                if x == y:
                    continue
                d = self.homdim[(x, y)]
                vecs = [v for z in self.out_support[x] if z not in (x, y)
                        for row in self.comp.get((y, z, x) if flip else
                                                 (x, z, y), ())
                        for v in row]
                m = d - (any(v[0] for v in vecs) if d == 1 else
                         rank(self.field, vecs, d))
                if m:
                    arrows[(x, y)] = m
        return arrows


def is_basic(cat):
    """(True, None), or (False, (x, y)) for the first x != y isomorphic, in
    object order: in a schurian category, iff some composite x -> y -> x
    is nonzero, i.e. some structure constant of comp[(x, y, x)] is.  Only
    the keys of comp of that form are read."""
    zero, idx = cat.field.zero, cat.obj_index
    pairs = [(x, y) for (x, y, z), t in cat.comp.items() if x == z != y
             if any(v != zero for row in t for vec in row for v in vec)]
    pair = min(pairs, key=lambda p: (idx[p[0]], idx[p[1]]), default=None)
    return pair is None, pair


# ---------------------------------------------------------------------------
# modules


class CatModule:
    """A covariant module over a FinCategory.

    dims[x] is dim M(x), a Sparse dict kept on the support, the objects
    where M is nonzero.  act[(x, y)] is the list of action matrices, one
    per basis element of hom(x, y).  A key is present only when
    homdim(x, y), dims[x] and dims[y] are all nonzero; every other action
    is zero."""

    def __init__(self, cat, dims, act):
        self.cat = cat
        self.dims = _sparse(dims)
        self.act = act

    @cached_property
    def support(self):
        """The objects x with M(x) nonzero, in object order."""
        return sorted(self.dims, key=self.cat.obj_index.__getitem__)

    def apply_action(self, x, y, i, v):
        """The i-th basis element of hom(x, y) applied to a vector of M(x)."""
        mats = self.act.get((x, y))
        if mats is None:
            return [self.cat.field.zero] * self.dims[y]
        return mats[i].apply(v)

    def total_dim(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[x] for x in self.cat.objects)

    def __repr__(self):
        return "CatModule(dims=%r)" % ({x: self.dims[x] for x in self.support},)


def zero_module(cat):
    return CatModule(cat, {}, {})


def projective_module(cat, x):
    """P_x = hom(x,-); the i-th basis element g_i of hom(y, z) acts by
    postcomposition, so column j of its matrix holds the structure
    constants of g_i o f_j: the transpose of the in-place D(P_x)."""
    return dual_module(dual_projective_module(cat, x))


def injective_module(cat, x):
    """I_x = D hom(-,x), the dual of the projective P_x of the opposite
    category (dual_projective_module there): f: y -> z acts by the
    transpose of precomposition hom(z,x) -> hom(y,x)."""
    return dual_projective_module(cat.opposite(), x)


def dual_projective_module(cat, x):
    """D(P_x), a module over the opposite category, read in place from the
    structure constants: the i-th basis element of hom_op(a, b) =
    hom(b, a) acts by the transpose of postcomposition hom(x, b) ->
    hom(x, a), whose rows comp[(x, b, a)][i] already are, so nothing is
    copied; over a transposed comp (an opposite category) each block is
    transposed as it is read.  Where comp has no key the action is zero and
    is left out."""
    dims = {y: cat.homdim[(x, y)] for y in cat.out_support[x]}
    act = {}
    flip = cat.transposed
    for b in dims:
        for a in cat.out_support[b]:
            t = cat.comp.get((a, b, x) if flip else (x, b, a))
            if t and a in dims:
                if flip:
                    t = [list(rows) for rows in zip(*t)]
                act[(a, b)] = [Mat._wrap(cat.field, rows, dims[b], dims[a])
                               for rows in t]
    return CatModule(cat.opposite(), dims, act)


def dual_module(M):
    """D(M): a module over the opposite category, on the dual spaces.  Only
    the actions M stores are transposed; any other reads as zero."""
    return CatModule(M.cat.opposite(), M.dims,
                     {(y, x): [m.transpose() for m in mats]
                      for (x, y), mats in M.act.items()})


def projective_label(M):
    """The x with M isomorphic to P_x, else None.  By Yoneda a module with
    top S_x is a quotient of P_x, so it is P_x iff the dimensions agree."""
    gens = top_generators(M)
    if len(gens) != 1:
        return None
    x = gens[0][0]
    c = M.cat
    if M.total_dim() != sum(c.homdim[(x, y)] for y in c.out_support[x]):
        return None
    return x


def injective_label(M):
    """The y with M isomorphic to I_y (socle S_y, dim M = dim I_y), else
    None: I_y is the dual of the projective P_y of the opposite category."""
    return projective_label(dual_module(M))


def module_label(M):
    """("P", x) when M is isomorphic to P_x, else ("I", y) when it is
    isomorphic to I_y, else None."""
    x = projective_label(M)
    if x is not None:
        return ("P", x)
    y = injective_label(M)
    return None if y is None else ("I", y)


# ---------------------------------------------------------------------------
# top


def submodule_top(F, rows):
    """The top of the submodule K of F with K(y) spanned by the RREF rows
    rows[y] (K(y) = 0 where rows has none), as (y, vector of F(y)) pairs
    in the order of rows; of F, a CatModule or a FreeModule, only cat,
    dims and apply_action are read.  rad K(y), the span of hom(x, y).K(x)
    for x != y, is taken in K's coordinates, the pivot columns of rows[y].
    Each image is reduced into an echelon basis of rad K(y) as soon as it
    is computed, and the scan stops once that basis spans K(y): at the
    first nonzero image where dim K(y) = 1.  The leads (first nonzero
    columns) of a basis whose leads differ are the pivots of its RREF, so
    the rows at the other columns lift a basis of K / rad K (Green,
    Solberg and Zacharia, Trans. AMS 353, 2001)."""
    c = F.cat
    f = c.field
    live = [y for y, ky in rows.items() if ky]
    gens = []
    for y in live:
        ky = rows[y]
        k = len(ky)
        piv = None if k == F.dims[y] else \
            echelon_columns(f, ky, F.dims[y])[0]
        basis, leads = [], []  # each row 1 at its lead, 0 at earlier leads
        for w in (F.apply_action(x, y, i, r) for x in live if x != y
                  for i in range(c.homdim[(x, y)]) for r in rows[x]):
            if piv is not None:
                w = [w[j] for j in piv]
            if leads:
                w = quotient_coords(f, basis, leads, range(k), w)
            if not any(w):
                continue
            if len(leads) + 1 == k:
                break
            j = next(j for j, v in enumerate(w) if v)
            inv = f.inv(w[j])
            leads.append(j)
            basis.append([f(v * inv) for v in w])
        else:  # the images do not span K(y)
            gens.extend((y, ky[j]) for j in range(k) if j not in leads)
    return gens


def top_generators(M):
    """A minimal generating set of M, (object, unit vector) pairs lifting a
    basis of M / rad M: the top of M inside itself."""
    f = M.cat.field
    return submodule_top(M, {x: identity_rows(f, M.dims[x])
                             for x in M.support})


# ---------------------------------------------------------------------------
# free modules and the maps between them


class FreeModule:
    """An explicit direct sum of representable projectives P_x, with
    bookkeeping of which block of each value space belongs to which
    summand.  Its support, where it is nonzero, is the union of the
    out_support of its summands.  dims, a Sparse dict, and offsets are
    kept on the support only; elsewhere dims reads 0, yoneda_entries gives
    empty blocks and apply_action zero vectors.  It has no dense action
    and builds no projective: apply_action reads the structure constants
    in place, one summand at a time.  A map d: F -> self is kept as its
    images, the vectors of self that F's generators go to, the j-th at
    objs[j], the object of F's j-th summand."""

    def __init__(self, cat, summands):
        self.cat = cat
        self.summands = list(summands)
        self.support = sorted({y for s in set(self.summands)
                               for y in cat.out_support[s]},
                              key=cat.obj_index.__getitem__)
        self.offsets = {}
        self.dims = Sparse()
        for y in self.support:
            offs = []
            o = 0
            for s in self.summands:
                offs.append(o)
                o += cat.homdim[(s, y)]
            self.offsets[y] = offs
            self.dims[y] = o

    def apply_action(self, x, y, i, v):
        """g_i in hom(x, y) applied to v in self(x): on summand s, sum_j
        v_j comp[(s, x, y)][i][j] (comp[(y, x, s)][j][i] when comp is read
        transposed), and a zero block where comp has none."""
        c = self.cat
        zero, p = c.field.zero, c.field.p
        offs = self.offsets.get(x)
        if offs is None:
            return [zero] * self.dims[y]
        homdim, comp, flip = c.homdim, c.comp, c.transposed
        out = []
        for s, o in zip(self.summands, offs):
            acc = None
            t = comp.get((y, x, s) if flip else (s, x, y))
            if t is not None:
                for a, row in zip(v[o:o + homdim[(s, x)]],
                                  [r[i] for r in t] if flip else t[i]):
                    if a:
                        acc = [a * w for w in row] if acc is None else \
                            [u + a * w for u, w in zip(acc, row)]
            if acc is None:
                out.extend([zero] * homdim[(s, y)])
            else:
                out.extend(acc if p is None else [u % p for u in acc])
        return out

    def yoneda_columns(self, N, elements, y):
        """The columns at y of the map self -> N sending the generator of
        summand j to elements[j], a vector of N(summands[j]); N may be a
        CatModule or a FreeModule."""
        return [N.apply_action(s, y, i, e)
                for s, e in zip(self.summands, elements)
                for i in range(self.cat.homdim[(s, y)])]

    def yoneda_entries(self, y, w):
        """Split a vector w of self(y) into its summand blocks: block i is
        the Yoneda coordinate in hom(summands[i], y)."""
        offs = self.offsets.get(y)
        if offs is None:
            return [[] for _ in self.summands]
        return [w[o:o + self.cat.homdim[(s, y)]]
                for s, o in zip(self.summands, offs)]

    def pull(self, N, elements, objs, images, cols):
        """The images of phi o d, for phi: self -> N sending the generator
        of summand i to elements[i]: phi applied to each of d's images by
        its Yoneda columns there, built once per object into cols, a dict
        that calls pulling the same phi share; the zero vector of N where
        self is 0."""
        f = self.cat.field
        zero, p = f.zero, f.p
        out = []
        for a, w in zip(objs, images):
            if a not in cols:
                cols[a] = self.yoneda_columns(N, elements, a)
            acc = [zero] * N.dims[a]
            for c, col in zip(w, cols[a]):
                if c:
                    acc = [u + c * v for u, v in zip(acc, col)]
            out.append(acc if p is None else [u % p for u in acc])
        return out

    def hom_into(self, N, objs, images):
        """The rows of the matrix of Hom(d, N): Hom(self, N) -> Hom(F, N)
        in Yoneda coordinates (one N block per summand), N a CatModule;
        block (j, i) is sum_l e_l N.act[(b_i, objs[j])][l], for e the
        block of images[j] at summand b_i, accumulated in place."""
        f = self.cat.field
        zero, p = f.zero, f.p
        offs = list(accumulate((N.dims[b] for b in self.summands), initial=0))
        rows = []
        for a, w in zip(objs, images):
            block = [[zero] * offs[-1] for _ in range(N.dims[a])]
            for b, o, e in zip(self.summands, offs, self.yoneda_entries(a, w)):
                for c, m in zip(e, N.act.get((b, a), ())):
                    if c:
                        for row, mrow in zip(block, m.rows):
                            for j, v in enumerate(mrow, o):
                                row[j] += c * v
            rows.extend(block if p is None else
                        [[v % p for v in row] for row in block])
        return rows
