"""Reference constructions that only the tests use, as oracles: a syzygy
as a module of its own (kernel, Submodule), the minimality and complex
checks of a resolution, direct sums with their inclusions and
projections, naturality and flattening of module maps, and the hom
dimensions of a glued category by copy."""

from ausglue.fincat import CatModule, ModuleMap
from ausglue.homology import min_proj_resolution
from ausglue.linalg import Mat


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
                imgs = [parent.action(x, y, i) * Bx for i in range(d)]
                if dims[y] == 0:
                    if not all(img.is_zero() for img in imgs):
                        raise ValueError("subspace not action-stable")
                    continue
                By = Mat.from_cols(f, self.basis[y])
                act[(x, y)] = [By.solve(img) for img in imgs]
        self.module = CatModule(c, dims, act)


def kernel(phi):
    """Kernel of a ModuleMap, as a Submodule of phi.src."""
    return Submodule(phi.src, {x: phi.mats[x].kernel_rows()
                               for x in phi.src.cat.objects})


def syzygy(M):
    """Omega(M) as a module of its own: the kernel of the projective
    cover."""
    return kernel(min_proj_resolution(M).eps).module


def is_minimal(res):
    """Every differential image must lie in the radical: in Yoneda
    coordinates, no entry may contain an identity component."""
    for d in res.diffs:
        for i, b in enumerate(d.dst_objs):
            for j, a in enumerate(d.src_objs):
                if b == a and any(v != res.module.cat.field.zero
                                  for v in d.entries[i][j]):
                    return False
    return True


def is_complex(res):
    for i in range(len(res.diffs) - 1):
        hi = res.diffs[i].realize(res.frees[i + 1], res.frees[i])
        lo = res.diffs[i + 1].realize(res.frees[i + 2], res.frees[i + 1])
        if not hi.compose(lo).is_zero():
            return False
    if res.diffs:
        d0 = res.diffs[0].realize(res.frees[1], res.frees[0])
        if not res.eps.compose(d0).is_zero():
            return False
    return True


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


def is_natural(phi):
    """Whether the blocks of the ModuleMap phi commute with every action."""
    c = phi.src.cat
    for x in c.objects:
        for y in c.objects:
            for i in range(c.homdim[(x, y)]):
                lhs = phi.dst.action(x, y, i) * phi.mats[x]
                rhs = phi.mats[y] * phi.src.action(x, y, i)
                if lhs != rhs:
                    return False
    return True


def flatten(phi):
    """All matrix entries of the ModuleMap phi as one row vector (fixed
    object order)."""
    out = []
    for x in phi.src.cat.objects:
        for r in phi.mats[x].rows:
            out.extend(r)
    return out


def hom_dim(glued, a, i, b, j):
    """dim hom(X_a[i], X_b[j]) in the glued category."""
    return glued.cat.homdim[(glued.obj(a, i), glued.obj(b, j))]
