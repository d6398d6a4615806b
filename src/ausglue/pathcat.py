"""Path categories of bound quivers.

category_from_presentation turns a BoundPresentation into a FinCategory:
objects are the vertices, hom(x,y) is spanned by the paths x -> y reduced
modulo the two-sided ideal generated by the relations, and composition is
path concatenation followed by reduction.  The paths out of each vertex
are enumerated level by level through its out-arrows, and the paths, the
ideal, the bases and the composition are kept only for the pairs joined
by a path, so the work follows the paths rather than every vertex pair.
"""

from .linalg import quotient_coords, row_reduce
from .fincat import FinCategory
from .errors import InfiniteDimensional, InvalidParams


def category_from_presentation(pres, field):
    q = pres.quiver
    if not q.is_acyclic:
        if not pres.relations:
            raise InfiniteDimensional("oriented cycle without relations")
        raise InvalidParams("cyclic quivers are out of scope: "
                            "representation-directed algebras are acyclic")

    out = {v: [] for v in q.vertices}  # (arrow, target) in arrow order
    for aid, s, t in q.arrows:
        out[s].append((aid, t))
    # the paths out of each vertex by length, as (path, endpoint), and
    # grouped by (source, target) for the pairs joined by a path, in
    # vertex order
    walks = {}
    paths = {}
    for x in q.vertices:
        walk, level = [], [((), x)]
        while level:
            walk.extend(level)
            level = [(p + (aid,), t)
                     for p, end in level for aid, t in out[end]]
        walks[x] = walk
        ends = {}
        for p, y in walk:
            ends.setdefault(y, []).append(p)
        paths.update(((x, y), ends[y]) for y in q.vertices if y in ends)
    index = {key: {p: i for i, p in enumerate(plist)}
             for key, plist in paths.items()}

    # two-sided ideal: p . r . q for every relation r and all paths p, q;
    # p ends at u, r runs u -> v and q starts at v, so p . r . q is a path
    ideal_rows = {key: [] for key in paths}
    for rel in pres.relations:
        u = q.path_source(rel[0][1])
        v = q.path_target(rel[0][1])
        for x in q.vertices:
            for p, pend in walks[x]:
                if pend != u:
                    continue
                for qq, y in walks[v]:
                    at = index[(x, y)]
                    vec = [0] * len(at)
                    for coeff, rp in rel:
                        vec[at[p + rp + qq]] += coeff
                    ideal_rows[(x, y)].append([field(c) for c in vec])

    # reduce: basis = paths at non-pivot positions of the ideal's RREF
    basis = {}
    reducer = {}
    for key, plist in paths.items():
        rows, piv = row_reduce(field, ideal_rows[key], len(plist))
        free = [j for j in range(len(plist)) if j not in piv]
        basis[key] = [plist[j] for j in free]
        reducer[key] = (rows, piv, free)

    homdim = {key: len(b) for key, b in basis.items() if b}
    succ = {x: [] for x in q.vertices}  # the y with hom(x, y) != 0
    for x, y in homdim:
        succ[x].append(y)
    comp = {}
    for x in q.vertices:
        for y in succ[x]:
            for z in succ[y]:
                if (x, z) not in homdim:
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
    return FinCategory(field, q.vertices, homdim, comp)
