"""Path categories of bound quivers.

category_from_presentation turns a BoundPresentation into a FinCategory:
objects are the vertices, hom(x,y) is spanned by the paths x -> y reduced
modulo the two-sided ideal generated by the relations, and composition is
path concatenation followed by reduction.
"""

from .linalg import row_space_basis, echelon_columns, quotient_coords
from .fincat import FinCategory
from .errors import InfiniteDimensional, InvalidParams


def category_from_presentation(pres, field):
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
