"""Quivers, Dynkin shapes and bound presentations (quiver + relations),
and topological_order, the one topological sort of the package: Kahn's
algorithm on a digraph given by successor lists, which orders a quiver,
the hom support of a category and its Gabriel quiver alike.

A path is a tuple of arrow ids, listed in traversal order: (a, b) means
"first a, then b" and requires target(a) == source(b).  A relation is a
list of (coefficient, path) pairs whose paths all share source and target.
"""

from bisect import insort

from .errors import InvalidDynkinSpec, InvalidParams


def topological_order(vertices, succ):
    """Kahn's algorithm: vertices in a source-first order, the ready vertex
    first in the list taken next, or None if the digraph has a cycle.
    succ[v] lists the heads of the arrows out of v, a head once per arrow,
    so self-loops and multiple arrows count."""
    pos = {v: i for i, v in enumerate(vertices)}
    indeg = [0] * len(vertices)
    for v in vertices:
        for w in succ[v]:
            indeg[pos[w]] += 1
    ready = [i for i, d in enumerate(indeg) if not d]  # positions, sorted
    order = []
    while ready:
        v = vertices[ready.pop(0)]
        order.append(v)
        for w in succ[v]:
            j = pos[w]
            indeg[j] -= 1
            if not indeg[j]:
                insort(ready, j)
    return order if len(order) == len(vertices) else None


class Quiver:
    def __init__(self, vertices, arrows):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        vset = set(self.vertices)
        aids = set()
        for aid, s, t in self.arrows:
            if s not in vset or t not in vset:
                raise InvalidParams("arrow %r has unknown endpoint" % (aid,))
            if aid in aids:
                raise InvalidParams("duplicate arrow id %r" % (aid,))
            aids.add(aid)
        self.source = {aid: s for aid, s, t in self.arrows}
        self.target = {aid: t for aid, s, t in self.arrows}

    @property
    def is_acyclic(self):
        """Whether the quiver has no oriented cycle."""
        succ = {v: [] for v in self.vertices}
        for _, s, t in self.arrows:
            succ[s].append(t)
        return topological_order(self.vertices, succ) is not None

    def path_source(self, path):
        return self.source[path[0]]

    def path_target(self, path):
        return self.target[path[-1]]

    def is_path(self, path):
        return all(self.target[path[i]] == self.source[path[i + 1]]
                   for i in range(len(path) - 1))

    def __repr__(self):
        return "Quiver(%r, %r)" % (self.vertices, self.arrows)


class DynkinSpec:
    """A simply laced Dynkin shape with an orientation choice.

    orientation: for type A, "linear" (1->2->...->n) or "alternating"
    (1->2<-3->4...); for D4, "out" (1->2, 1->3, 1->4, branch vertex 1 as
    the unique source) or "in"; or an explicit list of (src, dst) pairs
    covering the underlying edges.
    """

    def __init__(self, letter, rank, orientation=None):
        letter = letter.upper()
        if letter == "A":
            if rank < 1:
                raise InvalidDynkinSpec("A_n needs n >= 1")
        elif letter == "D":
            if rank < 4:
                raise InvalidDynkinSpec("D_n needs n >= 4")
        elif letter == "E":
            if rank not in (6, 7, 8):
                raise InvalidDynkinSpec("E_n needs n in {6,7,8}")
        else:
            raise InvalidDynkinSpec("unknown type %r" % (letter,))
        self.letter = letter
        self.rank = rank
        if orientation is None:
            orientation = "linear" if letter == "A" else "out"
        self.orientation = orientation

    def edges(self):
        """Undirected edges of the diagram, vertices 1..rank."""
        n = self.rank
        if self.letter == "A":
            return [(i, i + 1) for i in range(1, n)]
        if self.letter == "D":
            if n == 4:
                # branch vertex labeled 1, matching the usual D4 picture
                return [(1, 2), (1, 3), (1, 4)]
            return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        # E types: chain 1..n-1 with n attached to vertex 3
        return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]

    def positive_root_count(self):
        n = self.rank
        if self.letter == "A":
            return n * (n + 1) // 2
        if self.letter == "D":
            return n * (n - 1)
        return {6: 36, 7: 63, 8: 120}[n]

    def __repr__(self):
        return "DynkinSpec(%s%d, %r)" % (self.letter, self.rank, self.orientation)


def dynkin_quiver(spec):
    """The quiver of a DynkinSpec with the requested orientation."""
    edges = spec.edges()
    orient = spec.orientation
    if isinstance(orient, (list, tuple)):
        directed = [tuple(e) for e in orient]
        want = {frozenset(e) for e in edges}
        got = {frozenset(e) for e in directed}
        if want != got:
            raise InvalidDynkinSpec("orientation does not cover the diagram edges")
    elif orient == "linear":
        directed = edges
    elif orient == "alternating":
        if spec.letter != "A":
            raise InvalidDynkinSpec("alternating orientation is for type A")
        directed = []
        for i, (a, b) in enumerate(edges):
            directed.append((a, b) if i % 2 == 0 else (b, a))
    elif orient == "out":
        directed = edges
    elif orient == "in":
        directed = [(b, a) for a, b in edges]
    else:
        raise InvalidDynkinSpec("unknown orientation %r" % (orient,))
    vertices = list(range(1, spec.rank + 1))
    arrows = [("a%d" % (i + 1), s, t) for i, (s, t) in enumerate(directed)]
    return Quiver(vertices, arrows)


class BoundPresentation:
    """A quiver together with relations in its path algebra."""

    def __init__(self, quiver, relations=()):
        self.quiver = quiver
        self.relations = [list(rel) for rel in relations]
        for rel in self.relations:
            if not rel:
                raise InvalidParams("empty relation")
            paths = [p for _, p in rel]
            for p in paths:
                unknown = [a for a in p if a not in quiver.source]
                if unknown:
                    raise InvalidParams("relation term %r names unknown "
                                        "arrow %r" % (p, unknown[0]))
                if not p or not quiver.is_path(p):
                    raise InvalidParams("relation term %r is not a path" % (p,))
            s0 = quiver.path_source(paths[0])
            t0 = quiver.path_target(paths[0])
            for p in paths[1:]:
                if quiver.path_source(p) != s0 or quiver.path_target(p) != t0:
                    raise InvalidParams("relation terms do not share endpoints")

    def __repr__(self):
        return "BoundPresentation(%r, %d relations)" % (self.quiver, len(self.relations))


def hereditary_presentation(spec):
    """Path algebra of a Dynkin quiver: no relations."""
    return BoundPresentation(dynkin_quiver(spec), [])


def nakayama_linear(m, ell):
    """Linear Nakayama algebra: A_m with 1->2->...->m and rad^ell = 0,
    presented by killing every path of length ell."""
    if m < 2 or ell < 2:
        raise InvalidParams("need m >= 2 and ell >= 2")
    q = dynkin_quiver(DynkinSpec("A", m, "linear"))
    relations = []
    for start in range(1, m - ell + 1):
        path = tuple("a%d" % j for j in range(start, start + ell))
        relations.append([(1, path)])
    return BoundPresentation(q, relations)


def parse_quiver_file(text):
    """Parse the quiver spec file format.

    Header `dynkin <letter> <rank> [orientation]` or `quiver`, and nothing
    else on that line, then `arrow <id> <src> <dst>` lines and optional
    `relation <coeff>*<path>;...` lines where a path is a `.`-joined
    arrow id sequence.  Returns a BoundPresentation.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise InvalidParams("empty quiver file")
    head = lines[0].split()
    if head[0] == "dynkin":
        if not 3 <= len(head) <= 4:
            raise InvalidParams("dynkin header needs letter and rank, then "
                                "at most an orientation: %r" % (lines[0],))
        orientation = head[3] if len(head) > 3 else None
        rank = _parse_int(head[2], "dynkin rank", lines[0])
        spec = DynkinSpec(head[1], rank, orientation)
        if len(lines) > 1:
            raise InvalidParams("dynkin header takes no further lines")
        return hereditary_presentation(spec)
    if head != ["quiver"]:
        raise InvalidParams("unknown header %r" % (lines[0],))
    arrows = []
    relation_lines = []
    vertices = []
    for ln in lines[1:]:
        kind, rest = (ln.split(None, 1) + [""])[:2]
        if kind == "arrow":
            fields = rest.split()
            if len(fields) != 3:
                raise InvalidParams("arrow line needs <id> <src> <dst>: %r"
                                    % (ln,))
            aid, src, dst = fields
            for v in (src, dst):
                if v not in vertices:
                    vertices.append(v)
            arrows.append((aid, src, dst))
        elif kind == "relation":
            relation_lines.append((ln, rest))
        else:
            raise InvalidParams("unknown line %r" % (ln,))
    if not vertices:
        raise InvalidParams("quiver file has no arrows, so no vertices")
    q = Quiver(vertices, arrows)
    relations = []
    for ln, rest in relation_lines:
        rel = []
        for term in rest.split(";"):
            term = term.strip()
            if not term:
                continue
            if "*" in term:
                coeff, path = term.split("*", 1)
                coeff = _parse_int(coeff, "relation coefficient", ln)
            else:
                coeff, path = 1, term
            rel.append((coeff, tuple(path.strip().split("."))))
        relations.append(rel)
    return BoundPresentation(q, relations)


def _parse_int(text, what, line):
    try:
        return int(text)
    except ValueError:
        raise InvalidParams("%s must be an integer, got %r in line %r"
                            % (what, text, line)) from None
