"""Enumeration of the AR quiver of a representation-directed algebra.

Vertices are found as the tau^{-1}-orbits of the indecomposable
projectives (for a representation-directed algebra every indecomposable
is tau^{-j} of a projective, and knitting these orbits terminates).
The projectives are taken in a topological order of the Gabriel quiver,
sources first, by quiver.topological_order on its arrows.  Knitting only
enumerates: the hom table of the vertices and the arrows are computed on
first read.  Arrows carry irreducible-map multiplicities dim rad/rad^2,
the Gabriel arrows of End of the sum of the vertices read off that
table's structure constants rather than middle-term bookkeeping; the
mesh property ties the two together and is checked exhaustively in the
tests.

A knitted module with a coordinate above 6 shows, at any global
dimension, that the algebra A is not representation-directed (Ringel,
LNM 1099, 2.4; Ovsienko 1978).  Were it, each indecomposable M would be
(1) directing, so (2) sincere and directing over its support algebra
B = A/<e>, e the sum of the idempotents where M = 0, as a cycle in mod B
is one in mod A; so (3) gl.dim B <= 2 and dim M is a positive root of
the weakly positive Euler form chi_B, a unit form as B is triangular;
so (4) each coordinate of dim M is at most 6, by Ovsienko's theorem.
"""

from functools import cached_property

from .quiver import topological_order
from .fincat import projective_module, module_label
from .homology import tau_inv, hom_table
from .errors import NotRepFinite

OVSIENKO_BOUND = 6


class ARQuiver:
    """vertices[i] = (module, dim_vector); tau maps non-projective vertex
    indices to their translates.  Computed on first read: table, the
    hom_table of the vertices, and from it arrows, the (src, dst, mult)
    index triples."""

    def __init__(self, cat, vertices, tau, projective_of, injective_flags):
        self.cat = cat
        self.vertices = vertices
        self.tau = tau
        self.projective_of = projective_of  # index -> object label or None
        self.injective_flags = injective_flags

    @property
    def count(self):
        return len(self.vertices)

    def module(self, i):
        return self.vertices[i][0]

    @cached_property
    def table(self):
        """The hom_table of the vertices: their hom bases and End of
        their direct sum, on the vertex indices."""
        return hom_table(self.cat, [M for M, _ in self.vertices],
                         ["vertex %d" % i for i in range(self.count)])

    @cached_property
    def arrows(self):
        """The Gabriel arrows of End of the sum of the vertices, as
        (src, dst, dim rad/rad^2) triples: the irreducible maps."""
        return [(i, j, m)
                for (i, j), m in self.table[1].gabriel_arrows().items()]

    def labels(self):
        return [vertex_label(self.cat, self.module(i)) for i in range(self.count)]


def vertex_label(cat, M):
    """A readable canonical name: P_x / I_x / S_x when applicable, else the
    dimension vector."""
    lab = module_label(M)
    if lab is not None:
        return "%s_%s" % lab
    if M.total_dim() == 1:
        return "S_%s" % (M.support[0],)
    return "M%s" % (M.dim_vector(),)


def _seed_order(cat, arrows):
    """Objects in a topological order of the Gabriel quiver (sources first),
    ties broken by object list position."""
    succ = {x: [] for x in cat.objects}
    for s, t in arrows:
        succ[s].append(t)
    order = topological_order(cat.objects, succ)
    return order if order is not None else list(cat.objects)


def single_gabriel_arrows(cat):
    """The Gabriel arrows of cat, all of multiplicity 1.  Raises
    NotRepFinite at a multiple arrow x => y: the Kronecker algebra is
    then a quotient, so cat is representation-infinite."""
    arrows = cat.gabriel_arrows()
    for (s, t), m in arrows.items():
        if m > 1:
            raise NotRepFinite("representation-infinite: %d Gabriel arrows "
                               "%s -> %s (a Kronecker quotient)" % (m, s, t))
    return arrows


def knit(cat):
    """Full list of indecomposables, with tau, the projectives and the
    injectives marked; hom bases and arrows follow on first read.

    The knitted modules are pairwise non-isomorphic over any algebra:
    tau^{-1} is injective on iso classes, no tau^{-1}M is projective, and
    the P_x of a basic category are pairwise distinct.  A directing module
    is determined by its dimension vector (Ringel, LNM 1099, 2.4), so
    NotRepFinite is raised at the first repeated dimension vector, at once
    for a multiple Gabriel arrow (single_gabriel_arrows), and at the first
    module with a coordinate above OVSIENKO_BOUND (module docstring).
    Vectors with coordinates <= OVSIENKO_BOUND are finitely many, so
    knitting always ends."""
    arrows = single_gabriel_arrows(cat)
    mods = []
    dimvecs = []
    tau_map = {}
    proj_of = {}

    def add(M):
        dv = M.dim_vector()
        if max(dv) > OVSIENKO_BOUND:
            raise NotRepFinite("not representation-directed: dimension "
                               "vector %s has a coordinate above %d "
                               "(Ovsienko's bound)" % (dv, OVSIENKO_BOUND))
        if dv in dimvecs:
            raise NotRepFinite(
                "not representation-directed: two knitted indecomposables "
                "have dimension vector %s" % (dv,))
        mods.append(M)
        dimvecs.append(dv)
        return len(mods) - 1

    for x in _seed_order(cat, arrows):
        cur = add(projective_module(cat, x))
        proj_of[cur] = x
        while True:
            nxt = tau_inv(mods[cur])
            if nxt.total_dim() == 0:
                break
            nxt_idx = add(nxt)
            tau_map[nxt_idx] = cur
            cur = nxt_idx

    n = len(mods)
    # every non-injective vertex was continued to its tau^{-1}, so the
    # injectives are exactly the vertices that are nobody's translate
    translated = set(tau_map.values())
    inj_flags = [i not in translated for i in range(n)]
    vertices = [(mods[i], dimvecs[i]) for i in range(n)]
    return ARQuiver(cat, vertices, tau_map,
                    {i: proj_of.get(i) for i in range(n)}, inj_flags)
