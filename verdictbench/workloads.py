"""Workloads of the time-to-verdict benchmark.

A workload is one `ausglue verify` verdict.  `Workload.verdict` does what
the CLI does after import: build the input category, call the library
verifier and serialise the report.  The seed only chooses the input; the
program sees nothing but the resulting `DynkinSpec`.

This module must not import `ausglue` at load time: the sample process
times that import itself.
"""

import json
import random

DEFAULT_SEED = 0


class Workload:
    """One verdict over a Dynkin diagram.

    With `seeded`, the seed picks the orientation: DEFAULT_SEED keeps the
    named default orientation (the one `ausglue verify --dynkin X` uses),
    any other seed reverses each edge of the diagram with probability 1/2
    under `random.Random(seed)`.  The input key is "default" or the bit
    mask of reversed edges; recorded report hashes are indexed by it.
    """

    def __init__(self, name, letter, rank, k, n=1, qq=False,
                 auslander=False, seeded=True, listed=True):
        self.name = name
        self.letter = letter
        self.rank = rank
        self.k = k
        self.n = n
        self.qq = qq
        self.auslander = auslander
        self.seeded = seeded
        self.listed = listed  # in BENCHMARK.json

    def input_key(self, seed):
        if not self.seeded or seed == DEFAULT_SEED:
            return "default"
        # a Dynkin diagram is a tree: rank - 1 edges
        return str(random.Random(seed).getrandbits(self.rank - 1))

    def input_keys(self):
        """Every key a seed can map to."""
        if not self.seeded:
            return ["default"]
        return ["default"] + [str(m) for m in range(2 ** (self.rank - 1))]

    def cli_args(self):
        """The `ausglue verify` arguments giving the default-key report."""
        name = "%s%d" % (self.letter, self.rank)
        args = ["--auslander-of" if self.auslander else "--dynkin", name,
                "--k", str(self.k)]
        if self.auslander:
            args += ["--n", str(self.n)]
        if self.qq:
            args += ["--field", "QQ"]
        return args

    def spec(self, ag, key):
        if key == "default":
            return ag.DynkinSpec(self.letter, self.rank)
        mask = int(key)
        edges = ag.DynkinSpec(self.letter, self.rank).edges()
        orient = [(b, a) if mask >> i & 1 else (a, b)
                  for i, (a, b) in enumerate(edges)]
        return ag.DynkinSpec(self.letter, self.rank, orient)

    def verdict(self, ag, key):
        """Input spec to serialised report.  Returns (report text, passed);
        the text is the CLI's stdout without its final newline."""
        field = ag.QQ if self.qq else ag.default_field()
        spec = self.spec(ag, key)
        if self.auslander:
            base = ag.category_from_presentation(
                ag.hereditary_presentation(spec), field)
            ambient, _ = ag.auslander_category(base)
            rep = ag.verify_theorem_higher(
                ambient, self.k, self.n,
                input_desc="auslander(%s%d)" % (self.letter, self.rank))
        else:
            rep = ag.verify_theorem_dynkin(spec, self.k, field=field)
        return json.dumps(rep.to_dict(), indent=2), rep.passed


WORKLOADS = {w.name: w for w in [
    # The only workload on the n=2 / Ext^2 / build_mk path and the
    # knitting-heavy one (knit ~31%, is_cluster_tilting ~42% under
    # cProfile).  It stays on linear A4: the acceptance gate covers that
    # orientation, and other orientations are not known to give a
    # 2-cluster-tilting input, so the seed does not change it.
    Workload("higher-auslander-a4", "A", 4, k=1, n=2, auslander=True,
             seeded=False),
    # Gamma has rank 50 and gldim 14, built from tiny modules; resolutions
    # take ~60% of the time and 81% of its ~90k rref calls get an empty
    # matrix.  Fraction arithmetic and empty shapes: a fast path that only
    # works over GF(p) shows up as a regression here.
    Workload("deep-tower-a4k4-qq", "A", 4, k=4, qq=True),
    # The ROADMAP headline (E6 k=1 from 35 s to under 5 s): the largest
    # modules, dominated by min_proj_resolution, hom_modules,
    # modules_isomorphic and radical_rows.  One verdict takes 25-38 s on a
    # 2-CPU VM, depending on the orientation, so a 60 s run would hold a
    # single sample; it is not listed in BENCHMARK.json and is run by hand
    # with a longer --seconds.
    Workload("hereditary-e6", "E", 6, k=1, listed=False),
]}
