import os
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ausglue.cli import main
from ausglue.errors import (AusglueError, InvalidDynkinSpec, InvalidParams,
                            InfiniteDimensional)
from ausglue.fincat import FinCategory
from ausglue.knitting import knit
from ausglue.linalg import default_field
from ausglue.pathcat import category_from_presentation
from ausglue.quiver import (Quiver, DynkinSpec, dynkin_quiver,
                            nakayama_linear, parse_quiver_file,
                            topological_order)
import oracles


def test_dynkin_spec_validation():
    with pytest.raises(InvalidDynkinSpec):
        DynkinSpec("B", 3)
    with pytest.raises(InvalidDynkinSpec):
        DynkinSpec("D", 3)
    with pytest.raises(InvalidDynkinSpec):
        DynkinSpec("E", 9)
    with pytest.raises(InvalidDynkinSpec):
        DynkinSpec("A", 0)
    assert DynkinSpec("a", 3).letter == "A"


def test_dynkin_quiver_orientations():
    q = dynkin_quiver(DynkinSpec("A", 3, "linear"))
    assert [(s, t) for _, s, t in q.arrows] == [(1, 2), (2, 3)]
    q = dynkin_quiver(DynkinSpec("A", 3, "alternating"))
    assert [(s, t) for _, s, t in q.arrows] == [(1, 2), (3, 2)]
    q = dynkin_quiver(DynkinSpec("D", 4, "out"))
    assert [(s, t) for _, s, t in q.arrows] == [(1, 2), (1, 3), (1, 4)]
    q = dynkin_quiver(DynkinSpec("D", 4, "in"))
    assert [(s, t) for _, s, t in q.arrows] == [(2, 1), (3, 1), (4, 1)]
    q = dynkin_quiver(DynkinSpec("A", 1))
    assert q.vertices == [1] and q.arrows == []
    with pytest.raises(InvalidDynkinSpec):
        dynkin_quiver(DynkinSpec("A", 3, "sideways"))
    with pytest.raises(InvalidDynkinSpec):
        dynkin_quiver(DynkinSpec("A", 3, [(1, 2), (2, 1)]))


def test_positive_root_counts():
    assert DynkinSpec("A", 3).positive_root_count() == 6
    assert DynkinSpec("A", 4).positive_root_count() == 10
    assert DynkinSpec("D", 4).positive_root_count() == 12
    assert DynkinSpec("E", 6).positive_root_count() == 36


def test_quiver_validation_and_opposite():
    with pytest.raises(InvalidParams):
        Quiver([1], [("a", 1, 2)])
    with pytest.raises(InvalidParams):
        Quiver([1, 2], [("a", 1, 2), ("a", 2, 1)])
    q = dynkin_quiver(DynkinSpec("D", 4))
    assert q.is_acyclic
    cyc = Quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    assert not cyc.is_acyclic


@st.composite
def _digraphs(draw):
    """Vertices 0..n-1 in a drawn order and arrows between them, loops and
    repeats allowed: any, or only those forward in a second drawn order,
    which have no cycle."""
    n = draw(st.integers(1, 7))
    vertices = draw(st.permutations(range(n)))
    arrows = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                     st.sampled_from(vertices)), max_size=14))
    if draw(st.booleans()):
        rank = {v: i for i, v in enumerate(draw(st.permutations(range(n))))}
        arrows = [(s, t) for s, t in arrows if rank[s] < rank[t]]
    return vertices, arrows


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_topological_order_matches_reference(digraph):
    """topological_order on successor lists, and Quiver.is_acyclic
    through it, give the order of the reference Kahn's algorithm, ties
    broken by vertex position, or None with it on a cycle."""
    vertices, arrows = digraph
    q = Quiver(vertices, [("a%d" % i, s, t)
                          for i, (s, t) in enumerate(arrows)])
    succ = {v: [] for v in vertices}
    for s, t in arrows:
        succ[s].append(t)
    expected = oracles.topological_order(q)
    assert topological_order(vertices, succ) == expected
    assert q.is_acyclic == (expected is not None)


def test_nakayama_presentation():
    pres = nakayama_linear(4, 3)
    assert len(pres.relations) == 1
    assert pres.relations[0] == [(1, ("a1", "a2", "a3"))]
    assert nakayama_linear(2, 2).relations == []
    with pytest.raises(InvalidParams):
        nakayama_linear(1, 2)
    with pytest.raises(InvalidParams):
        nakayama_linear(4, 1)


def test_relation_endpoint_validation():
    q = dynkin_quiver(DynkinSpec("A", 3, "linear"))
    from ausglue.quiver import BoundPresentation
    with pytest.raises(InvalidParams):
        BoundPresentation(q, [[(1, ("a1",)), (1, ("a2",))]])
    with pytest.raises(InvalidParams):
        BoundPresentation(q, [[(1, ("a2", "a1"))]])
    with pytest.raises(InvalidParams):
        BoundPresentation(q, [[]])
    with pytest.raises(InvalidParams, match="unknown arrow 'zz'"):
        BoundPresentation(q, [[(1, ("a1", "zz"))]])


def test_parse_quiver_file():
    pres = parse_quiver_file("dynkin A 3 linear\n")
    assert [(s, t) for _, s, t in pres.quiver.arrows] == [(1, 2), (2, 3)]
    text = """# comment
quiver
arrow a 1 2
arrow b 2 3
arrow c 1 3
relation 1*a.b; -1*c
"""
    pres = parse_quiver_file(text)
    assert len(pres.quiver.arrows) == 3
    assert pres.relations == [[(1, ("a", "b")), (-1, ("c",))]]
    with pytest.raises(InvalidParams):
        parse_quiver_file("")
    with pytest.raises(InvalidParams):
        parse_quiver_file("nonsense\n")
    with pytest.raises(InvalidParams):
        parse_quiver_file("dynkin A 3\narrow a 1 2\n")


@pytest.mark.parametrize("text, message", [
    ("quiver\narrow\n", "'arrow'"),
    ("quiver\narrow a 1\n", "'arrow a 1'"),
    ("quiver\narrow a 1 2 3\n", "'arrow a 1 2 3'"),
    ("quiver\narrow a 1 2\nrelation 1*zz\n", "unknown arrow 'zz'"),
    ("quiver\narrow a 1 2\nrelation\n", "empty relation"),
    ("quiver\n", "no vertices"),
    ("dynkin A x\n", "dynkin rank must be an integer, got 'x' "
                     "in line 'dynkin A x'"),
    ("quiver\narrow a 1 2\nrelation x*a\n",
     r"relation coefficient must be an integer, got 'x' "
     r"in line 'relation x\*a'"),
    ("dynkin A 3 linear junk more\n",
     "dynkin header needs letter and rank, then at most an orientation: "
     "'dynkin A 3 linear junk more'"),
    ("dynkin A 3 linear junk\n", "'dynkin A 3 linear junk'"),
    ("quiver whatever\narrow a 1 2\n", "unknown header 'quiver whatever'"),
])
def test_parse_quiver_file_rejects_malformed(text, message):
    with pytest.raises(InvalidParams, match=message):
        parse_quiver_file(text)


# an explicit alphabet: the file syntax, plus a tab, a carriage return and
# a few non-ASCII letters
_ALPHABET = "abdeqrAEDuivw0123456789-.*;#: \t\r\n\u00e9\u03b1"
_VERTEX = st.sampled_from(["1", "2", "3", "4", "x"])
_ARROW_ID = st.sampled_from(["a", "b", "c", "d"])
_PATH = st.lists(_ARROW_ID, min_size=0, max_size=3).map(".".join)
_TERM = st.one_of(_PATH, st.tuples(
    st.sampled_from(["1", "-1", "2", "0", "x", ""]), _PATH).map("*".join))
_ARROW_LINE = st.tuples(_ARROW_ID, _VERTEX, _VERTEX).map(
    lambda t: "arrow %s %s %s" % t)
_RELATION_LINE = st.lists(_TERM, max_size=3).map(
    lambda ts: "relation " + ";".join(ts))
_LINE = st.one_of(
    _ARROW_LINE, _RELATION_LINE,
    st.sampled_from(["arrow", "arrow a 1", "relation", "# comment", "",
                     "dynkin A 3", "quiver"]),
    st.text(_ALPHABET, max_size=12))
_HEADER = st.one_of(
    st.just("quiver"),
    st.tuples(st.sampled_from(["A", "D", "E", "B", "a"]),
              st.sampled_from(["0", "1", "3", "4", "6", "9", "x"]),
              st.sampled_from(["", " linear", " alternating", " out", " in",
                               " sideways"]))
    .map(lambda t: "dynkin %s %s%s" % t),
    st.text(_ALPHABET, max_size=12))
_QUIVER_TEXT = st.one_of(
    # acyclic, with distinct arrow ids, so that many texts reach the path
    # category
    st.tuples(st.lists(st.tuples(_VERTEX, _VERTEX).filter(
        lambda e: e[0] < e[1]), min_size=1, max_size=5),
        st.lists(st.lists(st.lists(st.sampled_from(["a0", "a1", "a2"]),
                                   min_size=1, max_size=3).map(".".join),
                          min_size=1, max_size=2), max_size=2))
    .map(lambda t: "\n".join(
        ["quiver"] + ["arrow a%d %s %s" % (i, s, d)
                      for i, (s, d) in enumerate(t[0])]
        + ["relation " + ";".join("-1*" + p for p in rel) for rel in t[1]])),
    st.tuples(_HEADER, st.lists(_LINE, max_size=6))
    .map(lambda t: "\n".join([t[0]] + t[1])),
    st.text(_ALPHABET, max_size=40))


@settings(max_examples=300, deadline=None)
@given(_QUIVER_TEXT)
def test_quiver_file_gives_category_or_input_error(text):
    """Every quiver file either gives a finite category or is refused with
    one of the three input errors, which the command line exits 2 on.
    Knitting a category it gives either returns pairwise distinct
    dimension vectors or is refused with a package error."""
    try:
        cat = category_from_presentation(parse_quiver_file(text),
                                         default_field())
    except (InvalidParams, InvalidDynkinSpec, InfiniteDimensional):
        return
    assert isinstance(cat, FinCategory)
    try:
        ar = knit(cat)
    except AusglueError:
        return
    dimvecs = [dv for _, dv in ar.vertices]
    assert len(set(dimvecs)) == len(dimvecs)


@settings(max_examples=100, deadline=60000)
@given(_QUIVER_TEXT, st.integers(1, 3), st.integers(0, 2))
def test_verify_on_quiver_file_ends_in_an_exit_code(text, n, k):
    """`ausglue verify` on any quiver file, with any n and k in range, ends
    with exit 0 (every claim holds), 1 (a claim evaluated false) or 2
    (refused with a reason), never with a traceback.  The deadline is
    generous: most inputs take milliseconds, E6 with k = 2 about 2 s and
    D9 with k = 2 about 12 s on a 2-CPU machine."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "fuzz.quiver")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        r = CliRunner().invoke(main, ["verify", "--quiver-file", path,
                                      "--k", str(k), "--n", str(n)])
    assert r.exit_code in (0, 1, 2)
    assert r.exception is None or isinstance(r.exception, SystemExit)
