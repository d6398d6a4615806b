import pytest

from ausglue.errors import InvalidDynkinSpec, InvalidParams
from ausglue.quiver import (Quiver, DynkinSpec, dynkin_quiver,
                            hereditary_presentation, nakayama_linear,
                            parse_quiver_file)


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
    qq = q.opposite().opposite()
    assert qq.arrows == q.arrows
    cyc = Quiver([1, 2], [("a", 1, 2), ("b", 2, 1)])
    assert not cyc.is_acyclic


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
])
def test_parse_quiver_file_rejects_malformed(text, message):
    with pytest.raises(InvalidParams, match=message):
        parse_quiver_file(text)
