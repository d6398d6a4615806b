import pytest

from ausglue.errors import InfiniteDimensional
from ausglue.linalg import GF, QQ, default_field
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
import oracles


def a_linear(n):
    return hereditary_presentation(DynkinSpec("A", n, "linear"))


def test_a2_hom_dims():
    cat = category_from_presentation(a_linear(2), QQ)
    assert cat.homdim[(1, 2)] == 1
    assert cat.homdim[(2, 1)] == 0
    assert cat.homdim[(1, 1)] == cat.homdim[(2, 2)] == 1


def test_one_vertex():
    pres = BoundPresentation(Quiver(["v"], []), [])
    cat = category_from_presentation(pres, QQ)
    assert cat.objects == ["v"]
    assert cat.total_dimension() == 1


def test_nakayama_relations_kill_paths():
    cat = category_from_presentation(nakayama_linear(4, 3), QQ)
    assert cat.homdim[(1, 4)] == 0
    assert cat.homdim[(1, 3)] == 1
    assert cat.homdim[(2, 4)] == 1


def test_commutativity_relation():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)])
    pres = BoundPresentation(q, [[(1, ("a", "b")), (-1, ("c",))]])
    cat = category_from_presentation(pres, QQ)
    assert cat.homdim[(1, 3)] == 1
    g = [cat.field.one]
    f = [cat.field.one]
    assert oracles.compose(cat, 1, 2, 3, g, f) == [cat.field.one]


def test_axioms_hold():
    for pres in (a_linear(3), nakayama_linear(4, 3),
                 hereditary_presentation(DynkinSpec("D", 4))):
        cat = category_from_presentation(pres, default_field())
        assert oracles.check_associativity(cat) == (True, None)
        assert oracles.check_identities(cat) == (True, None)


def test_loop_is_infinite_dimensional():
    q = Quiver([1], [("a", 1, 1)])
    with pytest.raises(InfiniteDimensional):
        category_from_presentation(BoundPresentation(q, []), QQ)


def _presentation_grid():
    """Dynkin quivers of types A1-A7, D4-D7 and E6-E8 in several
    orientations, the linear Nakayama algebras (m, l) for 2 <= l <= m <= 6,
    and a commutative square with and without a zero relation."""
    out = []
    for letter, ranks in (("A", range(1, 8)), ("D", range(4, 8)),
                          ("E", (6, 7, 8))):
        for n in ranks:
            edges = DynkinSpec(letter, n).edges()
            zigzag = [(a, b) if i % 2 else (b, a)
                      for i, (a, b) in enumerate(edges)]
            for orient in ("out", "in", zigzag):
                out.append(hereditary_presentation(
                    DynkinSpec(letter, n, orient)))
    out.extend(nakayama_linear(m, ell)
               for m in range(2, 7) for ell in range(2, m + 1))
    square = Quiver([1, 2, 3, 4], [("a", 1, 2), ("b", 2, 4),
                                   ("c", 1, 3), ("d", 3, 4)])
    commute = [(1, ("a", "b")), (-1, ("c", "d"))]
    out.append(BoundPresentation(square, [commute]))
    out.append(BoundPresentation(square, [commute, [(1, ("a", "b"))]]))
    return out


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
def test_sparse_build_matches_dense_reference(field):
    """The path category built along the paths equals the one built over
    every vertex pair and triple: the same objects, hom dimensions and
    structure constants, in the same dict order."""
    for pres in _presentation_grid():
        cat = category_from_presentation(pres, field)
        ref = oracles.dense_category_from_presentation(pres, field)
        assert cat.objects == ref.objects
        assert list(cat.homdim.items()) == list(ref.homdim.items())
        assert list(cat.comp.items()) == list(ref.comp.items())
