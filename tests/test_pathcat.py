import pytest

from ausglue.errors import InfiniteDimensional
from ausglue.linalg import QQ, default_field
from ausglue.quiver import (Quiver, DynkinSpec, BoundPresentation,
                            hereditary_presentation, nakayama_linear)
from ausglue.pathcat import category_from_presentation
import oracles


def a_linear(n):
    return hereditary_presentation(DynkinSpec("A", n, "linear"))


def test_a2_hom_dims():
    cat = category_from_presentation(a_linear(2), QQ)
    assert cat.dim(1, 2) == 1
    assert cat.dim(2, 1) == 0
    assert cat.dim(1, 1) == cat.dim(2, 2) == 1


def test_one_vertex():
    pres = BoundPresentation(Quiver(["v"], []), [])
    cat = category_from_presentation(pres, QQ)
    assert cat.objects == ["v"]
    assert cat.total_dimension() == 1


def test_nakayama_relations_kill_paths():
    cat = category_from_presentation(nakayama_linear(4, 3), QQ)
    assert cat.dim(1, 4) == 0
    assert cat.dim(1, 3) == 1
    assert cat.dim(2, 4) == 1


def test_commutativity_relation():
    q = Quiver([1, 2, 3], [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)])
    pres = BoundPresentation(q, [[(1, ("a", "b")), (-1, ("c",))]])
    cat = category_from_presentation(pres, QQ)
    assert cat.dim(1, 3) == 1
    g = [cat.field.one]
    f = [cat.field.one]
    assert cat.compose(1, 2, 3, g, f) == [cat.field.one]


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
