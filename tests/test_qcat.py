"""Enriched categories, functors, skeletons, and the standard constructions."""
from __future__ import annotations

import math

import pytest

from sheafflow.qcat import (
    FiniteQCategory,
    opposite,
    NotEnumerableError,
    OppositeCategory,
    PresheafPower,
    ProductCategory,
    QCategoryError,
    QFunctor,
    UnderlineQ,
    functor_defect,
    is_functor,
    object_sort_key,
    skeleton,
    transport,
    validate_category,
)
from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    LawvereRealsQuantale,
    UnitIntervalQuantale,
)


def test_underline_is_a_category(finite_quantale):
    C = UnderlineQ(finite_quantale)
    rep = validate_category(C)
    assert rep.ok, rep.summary()


def test_underline_hom_is_residual():
    Q = LawvereRealsQuantale()
    C = UnderlineQ(Q)
    assert C.hom(3.0, 5.0) == 2.0
    assert C.hom(5.0, 3.0) == 0.0


def test_opposite_swaps_hom_and_unwraps():
    Q = FiniteChainQuantale(3)
    C = UnderlineQ(Q)
    Cop = opposite(C)
    for x in Q.elements():
        for y in Q.elements():
            assert Cop.hom(x, y) == C.hom(y, x)
    assert opposite(Cop) is C


def test_product_hom_is_meet():
    Q = FiniteChainQuantale(3)
    C = UnderlineQ(Q)
    P = ProductCategory(Q, {"a": C, "b": C})
    assert P.hom({"a": 0, "b": 2}, {"a": 1, "b": 1}) == Q.meet2(C.hom(0, 1), C.hom(2, 1))
    assert validate_category(P).ok


def test_product_objects_list_each_factor_in_sort_order():
    Q = BooleanQuantale()
    chain = FiniteQCategory(Q, [1, 0], [[1, 0], [1, 1]])  # listed unsorted
    P = ProductCategory(Q, {"b": chain, "a": UnderlineQ(Q)})
    obs = P.objects()
    assert isinstance(obs, list)  # validate_category and functor_defect read it twice
    assert obs == [{"b": 0, "a": 0}, {"b": 0, "a": 1}, {"b": 1, "a": 0}, {"b": 1, "a": 1}]
    assert all(list(x) == ["b", "a"] for x in obs)
    assert P.iso(obs[1], {"a": 1, "b": 0}) and not P.iso(obs[0], obs[1])
    assert P.has_object(obs[3]) and not P.has_object({"a": 0})


def test_presheaf_power_hom_plain_and_op():
    Q = LawvereRealsQuantale()
    plain = PresheafPower(Q, 2)
    op = OppositeCategory(plain)
    x, y = (1.0, 4.0), (3.0, 3.0)
    # plain: meet of coordinate residuals [x_i, y_i]
    assert plain.hom(x, y) == Q.meet2(Q.hom(1.0, 3.0), Q.hom(4.0, 3.0))
    # op: residuals reversed per coordinate
    assert op.hom(x, y) == Q.meet2(Q.hom(3.0, 1.0), Q.hom(3.0, 4.0))
    assert op.hom((5.0, 2.0), (4.0, 0.0)) == max(5.0 - 4.0, 2.0 - 0.0)


def test_finite_category_validation_catches_bad_hom():
    Q = BooleanQuantale()
    C = FiniteQCategory(Q, [0, 1], [[1, 1], [1, 0]])
    rep = validate_category(C)
    assert not rep.ok
    assert any(v.law == "hom-unit" for v in rep.violations)


def test_functor_defect_measures_monotonicity():
    Q = BooleanQuantale()
    C = UnderlineQ(Q)
    flip = QFunctor(C, C, {0: 1, 1: 0}, name="flip")
    ident = QFunctor(C, C, {0: 0, 1: 1}, name="id")
    assert is_functor(ident)
    assert not is_functor(flip)
    assert functor_defect(flip) == 0


def test_functor_defect_graded():
    Q = UnitIntervalQuantale("product")
    C = FiniteQCategory(Q, ["x", "y"], [[1.0, 0.8], [0.0, 1.0]])
    F = QFunctor(C, C, {"x": "x", "y": "x"}, name="collapse")
    # hom(x, y) = 0.8 must map into hom(x, x) = 1: defect is the worst residual
    d = functor_defect(F)
    assert d == pytest.approx(1.0)
    G = QFunctor(C, C, {"x": "y", "y": "y"}, name="raise")
    # hom(x, y)=0.8 -> hom(y, y)=1 fine; hom(y, x)=0 -> hom(y, y)=1 fine;
    # hom(x, x)=1 -> hom(y, y)=1 fine
    assert functor_defect(G) == pytest.approx(1.0)


def test_functor_identity():
    C = UnderlineQ(FiniteChainQuantale(3))
    ident = transport("identity", C, C)
    assert all(ident(x) == x for x in (0, 1, 2))
    assert ident.kind == ("identity",) and ident.right_adjoint().kind == ("identity",)


def test_skeleton_collapses_isomorphic_objects():
    Q = BooleanQuantale()
    # two isomorphic copies of a point below a top
    C = FiniteQCategory(Q, ["a", "a2", "top"],
                        [[1, 1, 1], [1, 1, 1], [0, 0, 1]])
    S, rep_of = skeleton(C)
    assert len(S.objects()) == 2
    assert rep_of["a2"] == rep_of["a"] == "a"
    assert rep_of["top"] == "top"


def test_object_sort_key_is_total_on_mixed_objects():
    items = [frozenset([1]), (2, 1), 0.5, "z", 3]
    ordered = sorted(items, key=object_sort_key)
    assert len(ordered) == 5


def test_non_enumerable_raises():
    C = UnderlineQ(LawvereRealsQuantale())
    with pytest.raises(NotEnumerableError):
        C.objects()


def test_hom_leq_and_approx():
    Q = LawvereRealsQuantale()
    C = UnderlineQ(Q)
    assert C.hom_leq(3.0, 5.0, 2.0)
    assert not C.hom_leq(3.0, 5.0, 1.0)
    assert C.approx(3.0, 5.0, 2.0)
    assert C.iso(4.0, 4.0)
    assert not C.iso(3.0, 5.0)


def test_functor_table_names_itself_on_a_missing_object():
    C = FiniteQCategory(FiniteChainQuantale(2), [0, 1], [[1, 1], [0, 1]])
    F = QFunctor(C, C, {0: 1}, name="partial")
    assert F(0) == 1
    with pytest.raises(QCategoryError, match="partial"):
        F(1)

    def lookup(x):
        return {0: 1}[x]

    # a KeyError raised inside a callable mapping is the callable's own
    with pytest.raises(KeyError):
        QFunctor(C, C, lookup)(1)
