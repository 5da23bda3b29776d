"""Preference-relation lattice: closure, transfer maps, opinion diffusion."""
from random import Random

import pytest

from sheafflow.apps.prefs import (
    ClosureError, PreferenceCategory, bounded_confidence_weighting,
    check_relation, check_transfer_adjunction, compose_closure,
    preference_lattice, pullback, pushforward, relation_from_table,
)
from sheafflow.oracle import brute_weighted_join, brute_weighted_meet
from sheafflow.qcat import QFunctor, validate_category
from sheafflow.quantale import (
    BooleanQuantale, FiniteChainQuantale, UnitIntervalQuantale,
)
from sheafflow.wlattice import WeightedDiagram
from sheafflow.sheaf import Graph, NetworkSheaf, Weighting, harmonic_flow

B = BooleanQuantale()
ALTS = ("x", "y", "z")


def _rel(*pairs):
    """Reflexive-transitive Boolean relation generated by the listed pairs."""
    table = {(a, b): (1 if a == b or (a, b) in pairs else 0)
             for a in ALTS for b in ALTS}
    return compose_closure(B, relation_from_table(ALTS, table))


def test_relation_validation_catches_broken_transitivity():
    bad = ((1, 1, 0), (0, 1, 1), (0, 0, 1))  # x<=y, y<=z, but not x<=z
    with pytest.raises(ClosureError):
        check_relation(B, bad)


def test_closure_is_idempotent_and_minimal():
    bad = ((1, 1, 0), (0, 1, 1), (0, 0, 1))
    closed = compose_closure(B, bad)
    assert closed == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert compose_closure(B, closed) == closed
    check_relation(B, closed)


def test_boolean_preorder_count_on_three_alternatives():
    C = PreferenceCategory(B, ALTS)
    objs = C.objects()
    assert len(objs) == 29  # known preorder count for a 3-element carrier
    for P in objs:
        check_relation(B, P)
    assert C.discrete() in objs
    assert C.full() in objs


def test_category_laws_hold_boolean_and_chain():
    for Q, alts in ((B, ALTS), (FiniteChainQuantale(3), ("x", "y"))):
        C = PreferenceCategory(Q, alts)
        rep = validate_category(C)
        assert rep.ok, rep.violations[:3]


def test_hom_orders_by_entrywise_dominance():
    C = PreferenceCategory(B, ALTS)
    le = _rel(("x", "y"))
    chain = _rel(("x", "y"), ("y", "z"))
    assert C.hom(le, chain) == 1
    assert C.hom(chain, le) == 0
    assert C.hom(C.discrete(), le) == 1


def test_lattice_ops_match_brute_oracles_boolean():
    C = PreferenceCategory(B, ALTS)
    L = preference_lattice(B, ALTS)
    objs = C.objects()
    diagrams = [
        WeightedDiagram.of([(_rel(("x", "y")), 1)]),
        WeightedDiagram.of([(_rel(("x", "y")), 1), (_rel(("y", "z")), 1)]),
        WeightedDiagram.of([(_rel(("x", "y"), ("y", "x")), 1), (_rel(("y", "z")), 1)]),
    ]
    for D in diagrams:
        m = L.weighted_meet(D)
        j = L.weighted_join(D)
        assert [m] == brute_weighted_meet(L, D)
        assert [j] == brute_weighted_join(L, D)
        assert L.verify_universal_property(D, m, "meet", probes=objs).ok
        assert L.verify_universal_property(D, j, "join", probes=objs).ok


def test_join_applies_transitive_closure():
    L = preference_lattice(B, ALTS)
    D = WeightedDiagram.of([(_rel(("x", "y")), 1), (_rel(("y", "z")), 1)])
    j = L.weighted_join(D)
    assert j == _rel(("x", "y"), ("y", "z"))  # contains the composite x<=z
    idx = {a: i for i, a in enumerate(ALTS)}
    assert j[idx["x"]][idx["z"]] == 1


def test_lattice_ops_match_brute_oracles_chain():
    Q = FiniteChainQuantale(3)
    alts = ("x", "y")
    C = PreferenceCategory(Q, alts)
    L = preference_lattice(Q, alts)
    objs = C.objects()
    assert len(objs) == 9
    rng = Random(31)
    for _ in range(12):
        D = WeightedDiagram.of(
            [(rng.choice(objs), rng.choice(range(3))) for _ in range(rng.randint(1, 3))])
        assert L.weighted_meet(D) in brute_weighted_meet(L, D)
        assert L.weighted_join(D) in brute_weighted_join(L, D)


def test_pullback_reindexes_along_map():
    Cxy = PreferenceCategory(B, ("u", "w"))
    C3 = PreferenceCategory(B, ALTS)
    M = ((1, 1), (0, 1))  # u <= w
    f = {"x": "u", "y": "u", "z": "w"}
    got = pullback(f, M, C3, Cxy)
    # x,y land on u, z on w: x~y equivalent, both below z
    assert got == ((1, 1, 1), (1, 1, 1), (0, 0, 1))
    check_relation(B, got)


def test_pushforward_is_least_dominating_image():
    C3 = PreferenceCategory(B, ALTS)
    C2 = PreferenceCategory(B, ("u", "w"))
    f = {"x": "u", "y": "u", "z": "w"}
    pushed = pushforward(f, _rel(("x", "y")), C3, C2)
    assert pushed == ((1, 0), (0, 1))  # x<=y collapses inside the u-fiber
    pushed2 = pushforward(f, _rel(("y", "z")), C3, C2)
    assert pushed2 == ((1, 1), (0, 1))


def test_pushforward_collapse_to_point():
    C3 = PreferenceCategory(B, ALTS)
    C1 = PreferenceCategory(B, ("u",))
    f = {"x": "u", "y": "u", "z": "u"}
    for P in (C3.discrete(), _rel(("x", "y")), C3.full()):
        assert pushforward(f, P, C3, C1) == ((1,),)


def test_transfer_adjunction_exhaustive_boolean():
    C3 = PreferenceCategory(B, ALTS)
    C2 = PreferenceCategory(B, ("u", "w"))
    f = {"x": "u", "y": "u", "z": "w"}
    rep = check_transfer_adjunction(f, C3, C2)
    assert rep.ok, rep.violations[:3]
    assert rep.checks == len(C3.objects()) * len(C2.objects())


def test_transfer_adjunction_exhaustive_chain():
    Q = FiniteChainQuantale(3)
    Cd = PreferenceCategory(Q, ("x", "y"))
    Cc = PreferenceCategory(Q, ("u",))
    f = {"x": "u", "y": "u"}
    rep = check_transfer_adjunction(f, Cd, Cc)
    assert rep.ok, rep.violations[:3]


def _prefs_sheaf():
    """Path p - q - r with shared Boolean preference stalks and identity maps."""
    g = Graph.build(["p", "q", "r"], [("p", "q"), ("q", "r")])
    L = preference_lattice(B, ALTS)
    C = L.category
    ident = QFunctor(C, C, lambda P: P, name="id")
    rest = {(v, e): ident for e in g.edges for v in e}
    corest = {(e, v): ident for e in g.edges for v in e}
    F = NetworkSheaf(g, B, {v: L for v in g.vertices}, {e: L for e in g.edges},
                     rest, corest)
    return F, g


def test_bounded_confidence_zero_update_for_distant_neighbor():
    F, g = _prefs_sheaf()
    C = PreferenceCategory(B, ALTS)
    x0 = {
        "p": _rel(("x", "y"), ("y", "z")),
        "q": _rel(("x", "y")),
        "r": _rel(("z", "y"), ("y", "x")),
    }
    # p and q trust everything; r trusts only exact agreement
    eps = {"p": B.bottom, "q": B.bottom, "r": B.unit}
    schedule = bounded_confidence_weighting(F, eps)
    W0 = schedule(0, x0)
    assert W0("p", "q") == B.unit
    assert W0("r", "q") == B.bottom  # r sees q as too far: no influence
    tr = harmonic_flow(F, Weighting(g, B), x0, weight_schedule=schedule)
    assert tr.status == "converged"
    assert tr.final["r"] == x0["r"]  # distrustful vertex never moves
    assert tr.final["p"] == tr.final["q"] == C.discrete()


def test_cotensor_by_a_non_idempotent_weight_raises_naming_it():
    # over the product t-norm, [0.5, -] breaks P(x,y) * P(y,z) <= P(x,z) here
    Q = UnitIntervalQuantale("product")
    L = preference_lattice(Q, ALTS)
    P = ((1.0, 0.4, 0.16), (0.0, 1.0, 0.4), (0.0, 0.0, 1.0))
    assert L.category.has_object(P)
    with pytest.raises(ClosureError, match="0.5"):
        L.cotensor(0.5, P)
    for q in (0.0, 1.0):  # idempotent weights keep it transitive
        assert L.category.has_object(L.cotensor(q, P))
