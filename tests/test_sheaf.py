"""Network sheaves: transport, Laplacian, sections, flow, descent lemmas."""
from __future__ import annotations

import math
import time

import pytest

from corpora import corpus
from sheafflow.gen import random_cochain, random_crisp_sheaf
from sheafflow.qcat import QFunctor, UnderlineQ, transport
from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    LawvereRealsQuantale,
    UnitIntervalQuantale,
)
from sheafflow.sheaf import (
    Graph,
    NetworkSheaf,
    SheafError,
    Weighting,
    check_projection_property,
    check_suffix_section_lemmas,
    constant_sheaf,
    flow_step,
    global_sections,
    harmonic_flow,
    is_fuzzy_global_section,
    laplacian,
)
from sheafflow.wlattice import lattice_for


def _bool_edge_sheaf(rest_u, rest_v):
    """Two vertices joined by one edge, Boolean truth-value stalks."""
    Q = BooleanQuantale()
    g = Graph.build(["u", "v"], [("u", "v")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    e = g.edges[0]

    def as_pair(table):
        F = QFunctor(C, C, table, name="rest")
        from sheafflow.adjunction import synthesize_right_adjoint
        res = synthesize_right_adjoint(F)
        G = QFunctor(C, C, {y: res.right(y) for y in (0, 1)}, name="corest")
        return F, G

    Fu, Gu = as_pair(rest_u)
    Fv, Gv = as_pair(rest_v)
    F = NetworkSheaf(
        g, Q, {"u": L, "v": L}, {e: L},
        {("u", e): Fu, ("v", e): Fv},
        {(e, "u"): Gu, (e, "v"): Gv},
    )
    return F, Weighting(g, Q)


def test_boolean_edge_sections_identity_transports():
    F, W = _bool_edge_sheaf({0: 0, 1: 1}, {0: 0, 1: 1})
    secs, _cat = global_sections(F, W)
    assert [tuple(sorted(s.items())) for s in secs] == [
        (("u", 0), ("v", 0)), (("u", 1), ("v", 1))]


def test_boolean_edge_sections_collapsing_transport():
    # v's restriction collapses everything to 0, so u must also restrict to 0:
    # only cochains with x_u = 0 survive, and v is then free.
    F, W = _bool_edge_sheaf({0: 0, 1: 1}, {0: 0, 1: 0})
    secs, _cat = global_sections(F, W)
    got = {tuple(sorted(s.items())) for s in secs}
    assert got == {(("u", 0), ("v", 0)), (("u", 0), ("v", 1))}


def test_laplacian_path_example():
    # path a - b with cost stalks and a shift on a's side
    Q = LawvereRealsQuantale()
    g = Graph.build(["a", "b"], [("a", "b")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    e = g.edges[0]
    from sheafflow.apps.des import _sub_clipped
    shift = QFunctor(C, C, lambda x: x + 1.0, name="shift")
    unshift = QFunctor(C, C, lambda y: _sub_clipped(y, 1.0), name="unshift")
    ident = QFunctor(C, C, lambda x: x, name="id")
    F = NetworkSheaf(
        g, Q, {"a": L, "b": L}, {e: L},
        {("a", e): shift, ("b", e): ident},
        {(e, "a"): unshift, (e, "b"): ident},
    )
    W = Weighting(g, Q)
    Lx = laplacian(F, W, {"a": 0.0, "b": 2.0})
    # b's value 2 crosses identity to the edge, then comes back through the
    # clipped unshift: (2 - 1)+ = 1
    assert Lx["a"] == 1.0
    # a's value 0 shifts to 1 on the edge and returns through the identity
    assert Lx["b"] == 1.0


def test_cochain_category_hom_frozen_value():
    Q = LawvereRealsQuantale()
    g = Graph.build(["a", "b"], [("a", "b")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    e = g.edges[0]
    ident = QFunctor(C, C, lambda x: x, name="id")
    F = NetworkSheaf(g, Q, {"a": L, "b": L}, {e: L},
                     {("a", e): ident, ("b", e): ident},
                     {(e, "a"): ident, (e, "b"): ident})
    x = {"a": 0.0, "b": 1.0}
    y = {"a": 5.0, "b": 6.0}
    # worst per-vertex residual: max over vertices of [x_v, y_v]
    assert F.cochains.hom(x, y) == 5.0
    assert F.cochains.hom(y, x) == 0.0


def test_isolated_vertex_gets_top_laplacian():
    Q = FiniteChainQuantale(3)
    g = Graph.build(["a", "b", "c"], [("a", "b")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    e = g.edges[0]
    ident = QFunctor(C, C, {x: x for x in Q.elements()}, name="id")
    F = NetworkSheaf(g, Q, {v: L for v in g.vertices}, {e: L},
                     {("a", e): ident, ("b", e): ident},
                     {(e, "a"): ident, (e, "b"): ident})
    W = Weighting(g, Q)
    Lx = laplacian(F, W, {"a": 0, "b": 1, "c": 0})
    assert Lx["c"] == 2  # empty meet over no neighbors


def test_k3_circulant_diverges():
    Q = LawvereRealsQuantale()
    g = Graph.build(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    rest, corest = {}, {}
    for e in g.edges:
        for v in e:
            w = e[1] if v == e[0] else e[0]
            if (int(v) - int(w)) % 3 == 1:
                rest[(v, e)] = transport("identity", C, C)
            else:
                rest[(v, e)] = transport("affine_shift", C, C, 1.0)
            corest[(e, v)] = rest[(v, e)].right_adjoint()
    F = NetworkSheaf(g, Q, {v: L for v in g.vertices}, {e: L for e in g.edges},
                     rest, corest)
    assert F.is_crisp()
    W = Weighting(g, Q)
    x = {"1": 0.0, "2": 0.0, "3": 0.0}
    trace = harmonic_flow(F, W, x, max_iter=50)
    assert trace.status == "max_iter_reached"
    assert trace.final == {"1": 50.0, "2": 50.0, "3": 50.0}
    assert all(s.suffix_level == 1.0 for s in trace.iterations)
    assert not is_fuzzy_global_section(F, W, x).ok
    inf = math.inf
    assert is_fuzzy_global_section(F, W, {"1": inf, "2": inf, "3": inf}).ok


def test_flow_fixed_points_are_unit_sections(rng):
    for _ in range(8):
        F, W = random_crisp_sheaf(rng)
        for x in F.cochains.objects():
            x1 = flow_step(F, W, x)
            assert F.cochains.iso(x, x1) == is_fuzzy_global_section(F, W, x).ok


def test_flow_converges_on_finite_stalks(rng):
    for _ in range(10):
        F, W = random_crisp_sheaf(rng)
        x0 = random_cochain(rng, F)
        trace = harmonic_flow(F, W, x0, max_iter=60)
        assert trace.status == "converged"
        final = trace.final
        assert is_fuzzy_global_section(F, W, final).ok


def test_projection_property_on_converging_flows(rng):
    checked = 0
    for _ in range(8):
        F, W = random_crisp_sheaf(rng)
        x0 = random_cochain(rng, F)
        rep = check_projection_property(F, W, x0, max_iter=80)
        assert rep.ok, rep.summary()
        checked += 1
    assert checked == 8


def test_descent_lemmas_on_crisp_sheaves(rng):
    for _ in range(6):
        F, W = random_crisp_sheaf(rng, unit_weights=True)
        Q = F.quantale
        cochains = [random_cochain(rng, F) for _ in range(3)]
        rep = check_suffix_section_lemmas(F, W, q=Q.unit, cochains=cochains)
        assert rep.ok, rep.summary()


def test_omega_damped_flow_still_converges():
    Q = FiniteChainQuantale(3)
    g = Graph.build(["a", "b"], [("a", "b")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    e = g.edges[0]
    ident = QFunctor(C, C, {x: x for x in Q.elements()}, name="id")
    F = NetworkSheaf(g, Q, {"a": L, "b": L}, {e: L},
                     {("a", e): ident, ("b", e): ident},
                     {(e, "a"): ident, (e, "b"): ident})
    W = Weighting(g, Q)
    trace = harmonic_flow(F, W, {"a": 2, "b": 0}, max_iter=20,
                          omega_schedule=lambda t, x: (1, Q.unit))
    assert trace.status == "converged"


def test_graph_validation():
    with pytest.raises(SheafError):
        Graph.build(["a"], [("a", "a")])
    with pytest.raises(SheafError):
        Graph.build(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(SheafError):
        Graph.build(["a"], [("a", "z")])


def test_laplacian_on_a_large_ring_reads_each_incidence_once():
    """One Laplacian costs O(V + E): 8,000 vertices take well under a second."""
    Q = LawvereRealsQuantale()
    n = 8000
    g = Graph.build(range(n), [(i, (i + 1) % n) for i in range(n)])
    F = constant_sheaf(g, Q, lattice_for(UnderlineQ(Q)))
    W = Weighting(g, Q)
    x = {v: float(v % 7) for v in g.vertices}
    t0 = time.perf_counter()
    Lx = laplacian(F, W, x)
    assert time.perf_counter() - t0 < 0.5
    assert Lx[0] == max(x[1], x[n - 1])


def test_weighting_validation():
    Q = BooleanQuantale()
    g = Graph.build(["a", "b"], [("a", "b")])
    with pytest.raises(SheafError):
        Weighting(g, Q, table={("a", "b"): 1})  # missing the reverse pair
    W = Weighting(g, Q, table={("a", "b"): 1, ("b", "a"): 0})
    assert not W.is_symmetric()


def test_transport_leaving_its_stalk_rejected_at_construction():
    Q = UnitIntervalQuantale("product")
    L = lattice_for(UnderlineQ(Q))
    g = Graph.build(["a", "b"], [("a", "b")])
    e = g.edges[0]
    ident = transport("identity", L.category, L.category)
    # only objects below 0.001 leave [0, 1]: the stalk bottom catches it
    nudge = QFunctor(L.category, L.category, lambda x: x - 0.001, name="nudge")
    with pytest.raises(SheafError, match="leaves its stalk"):
        NetworkSheaf(g, Q, {"a": L, "b": L}, {e: L},
                     {("a", e): nudge, ("b", e): ident}, {(e, "a"): ident, (e, "b"): ident})


def test_constant_sheaf_has_identity_transports():
    Q = BooleanQuantale()
    g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    F = constant_sheaf(g, Q, lattice_for(UnderlineQ(Q)))
    assert F.is_crisp()
    assert all(F.corestrictions[(e, v)](F.restrictions[(w, e)](x)) == x
               for v, w, e in g.adjacent_pairs() for x in Q.elements())


def _suffix_degrades(trace, Q) -> bool:
    """Does the suffix level hom(x_t, Lx_t) ever strictly decrease?"""
    levels = [s.suffix_level for s in trace.iterations]
    return any(Q.leq(b, a) and not Q.eq(b, a) for a, b in zip(levels, levels[1:]))


def _enriched_flow_inputs():
    """(F, W, x0) for affine Lawvere sheaves on both orders and for random DES
    systems (corpora `affine` and `des-random`)."""
    return [(c.F, c.W, c.cochains[0]) for c in corpus("affine") + corpus("des-random")]


def _doubling_sheaf():
    """k3 on Lawvere costs with x -> 2x restrictions on one orientation."""
    Q = LawvereRealsQuantale()
    g = Graph.build(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")])
    L = lattice_for(UnderlineQ(Q))
    C = L.category
    rest = {(v, e): QFunctor(C, C, (lambda x: x) if (int(v) - int(w)) % 3 == 1
                             else (lambda x: 2 * x))
            for e in g.edges for v, w in (e, e[::-1])}
    corest = {(e, v): transport("identity", C, C) for e in g.edges for v in e}
    F = NetworkSheaf(g, Q, dict.fromkeys(g.vertices, L), dict.fromkeys(g.edges, L), rest, corest)
    return F, Weighting(g, Q), {"1": 1.0, "2": 1.0, "3": 1.0}


def _laplacian_defect(F, W, xs):
    """Meet over pairs of xs of [hom(x, y), hom(Lx, Ly)] in F.cochains: the
    unit exactly when L respects the homs between them."""
    C, Q = F.cochains, F.quantale
    images = [laplacian(F, W, x) for x in xs]
    return Q.meet(Q.hom(C.hom(x, y), C.hom(Lx, Ly))
                  for x, Lx in zip(xs, images) for y, Ly in zip(xs, images))


def test_laplacian_is_an_enriched_endofunctor_of_the_cochains():
    """hom(x, y) <= hom(Lx, Ly) in F.cochains on the first 40 cochains of the
    criterion-4 corpus and on the start and first 10 iterates of the enriched
    flows; the doubling transport breaks it."""
    for case in corpus("criterion4"):
        defect = _laplacian_defect(case.F, case.W, case.cochains[:40])
        assert case.F.quantale.eq(defect, case.F.quantale.unit), case.name
    for F, W, x0 in _enriched_flow_inputs():
        trace = harmonic_flow(F, W, x0, max_iter=10)
        defect = _laplacian_defect(F, W, [s.cochain for s in trace.iterations])
        assert F.quantale.eq(defect, F.quantale.unit), (F.graph, x0)
    F, W, x0 = _doubling_sheaf()
    trace = harmonic_flow(F, W, x0, max_iter=10)
    defect = _laplacian_defect(F, W, [s.cochain for s in trace.iterations])
    assert not F.quantale.eq(defect, F.quantale.unit)


def test_suffix_level_never_degrades_under_enriched_transports():
    """With fixed weights and enriched transports, one flow step is an enriched
    endofunctor of the cochains, so hom(x_t, Lx_t) = hom(x_t, x_{t+1}) can only
    rise: on the criterion-4 corpus, affine Lawvere sheaves on both orders and
    random DES systems."""
    flows = [(c.F, c.W, x0) for c in corpus("criterion4") for x0 in c.cochains]
    for F, W, x0 in flows + _enriched_flow_inputs():
        trace = harmonic_flow(F, W, x0, max_iter=40)
        assert trace.status in ("converged", "max_iter_reached")
        assert not _suffix_degrades(trace, F.quantale), (F.graph, x0)


def test_doubling_transport_degrades_suffix_level():
    """x -> 2x is not nonexpansive on Lawvere costs, so it is no enriched
    functor: its suffix level falls on every step, and the flow still ends
    `max_iter_reached`."""
    F, W, x0 = _doubling_sheaf()
    trace = harmonic_flow(F, W, x0, max_iter=20)
    assert trace.status == "max_iter_reached"
    assert _suffix_degrades(trace, F.quantale)
