"""Transport kinds: every built map reports its kind, each kind's right
adjoint transposes exactly where it should, and identity pairs on one lattice
are certified at the unit without a scan.  `test_differential.py` compares
every recorded level with the reference scan."""
from __future__ import annotations

import math
from itertools import product as iproduct
from random import Random

import pytest

from corpora import corpus
from sheafflow import sheaf
from sheafflow.adjunction import adjunction_defect
from sheafflow.apps.des import DesSystem, des_sheaf, perturbed_des_sheaf
from sheafflow.apps.prefs import PreferenceCategory
from sheafflow.qcat import OppositeCategory, QFunctor, UnderlineQ, transport
from sheafflow.quantale import FiniteChainQuantale, LawvereRealsQuantale
from sheafflow.sheaf import Graph, NetworkSheaf, constant_sheaf
from sheafflow.wlattice import lattice_for
from test_differential import (LARGE, finite_transports, reference_level, reference_levels,
                               reference_objects)


def _every_sheaf():
    """Every case of the corpora whose transports all carry a kind."""
    for name in ("fixtures", "des-line", "des-random", "des-perturbed", "affine", "criterion4"):
        yield from corpus(name)


def _incidences(F):
    for e in F.graph.edges:
        for v in e:
            yield v, e, F.restrictions[(v, e)], F.corestrictions[(e, v)]


def test_every_incidence_reports_a_kind():
    """Every map the corpora build reports a kind, and the cost corpora hold
    every pair of cost kinds that `transport_level` reads."""
    pairs = set()
    for case in _every_sheaf():
        for v, e, f, g in _incidences(case.F):
            assert f.kind is not None and g.kind is not None, (case.name, v, e)
            pairs.add((f.kind[0], g.kind[0]))
    assert {kind for pair in pairs for kind in pair} == {
        "identity", "affine_shift", "affine_unshift", "max_plus", "min_plus_transpose", "table"}
    assert pairs >= {("max_plus", "min_plus_transpose"), ("affine_shift", "affine_unshift"),
                     ("affine_shift", "identity"), ("identity", "affine_unshift"),
                     ("identity", "identity")}


def test_des_corestrictions_are_the_restrictions_right_adjoints():
    system = corpus("des-line")[0].source
    F, _W = des_sheaf(system)
    for v, e, f, g in _incidences(F):
        assert f.kind == ("max_plus", system.delays[v])
        assert g.kind == ("min_plus_transpose", system.delays[v])
    Fp, _W = perturbed_des_sheaf(system, {v: (0.1, 0.2) for v in system.graph.vertices})
    for v, e, f, g in _incidences(Fp):
        assert f.kind[0] == "max_plus" and f.kind[1] != system.delays[v]
        assert g.kind == ("min_plus_transpose", system.delays[v])


def _exact_region_pairs(f, lat_v, rng):
    """(x, y) pairs where f and its right adjoint transpose exactly: y >= c
    for an affine shift by c, images f(x') for max-plus, any y for an
    identity."""
    xs = reference_objects(lat_v, rng)
    kind = f.kind[0]
    if kind == "affine_shift":
        ys = [f.kind[1] + rng.uniform(0.0, 10.0) for _ in range(12)]
    elif kind == "max_plus":
        ys = [f(x) for x in xs]
    else:
        ys = list(xs)
    return list(iproduct(xs, ys))


def test_derived_right_adjoints_transpose_exactly():
    """On the image pairs of a max-plus map with an infinite delay the
    transpose is not exact, so those cases are left out."""
    rng = Random(3)
    checked = set()
    for case in filter(finite_transports, _every_sheaf()):
        F = case.F
        for v, e, f, g in _incidences(F):
            right = f.right_adjoint()
            if right is None or g.kind != right.kind:
                continue
            Q = F.quantale
            d = adjunction_defect(f, g, _exact_region_pairs(f, F.vertex_lattices[v], rng))
            assert Q.eq(d, Q.unit), (case.name, v, e, d)
            checked.add(f.kind[0])
    assert checked == {"identity", "affine_shift", "max_plus"}


def test_kinds_without_a_right_adjoint():
    C = UnderlineQ(LawvereRealsQuantale())
    assert transport("affine_unshift", C, C, 1.0).right_adjoint() is None
    assert QFunctor(C, C, {0.0: 0.0}).right_adjoint() is None
    assert QFunctor(C, C, lambda x: x).kind is None


@pytest.fixture
def count_level_scans(monkeypatch):
    calls = []
    measure = sheaf.adjunction_defect_on

    def counted(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(sheaf, "adjunction_defect_on", counted)
    return calls


def _certified_sheaf(lattice, count_level_scans):
    """A constant sheaf certifies every incidence at the unit without a scan;
    the row `levels-vs-reference-scan` compares the corpus `constant`, built
    from the same stalks, with the scan."""
    F = constant_sheaf(corpus("constant")[0].F.graph, lattice.quantale, lattice)
    assert count_level_scans == []
    assert all(level == lattice.quantale.unit for level in F.adjunction_levels.values())


def test_certified_levels_equal_the_scan_finite(finite_quantale, count_level_scans):
    _certified_sheaf(lattice_for(UnderlineQ(finite_quantale)), count_level_scans)


def test_certified_levels_equal_the_scan_float(float_quantale, count_level_scans):
    _certified_sheaf(lattice_for(UnderlineQ(float_quantale)), count_level_scans)


def test_certified_levels_equal_the_scan_prefs_and_paths(count_level_scans):
    prefs = lattice_for(PreferenceCategory(FiniteChainQuantale(4), ["x", "y"]))
    assert prefs.is_enumerable and len(prefs.objects()) == 16
    _certified_sheaf(prefs, count_level_scans)
    paths = lattice_for(OppositeCategory(UnderlineQ(LawvereRealsQuantale())))
    assert not paths.is_enumerable
    _certified_sheaf(paths, count_level_scans)


def test_only_identity_pairs_on_one_lattice_are_certified(count_level_scans):
    Q = FiniteChainQuantale(3)
    g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ab, bc = g.edges
    L, M = lattice_for(UnderlineQ(Q)), lattice_for(UnderlineQ(Q))
    ident = transport("identity", L.category, L.category)
    opaque = QFunctor(L.category, L.category, lambda x: x)
    F = NetworkSheaf(g, Q, {"a": L, "b": L, "c": M}, {ab: L, bc: L},
                     {("a", ab): ident, ("b", ab): opaque, ("b", bc): ident, ("c", bc): ident},
                     {(ab, "a"): ident, (ab, "b"): ident, (bc, "b"): ident, (bc, "c"): ident})
    # (b, ab) has a restriction without a kind, and c's stalk is another
    # lattice object than its edge's: both are scanned, the rest certified
    assert [args[3] for args in count_level_scans] == [opaque, ident]
    assert F.adjunction_levels == reference_levels(F, 7)


def test_perturbed_level_is_not_optimistic():
    """Eight random points paired with their images put b's incidence on (b, c)
    at 0.5: only the point with one large first coordinate, paired with the
    image of zero, reaches the 1.0 of b's first noise entry."""
    g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    system = DesSystem(2, {"a": [[3, 0], [1, 2]], "b": [[0, 0], [3, 3]], "c": [[3, 2], [1, 2]]}, g)
    noise = {"a": (1.0, 0.2), "b": (1.0, 0.5), "c": (0.1, 0.4)}
    F, _W = perturbed_des_sheaf(system, noise)
    assert F.adjunction_levels[("b", ("b", "c"))] == 1.0
    assert abs(reference_level(F, "b", ("b", "c"), Random(0)) - 1.0) <= 1e-9


def test_an_infinite_delay_gets_the_bottom():
    """The clipped transpose sends a coordinate whose delay is infinite to 0, so
    the defect at a point with one large coordinate is that coordinate."""
    base = corpus("des-line")[0].source
    delays = dict(base.delays, b=((math.inf, 2.0), (1.0, 0.0)))
    F, _W = des_sheaf(DesSystem(2, delays, base.graph))
    for v, e, _f, _g in _incidences(F):
        level = F.adjunction_levels[(v, e)]
        assert level == (math.inf if v == "b" else 0.0), (v, e, level)
        if v == "b":
            assert reference_level(F, v, e, Random(0)) >= LARGE
