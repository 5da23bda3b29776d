"""Transport kinds: every built map reports its kind, each kind's right
adjoint transposes exactly where it should, and identity pairs on one
lattice are certified at the unit without a scan."""
from __future__ import annotations

import glob
import json
import os
from itertools import product as iproduct
from random import Random

import pytest

from sheafflow import sheaf
from sheafflow.adjunction import adjunction_defect
from sheafflow.apps.des import DesSystem, des_sheaf, perturbed_des_sheaf
from sheafflow.apps.prefs import PreferenceCategory
from sheafflow.fileio import load_input
from sheafflow.gen import random_crisp_sheaf
from sheafflow.qcat import OppositeCategory, QFunctor, UnderlineQ, transport
from sheafflow.quantale import FiniteChainQuantale, LawvereRealsQuantale
from sheafflow.sheaf import Graph, NetworkSheaf, constant_sheaf
from sheafflow.wlattice import lattice_for

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _sheaf_fixtures():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            if json.load(fh)["kind"] == "sheaf":
                yield os.path.basename(path), load_input(path)[1][0]


def _des_system():
    g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return DesSystem(m=2, delays={"a": ((1.0, 3.0), (2.0, 1.0)), "b": ((0.0, 2.0), (1.0, 0.0)),
                                  "c": ((2.0, 0.0), (0.0, 1.0))}, graph=g)


def _every_sheaf():
    yield from _sheaf_fixtures()
    system = _des_system()
    yield "des_sheaf", des_sheaf(system)[0]
    noise = {v: (0.1, 0.2) for v in system.graph.vertices}
    yield "perturbed_des_sheaf", perturbed_des_sheaf(system, noise)[0]
    for seed in range(12):
        yield f"random_crisp_sheaf[{seed}]", random_crisp_sheaf(Random(seed))[0]


def _incidences(F):
    for e in F.graph.edges:
        for v in e:
            yield v, e, F.restrictions[(v, e)], F.corestrictions[(e, v)]


def test_every_incidence_reports_a_kind():
    seen = set()
    for name, F in _every_sheaf():
        for v, e, f, g in _incidences(F):
            assert f.kind is not None and g.kind is not None, (name, v, e)
            seen.update((f.kind[0], g.kind[0]))
    assert seen == {"identity", "affine_shift", "affine_unshift", "max_plus",
                    "min_plus_transpose", "table"}


def test_des_corestrictions_are_the_restrictions_right_adjoints():
    system = _des_system()
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
    xs = [lat_v.sample_object(rng) for _ in range(12)]
    kind = f.kind[0]
    if kind == "affine_shift":
        ys = [f.kind[1] + rng.uniform(0.0, 10.0) for _ in range(12)]
    elif kind == "max_plus":
        ys = [f(x) for x in xs]
    else:
        ys = list(xs)
    return list(iproduct(xs, ys))


def test_derived_right_adjoints_transpose_exactly():
    rng = Random(3)
    checked = set()
    for name, F in _every_sheaf():
        for v, e, f, g in _incidences(F):
            right = f.right_adjoint()
            if right is None or g.kind != right.kind:
                continue
            Q = F.quantale
            d = adjunction_defect(f, g, _exact_region_pairs(f, F.vertex_lattices[v], rng))
            assert Q.eq(d, Q.unit), (name, v, e, d)
            checked.add(f.kind[0])
    assert checked == {"identity", "affine_shift", "max_plus"}


def test_kinds_without_a_right_adjoint():
    C = UnderlineQ(LawvereRealsQuantale())
    assert transport("affine_unshift", C, C, 1.0).right_adjoint() is None
    assert QFunctor(C, C, {0.0: 0.0}).right_adjoint() is None
    assert QFunctor(C, C, lambda x: x).kind is None


def _reference_levels(F):
    """The levels as every incidence was measured before identity pairs were
    certified: all stalk pairs when enumerable, else 8 draws from one shared
    Random(7) per incidence, paired with their restriction images."""
    rng = Random(7)
    levels = {}
    for v, e, f, g in _incidences(F):
        lat_v, lat_e = F.vertex_lattices[v], F.edge_lattices[e]
        if lat_v.is_enumerable and lat_e.is_enumerable:
            xs, ys = lat_v.objects(), lat_e.objects()
        else:
            xs = [lat_v.sample_object(rng) for _ in range(8)]
            ys = [f(x) for x in xs]
        levels[(v, e)] = adjunction_defect(f, g, iproduct(xs, ys))
    return levels


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
    g = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    F = constant_sheaf(g, lattice.quantale, lattice)
    assert count_level_scans == []
    want = _reference_levels(F)
    assert F.adjunction_levels == want
    assert all(level == lattice.quantale.unit for level in want.values())
    return F


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
    assert F.adjunction_levels == _reference_levels(F)
