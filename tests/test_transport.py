"""Transport kinds: every built map reports its kind, each kind's right
adjoint transposes exactly where it should, identity pairs on one lattice
are certified at the unit without a scan, and the levels read off cost
transport kinds equal the supremum of a sampled reference scan."""
from __future__ import annotations

import glob
import json
import math
import os
from itertools import product as iproduct
from random import Random

import pytest

from sheafflow import sheaf
from sheafflow.adjunction import adjunction_defect
from sheafflow.apps.des import DesSystem, des_sheaf, perturbed_des_sheaf
from sheafflow.apps.prefs import PreferenceCategory
from sheafflow.fileio import load_input, load_sheaf
from sheafflow.gen import random_crisp_sheaf
from sheafflow.qcat import OppositeCategory, QFunctor, UnderlineQ, object_sort_key, transport
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


LARGE = 1000.0


def _reference_objects(lat, rng, n=12):
    """Reference objects for a level scan: every object of an enumerable
    stalk, else n draws from its quantale plus, on Lawvere stalks, zero and
    each point with one large coordinate, where the level of a cost-transport
    pair is attained."""
    if lat.is_enumerable:
        return lat.objects()
    C = lat.category
    Q = C.quantale
    m = getattr(getattr(C, "base", C), "m", None)
    lawvere = isinstance(Q, LawvereRealsQuantale)
    if m is None:
        return [Q.sample(rng) for _ in range(n)] + ([0.0, LARGE] if lawvere else [])
    extremal = [tuple(LARGE if i == k else 0.0 for i in range(m)) for k in range(-1, m)]
    return [tuple(Q.sample(rng) for _ in range(m)) for _ in range(n)] + (extremal if lawvere else [])


def _reference_level(F, v, e, rng):
    """Transposition defect of an incidence over the pairs (x, f_v(x')) of
    reference objects, or over all stalk pairs when enumerable."""
    lat_v, lat_e = F.vertex_lattices[v], F.edge_lattices[e]
    f, g = F.restrictions[(v, e)], F.corestrictions[(e, v)]
    xs = _reference_objects(lat_v, rng)
    ys = lat_e.objects() if lat_v.is_enumerable and lat_e.is_enumerable else [f(x) for x in xs]
    return adjunction_defect(f, g, iproduct(xs, ys))


def _exact_region_pairs(f, lat_v, rng):
    """(x, y) pairs where f and its right adjoint transpose exactly: y >= c
    for an affine shift by c, images f(x') for max-plus, any y for an
    identity."""
    xs = _reference_objects(lat_v, rng)
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
    """Every incidence's reference level, as `_reference_level` measures it."""
    rng = Random(7)
    return {(v, e): _reference_level(F, v, e, rng) for v, e, _f, _g in _incidences(F)}


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


def _random_des_system(rng, n):
    """A random tree of n vertices plus one chord, with m x m integer delays."""
    names = [f"v{i}" for i in range(n)]
    edges = {tuple(sorted((names[i], names[rng.randrange(i)]))) for i in range(1, n)}
    edges.add(tuple(sorted(rng.sample(names, 2))))
    m = rng.randint(1, 3)
    delays = {v: [[float(rng.randint(0, 6)) for _ in range(m)] for _ in range(m)] for v in names}
    return DesSystem(m, delays, Graph.build(names, edges))


def _uniform_noise(rng, system):
    return {v: tuple(rng.uniform(0.0, 1.0) for _ in range(system.m)) for v in system.graph.vertices}


def _affine_payload(rng, order):
    """A 4-cycle of Lawvere stalks in `order` with random identity and affine
    restrictions; each corestriction is derived, an unshift by another
    constant, or an identity."""
    edges = [("0", "1"), ("1", "2"), ("2", "3"), ("0", "3")]
    restrictions, corestrictions = {}, {}
    for u, w in edges:
        for v in (u, w):
            key = f"{v}|{u},{w}"
            c = rng.choice([0.0, 0.5, 1.0, 2.5])
            restrictions[key] = rng.choice([{"kind": "identity"}, {"kind": "affine_shift", "c": c}])
            corest = rng.choice([None, {"kind": "identity"},
                                 {"kind": "affine_unshift", "c": rng.choice([0.0, 1.0, 3.0])}])
            if corest is not None:
                corestrictions[key] = corest
    return {"kind": "sheaf", "quantale": {"kind": "lawvere_reals"}, "stalk": {"kind": order},
            "vertices": ["0", "1", "2", "3"], "edges": [list(e) for e in edges],
            "restrictions": restrictions, "corestrictions": corestrictions}


def _cost_sheaves():
    rng = Random(5)
    for k in range(8):
        system = _random_des_system(rng, rng.randint(3, 6))
        yield f"des_sheaf[{k}]", des_sheaf(system)[0]
        yield f"perturbed_des_sheaf[{k}]", perturbed_des_sheaf(system, _uniform_noise(rng, system))[0]
    for order in ("underline", "underline_op"):
        for k in range(4):
            yield f"affine {order}[{k}]", load_sheaf(_affine_payload(rng, order))[0]
    yield from ((name, F) for name, F in _sheaf_fixtures() if name == "k3_circulant.json")


def test_closed_form_levels_equal_the_reference_supremum():
    rng = Random(11)
    kinds = set()
    for name, F in _cost_sheaves():
        for v, e, f, g in _incidences(F):
            level, reference = F.adjunction_levels[(v, e)], _reference_level(F, v, e, rng)
            assert abs(level - reference) <= 1e-9, (name, v, e, f.kind, g.kind, level, reference)
            kinds.add((f.kind[0], g.kind[0]))
    assert kinds >= {("max_plus", "min_plus_transpose"), ("affine_shift", "affine_unshift"),
                     ("affine_shift", "identity"), ("identity", "affine_unshift"),
                     ("identity", "identity")}


def test_perturbed_level_is_not_optimistic():
    """Eight random points paired with their images put b's incidence on (b, c)
    at 0.5: only the point with one large first coordinate, paired with the
    image of zero, reaches the 1.0 of b's first noise entry."""
    g = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    system = DesSystem(2, {"a": [[3, 0], [1, 2]], "b": [[0, 0], [3, 3]], "c": [[3, 2], [1, 2]]}, g)
    noise = {"a": (1.0, 0.2), "b": (1.0, 0.5), "c": (0.1, 0.4)}
    F, _W = perturbed_des_sheaf(system, noise)
    assert F.adjunction_levels[("b", ("b", "c"))] == 1.0
    assert abs(_reference_level(F, "b", ("b", "c"), Random(0)) - 1.0) <= 1e-9


def test_an_infinite_delay_gets_the_bottom():
    """The clipped transpose sends a coordinate whose delay is infinite to 0, so
    the defect at a point with one large coordinate is that coordinate."""
    base = _des_system()
    delays = dict(base.delays, b=((math.inf, 2.0), (1.0, 0.0)))
    F, _W = des_sheaf(DesSystem(2, delays, base.graph))
    for v, e, _f, _g in _incidences(F):
        level = F.adjunction_levels[(v, e)]
        assert level == (math.inf if v == "b" else 0.0), (v, e, level)
        if v == "b":
            assert _reference_level(F, v, e, Random(0)) >= LARGE


def test_levels_do_not_depend_on_vertex_names():
    rng = Random(13)
    for _ in range(12):
        system = _random_des_system(rng, rng.randint(6, 12))
        noise = _uniform_noise(rng, system)
        names = system.graph.vertices
        rename = dict(zip(names, reversed(names)))
        relabeled = DesSystem(system.m, {rename[v]: M for v, M in system.delays.items()},
                              Graph.build(names, [(rename[u], rename[w]) for u, w in system.graph.edges]))
        F, _W = perturbed_des_sheaf(system, noise)
        G, _W = perturbed_des_sheaf(relabeled, {rename[v]: eta for v, eta in noise.items()})
        for (v, e), level in F.adjunction_levels.items():
            image = tuple(sorted(map(rename.get, e), key=object_sort_key))
            assert G.adjunction_levels[(rename[v], image)] == level, (v, e)
