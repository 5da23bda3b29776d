"""Named, seeded corpora shared by the test suite.

A corpus is a tuple of `Case(name, F, W, cochains, source)`: a sheaf, its
weighting, the cochains the tests feed it, and what it was built from (a
`DesSystem`, a path query) where a test reads that too.  A lattice corpus
holds the lattice in F and weighted diagrams over it in `cochains`.

`corpus(name)` builds each corpus once per session and hands every caller
the same cases, so no test may change them.  To add a corpus, decorate
its builder with `@registered("name")` and read it from a row of
`test_differential.py`, which checks that every corpus is read.
"""
from __future__ import annotations

import functools
import glob
import json
import math
import os
from itertools import product
from random import Random
from typing import Any, NamedTuple

from sheafflow.apps.des import DesSystem, des_sheaf, perturbed_des_sheaf
from sheafflow.apps.prefs import PreferenceCategory, preference_lattice
from sheafflow.fileio import load_input, load_sheaf
from sheafflow.gen import LATTICE_FAMILIES, random_connected_graph, random_crisp_sheaf, random_lattice
from sheafflow.qcat import OppositeCategory, PresheafPower, UnderlineQ
from sheafflow.quantale import (BooleanQuantale, FiniteChainQuantale, FinitePowersetQuantale,
                                LawvereRealsQuantale, UnitIntervalQuantale)
from sheafflow.sheaf import Graph, Weighting, constant_sheaf, harmonic_flow
from sheafflow.wlattice import WeightedDiagram, lattice_for

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


class Case(NamedTuple):
    name: str
    F: Any
    W: Any = None
    cochains: tuple = ()
    source: Any = None


BUILDERS = {}


def registered(name):
    def register(build):
        BUILDERS[name] = build
        return build
    return register


@functools.cache
def corpus(name: str) -> tuple[Case, ...]:
    return tuple(BUILDERS[name]())


@registered("criterion4")
def _criterion4():
    """The crisp sheaves of acceptance criterion 4, with all their cochains."""
    rng = Random(0xACC4)
    for k in range(50):
        F, W = random_crisp_sheaf(rng)
        yield Case(f"crisp[{k}]", F, W, tuple(F.cochains.objects()))


@registered("fixtures")
def _fixtures():
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            if json.load(fh)["kind"] == "sheaf":
                F, W, x0 = load_input(path)[1]
                yield Case(os.path.basename(path), F, W, (x0,) if x0 else ())


@registered("des-line")
def _des_line():
    """The DES line a-b-c of `fixtures/des_line.json`, with its start schedule."""
    system = load_input(os.path.join(FIXTURES, "des_line.json"))[1]
    yield Case("des_line.json", *des_sheaf(system), (system.initial,), system)


@registered("des-random")
def _des_random():
    """A random tree, or a path, with a chord in two of three systems;
    integer or string names; 1-3 events; integer delays, some infinite in
    every fourth system; unit, constant or per-pair weights; integer or real
    starts.  Each case holds the start and the first 30 iterates of its flow."""
    rng = Random(0xDE5)
    for k in range(30):
        n, m, c = rng.randint(2, 8), rng.randint(1, 3), float(rng.randint(1, 2))
        names = list(range(n)) if k % 2 else [f"d{i}" for i in range(n)]
        parent = (lambda i: i - 1) if k % 3 == 2 else rng.randrange
        edges = {(names[parent(i)], names[i]) for i in range(1, n)}
        if k % 3 and n > 2:
            u, w = sorted(rng.sample(range(n), 2))
            edges.add((names[u], names[w]))
        graph = Graph.build(names, sorted(edges))
        entries = [0, 1, 2, 3, 5, 6] + [math.inf] * (k % 4 == 3)
        delays = {v: [[rng.choice(entries) for _ in range(m)] for _ in range(m)] for v in names}
        weight = rng.choice([None, lambda: c, lambda: rng.uniform(0, 3)])
        system = DesSystem(m, delays, graph,
                           weight and {(v, w): weight() for v, w, _e in graph.adjacent_pairs()})
        draw = (lambda: rng.uniform(0, 24)) if k % 2 else (lambda: float(rng.randint(0, 24)))
        F, W = des_sheaf(system)
        flow = harmonic_flow(F, W, {v: tuple(draw() for _ in range(m)) for v in names}, max_iter=30)
        yield Case(f"des[{k}]", F, W, tuple(s.cochain for s in flow.iterations), system)


@registered("des-perturbed")
def _des_perturbed():
    """The des-random systems with uniform noise in [0, 1) on every restriction."""
    rng = Random(5)
    for case in corpus("des-random"):
        system = case.source
        noise = {v: tuple(rng.uniform(0.0, 1.0) for _ in range(system.m))
                 for v in system.graph.vertices}
        yield case._replace(name=f"perturbed-{case.name}", F=perturbed_des_sheaf(system, noise)[0])


@registered("affine")
def _affine():
    """Lawvere-cost stalks in both orders over a random tree of 2-4 vertices
    (a chord closes it half the time) or the 4-cycle; identity or
    affine-shift restrictions; corestrictions derived, identities or unshifts
    by another constant; weights 0-3 and start values 0-10, some infinite."""
    rng = Random(16)
    shifts = [0.0, 0.5, 1.0, 2.0, 2.5, 3.0]
    for order, k in product(("underline", "underline_op"), range(20)):
        if k % 2:
            verts, edges = ["0", "1", "2", "3"], [["0", "1"], ["1", "2"], ["2", "3"], ["0", "3"]]
        else:
            verts = [f"v{i}" for i in range(rng.randint(2, 4))]
            edges = [[verts[rng.randrange(i)], verts[i]] for i in range(1, len(verts))]
            if [verts[0], verts[-1]] not in edges and rng.random() < 0.5:
                edges.append([verts[0], verts[-1]])
        keys = [f"{v}|{','.join(sorted(e))}" for e in edges for v in e]
        rest = {key: rng.choice([{"kind": "identity"}, {"kind": "affine_shift", "c": rng.choice(shifts)}])
                for key in keys}
        corest = {key: rng.choice([None, None, {"kind": "identity"},
                                   {"kind": "affine_unshift", "c": rng.choice(shifts)}]) for key in keys}
        F, W, x0 = load_sheaf({
            "kind": "sheaf", "quantale": {"kind": "lawvere_reals"}, "vertices": verts,
            "edges": edges, "stalk": {"kind": order}, "restrictions": rest,
            "corestrictions": {key: c for key, c in corest.items() if c is not None},
            "weighting": {"pairs": [[v, w, float(rng.randint(0, 3))] for v, w in edges]},
            "initial": {v: "inf" if rng.random() < 0.2 else float(rng.randint(0, 10))
                        for v in verts}})
        yield Case(f"affine-{order}[{k}]", F, W, (x0,))


@registered("paths")
def _paths():
    """The connected graphs of acceptance criterion 6 as constant cost
    sheaves weighted by the edge lengths, started from a seeded source."""
    R = LawvereRealsQuantale()
    cost = lattice_for(OppositeCategory(UnderlineQ(R)))
    rng = Random(0xACC6)
    for k in range(100):
        verts, edges = random_connected_graph(rng, max_vertices=50, max_weight=20)
        src = verts[rng.randrange(len(verts))]
        graph = Graph.build(verts, [e[:2] for e in edges])
        W = Weighting(graph, R, table={p: d for u, v, d in edges for p in ((u, v), (v, u))})
        x0 = {v: 0.0 if v == src else math.inf for v in verts}
        yield Case(f"paths[{k}]", constant_sheaf(graph, R, cost), W, (x0,), (verts, edges, src))


# one lattice handle per stalk family, each drawn from a seeded Random
STALKS = {
    **{family: (lambda rng, family=family: random_lattice(rng, (family,)))
       for family in LATTICE_FAMILIES},
    "underline-chain3": lambda rng: lattice_for(UnderlineQ(FiniteChainQuantale(3))),
    "underline-chain4": lambda rng: lattice_for(UnderlineQ(FiniteChainQuantale(4))),
    "underline-powerset2": lambda rng: lattice_for(UnderlineQ(FinitePowersetQuantale([0, 1]))),
    "power-op-chain3": lambda rng: lattice_for(
        OppositeCategory(PresheafPower(FiniteChainQuantale(3), 2))),
    "prefs-chain3": lambda rng: preference_lattice(FiniteChainQuantale(3), ("x", "y", "z")),
    "prefs-chain4": lambda rng: preference_lattice(FiniteChainQuantale(4), ("x", "y")),
}


@registered("lattices")
def _lattices():
    """Ten lattices per stalk family, each with four diagrams of 0-4 members."""
    rng = Random(17)
    for family in sorted(STALKS):
        for k in range(10):
            L = STALKS[family](rng)
            objs, Q = L.objects(), L.quantale
            diagrams = tuple(WeightedDiagram.of((objs[rng.randrange(len(objs))], Q.sample(rng))
                                                for _ in range(rng.randint(0, 4)))
                             for _ in range(4))
            yield Case(f"{family}[{k}]", L, None, diagrams)


@registered("constant")
def _constant():
    """Constant sheaves on a four-vertex graph with a triangle: on the
    underline of each quantale kind, a preference stalk and the paths stalk."""
    graph = Graph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    R = LawvereRealsQuantale()
    quantales = [BooleanQuantale(), FiniteChainQuantale(3), FiniteChainQuantale(5),
                 FinitePowersetQuantale([0, 1]), R, *map(UnitIntervalQuantale, ("product", "lukasiewicz", "min"))]
    for k, C in enumerate([*map(UnderlineQ, quantales), OppositeCategory(UnderlineQ(R)),
                           PreferenceCategory(FiniteChainQuantale(4), ["x", "y"])]):
        L = lattice_for(C)
        yield Case(f"constant[{k}]", constant_sheaf(graph, L.quantale, L), Weighting(graph, L.quantale))


@registered("mixed-names")
def _mixed_names():
    """Constant Boolean sheaves on random graphs whose vertex names mix
    strings, integers and tuples."""
    rng = Random(0xAD1)
    B = BooleanQuantale()
    L = lattice_for(UnderlineQ(B))
    pool = [f"v{i}" for i in range(12)] + list(range(12)) + [(chr(97 + i), i) for i in range(12)]
    for k in range(300):
        names = rng.sample(pool, rng.randint(1, 12))
        pairs = [(u, w) for i, u in enumerate(names) for w in names[i + 1:]]
        edges = [p if rng.random() < 0.5 else p[::-1]
                 for p in rng.sample(pairs, rng.randint(0, len(pairs)))]
        graph = Graph.build(names, edges)
        yield Case(f"mixed-names[{k}]", constant_sheaf(graph, B, L), Weighting(graph, B))
