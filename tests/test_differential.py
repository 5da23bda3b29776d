"""Differential, metamorphic and negative-control checks, one row each.

A row is (name, fast, reference, corpora, compare): on every case of the
named corpora (`corpora.py`) that `where` admits, fast(case) and
reference(case) must agree under `compare`, exactly or within a stated
tolerance.  A metamorphic row's fast side runs the code on a transformed
case and maps the answer back.  A negative-control row reads no corpus: its
fast side runs a law checker on an input that breaks the law, and its
reference names the law the report must carry with a witness.
"""
from __future__ import annotations

import math
import operator
from itertools import product as iproduct
from random import Random
from typing import Callable, NamedTuple

import pytest

from corpora import BUILDERS, corpus
from sheafflow.adjunction import (adjoint_limit_interchange, adjunction_defect,
                                  check_colim_inequality, check_unit_counit)
from sheafflow.apps.des import des_laplacian_closed_form
from sheafflow.apps.paths import MODES, shortest_paths
from sheafflow.fixpoint import FixpointQuery, verify_tarski
from sheafflow.oracle import brute_weighted_join, brute_weighted_meet, classic_shortest_paths
from sheafflow.qcat import QFunctor, UnderlineQ, object_sort_key, transport
from sheafflow.quantale import BooleanQuantale, FiniteChainQuantale, LawvereRealsQuantale
from sheafflow.sheaf import (Graph, NetworkSheaf, Weighting, check_projection_property,
                             flow_step, laplacian)
from sheafflow.wlattice import AnalyticLattice, EnumerableLattice, WeightedDiagram, lattice_for


def within(tol: float) -> Callable:
    """Equal structure, with numbers that differ by at most `tol`."""
    def close(a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
        if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
            return len(a) == len(b) and all(map(close, a, b))
        return a == b or isinstance(a, (int, float)) and isinstance(b, (int, float)) and abs(a - b) <= tol
    return close


def among(got, want) -> bool:
    """Each answer is one of the witnesses listed at its place."""
    return len(got) == len(want) and all(g in w for g, w in zip(got, want))


def reports(rep, law: str) -> bool:
    return any(v.law == law and v.witness is not None for v in rep.violations)


# -- references ----------------------------------------------------------------

def scanned_neighbors(case):
    """Scan every edge for v, then sort by neighbour."""
    g = case.F.graph
    return {v: sorted([(e[1] if v == e[0] else e[0], e) for e in g.edges if v in e],
                      key=lambda p: object_sort_key(p[0])) for v in g.vertices}


def _omegas(case):
    rng = Random(case.name)
    return case.F.quantale.sample(rng), case.F.quantale.sample(rng)


def meets_of_cotensors(case):
    """Per cochain, the Laplacian and a flow step weighted by the case's
    omegas, each a crisp meet of cotensors."""
    F, W, (w1, w2) = case.F, case.W, _omegas(case)
    out = []
    for x in case.cochains:
        Lx = {v: F.vertex_lattices[v].crisp_meet([F.vertex_lattices[v].cotensor(
                  W(v, w), F.corestrictions[(e, v)](F.restrictions[(w, e)](x[w])))
                  for w, e in F.graph.neighbors(v)]) for v in F.graph.vertices}
        out.append((Lx, {v: L.crisp_meet([L.cotensor(w1, Lx[v]), L.cotensor(w2, x[v])])
                         for v, L in F.vertex_lattices.items()}))
    return out


LARGE = 1000.0


def reference_objects(lat, rng, n=12):
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


def reference_level(F, v, e, rng):
    """Transposition defect of an incidence over the pairs (x, f_v(x')) of
    reference objects, or over all stalk pairs when enumerable."""
    lat_v, lat_e = F.vertex_lattices[v], F.edge_lattices[e]
    f, g = F.restrictions[(v, e)], F.corestrictions[(e, v)]
    xs = reference_objects(lat_v, rng)
    ys = lat_e.objects() if lat_v.is_enumerable and lat_e.is_enumerable else [f(x) for x in xs]
    return adjunction_defect(f, g, iproduct(xs, ys))


def reference_levels(F, seed):
    rng = Random(seed)
    return {(v, e): reference_level(F, v, e, rng) for v, e in F.adjunction_levels}


def finite_transports(case) -> bool:
    """No max-plus delay is infinite.  On an infinite entry the recorded level
    is the bottom, a lower bound the reference scan need not reach."""
    return all(math.isfinite(a) for f in case.F.restrictions.values()
               if f.kind and f.kind[0] == "max_plus" for row in f.kind[1] for a in row)


def relabeled(case):
    """The case with its vertex names reversed, rebuilt from the same stalks,
    transports, weights and cochains, and the maps to its names and edges."""
    F, names = case.F, case.F.graph.vertices
    new = dict(zip(names, reversed(names)))
    edge = {e: tuple(sorted(map(new.get, e), key=object_sort_key)) for e in F.graph.edges}
    graph = Graph.build(names, edge.values())
    G = NetworkSheaf(graph, F.quantale, {new[v]: L for v, L in F.vertex_lattices.items()},
                     {edge[e]: L for e, L in F.edge_lattices.items()},
                     {(new[v], edge[e]): f for (v, e), f in F.restrictions.items()},
                     {(edge[e], new[v]): g for (e, v), g in F.corestrictions.items()})
    W = Weighting(graph, F.quantale, table={(new[v], new[w]): q for (v, w), q in case.W.table.items()})
    return G, W, [{new[v]: x[v] for v in x} for x in case.cochains], new, edge


def relabeled_levels(case):
    G, _W, _xs, new, edge = relabeled(case)
    return {(v, e): G.adjunction_levels[(new[v], edge[e])] for v, e in case.F.adjunction_levels}


def relabeled_laplacians(case):
    G, W, xs, new, _edge = relabeled(case)
    return [{v: Lx[new[v]] for v in new} for Lx in (laplacian(G, W, x) for x in xs)]


def distances_by_mode(case):
    verts, edges, src = case.source
    return [shortest_paths(edges, src, mode=mode, vertices=verts).distances for mode in MODES]


def classic_distances(case):
    verts, edges, src = case.source
    return [classic_shortest_paths(edges, src, vertices=verts)] * len(MODES)


def laplacians(case):
    return [laplacian(case.F, case.W, x) for x in case.cochains]


def lattice_ops(L, diagrams):
    return [(L.weighted_meet(D), L.weighted_join(D)) for D in diagrams]


def crisp_ops_of_cotensors_and_tensors(case):
    """Kelly 3.10: a weighted meet is the crisp meet of the cotensors of its
    members, a weighted join the crisp join of their tensors."""
    L = case.F
    return [(L.crisp_meet([L.cotensor(w, s) for s, w in D.pairs()]),
             L.crisp_join([L.tensor(w, s) for s, w in D.pairs()])) for D in case.cochains]


# -- negative inputs -----------------------------------------------------------

CHAIN3 = UnderlineQ(FiniteChainQuantale(3))
SWAPPED = QFunctor(CHAIN3, CHAIN3, {0: 2, 1: 1, 2: 0}, name="swapped")


def _swapped_pair():
    """The identity pair on the 3-chain with the right adjoint's values at 0
    and 2 swapped: neither unit nor counit holds, and the pair's defect is 0."""
    return QFunctor(CHAIN3, CHAIN3, {0: 0, 1: 1, 2: 2}, name="id"), SWAPPED


def _stale_crisp_edge():
    """A Boolean edge whose corestrictions send everything to 0, recorded as
    crisp: the flow sends (1, 1) to (0, 0), so hom from the section (1, 1)
    falls from 1 to 0."""
    Q = BooleanQuantale()
    C = UnderlineQ(Q)
    L = lattice_for(C)
    g = Graph.build(["u", "v"], [("u", "v")])
    e = g.edges[0]
    F = NetworkSheaf(g, Q, dict.fromkeys(g.vertices, L), {e: L},
                     {(v, e): transport("identity", C, C) for v in e},
                     {(e, v): QFunctor(C, C, {0: 0, 1: 0}, name="zero") for v in e})
    F.adjunction_levels = dict.fromkeys(F.adjunction_levels, Q.unit)
    return F, Weighting(g, Q), {"u": 1, "v": 1}


TWO_TOPS = WeightedDiagram.of([(0, 2), (2, 2)])  # {0, 2}, each weighted by the top
BUMP = QFunctor(CHAIN3, CHAIN3, {0: 0, 1: 2, 2: 0}, name="bump")  # not monotone


# -- the table -----------------------------------------------------------------

class Row(NamedTuple):
    name: str
    fast: Callable
    reference: Callable
    corpora: tuple = ()
    compare: Callable = operator.eq
    where: Callable = lambda case: True


FLOWS = ("criterion4", "fixtures", "des-line", "des-random", "affine")

ROWS = [
    Row("neighbors-vs-edge-scan",
        lambda case: {v: list(case.F.graph.neighbors(v)) for v in case.F.graph.vertices},
        scanned_neighbors, (*FLOWS, "paths", "constant", "mixed-names")),
    Row("laplacian-and-flow-step-vs-meets-of-cotensors",
        lambda case: [(Lx, flow_step(case.F, case.W, x, *_omegas(case), Lx=Lx))
                      for x, Lx in zip(case.cochains, laplacians(case))],
        meets_of_cotensors, FLOWS),
    Row("des-closed-form-vs-laplacian",
        lambda case: [des_laplacian_closed_form(case.source, case.W, x) for x in case.cochains],
        laplacians, ("des-line", "des-random"), within(1e-9)),
    Row("levels-vs-reference-scan",
        lambda case: case.F.adjunction_levels, lambda case: reference_levels(case.F, case.name),
        ("constant", "fixtures", "des-line", "des-perturbed", "affine", "criterion4"),
        within(1e-9), finite_transports),
    # criterion 6 reads the whole corpus; here the graphs of at most 14 vertices
    Row("shortest-paths-vs-classic-oracle", distances_by_mode, classic_distances, ("paths",),
        where=lambda case: len(case.F.graph.vertices) <= 14),
    Row("analytic-vs-searched-lattice-ops",
        lambda case: lattice_ops(case.F, case.cochains),
        lambda case: lattice_ops(EnumerableLattice(case.F.category), case.cochains), ("lattices",),
        where=lambda case: isinstance(case.F, AnalyticLattice) and len(case.F.objects()) <= 30),
    Row("searched-vs-brute-lattice-ops",
        lambda case: [a for pair in lattice_ops(case.F, case.cochains) for a in pair],
        lambda case: [brute(case.F, D) for D in case.cochains
                      for brute in (brute_weighted_meet, brute_weighted_join)],
        ("lattices",), among, lambda case: isinstance(case.F, EnumerableLattice)),
    Row("meet-via-identity-join-vs-meet",
        lambda case: [case.F.weighted_meet_via_identity_join(D) for D in case.cochains],
        lambda case: [case.F.weighted_meet(D) for D in case.cochains],
        ("lattices",), where=lambda case: isinstance(case.F, EnumerableLattice)),
    Row("weighted-ops-vs-crisp-ops-of-cotensors-and-tensors",
        lambda case: lattice_ops(case.F, case.cochains), crisp_ops_of_cotensors_and_tensors,
        ("lattices",)),
    # metamorphic: reversing the vertex names moves nothing but the names
    Row("levels-under-relabeling", relabeled_levels, lambda case: case.F.adjunction_levels,
        ("des-perturbed", "criterion4", "affine", "fixtures")),
    Row("laplacian-under-relabeling", relabeled_laplacians, laplacians,
        ("des-random", "affine", "fixtures")),
    # negative controls: each law checker reports its law on an input that breaks it
    Row("check_unit_counit-reports-unit-level",
        lambda _: check_unit_counit(*_swapped_pair(), 2), lambda _: "unit-level", compare=reports),
    Row("adjoint_limit_interchange-reports-pair-at-level-q",
        lambda _: adjoint_limit_interchange(*_swapped_pair(), 2, TWO_TOPS, TWO_TOPS),
        lambda _: "pair-at-level-q", compare=reports),
    Row("check_colim_inequality-reports-image-join-below-join-image",
        lambda _: check_colim_inequality(BUMP, WeightedDiagram.of([(1, 2), (2, 2)]), 2,
                                         lattice_for(CHAIN3), lattice_for(CHAIN3)),
        lambda _: "image-join-below-join-image", compare=reports),
    Row("verify_tarski-reports-endo-is-functor",
        lambda _: verify_tarski(FixpointQuery(EnumerableLattice(CHAIN3), SWAPPED, 2, 2)),
        lambda _: "endo-is-functor", compare=reports),
    Row("check_projection_property-reports-hom-preserved",
        lambda _: check_projection_property(*_stale_crisp_edge()),
        lambda _: "hom-preserved", compare=reports),
]


ROW = {row.name: row for row in ROWS}


def check_row(row: Row, where: Callable = lambda case: True) -> None:
    """Run `row` on the cases of its corpora that both its own `where` and
    the given `where` admit."""
    cases = [case for name in row.corpora for case in corpus(name) if row.where(case) and where(case)]
    assert cases or not row.corpora, f"{row.name} reads no case"
    for case in cases or [None]:
        got, want = row.fast(case), row.reference(case)
        assert row.compare(got, want), (case and case.name, got, want)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row(row):
    check_row(row)


def test_every_corpus_is_read_by_a_row():
    assert {name for row in ROWS for name in row.corpora} == set(BUILDERS)
