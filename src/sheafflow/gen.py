"""Seeded random generators for test corpora.

Everything here draws from a caller-supplied random.Random so runs are
reproducible.  The lattice generators are constructed to be complete by
construction: intersection-closed set families (meets are intersections,
joins are meets of upper bounds), the quantale carrier itself, and the
monotone-pair presheaves of a finite chain.
"""
from __future__ import annotations

from random import Random

from .adjunction import synthesize_right_adjoint
from .qcat import FiniteQCategory, QFunctor, UnderlineQ, is_functor, object_sort_key, transport
from .quantale import BooleanQuantale, FiniteChainQuantale, Quantale
from .sheaf import Graph, NetworkSheaf, Weighting
from .wlattice import EnumerableLattice, WeightedDiagram


def moore_family(rng: Random) -> list[frozenset]:
    """Intersection-closed family of subsets of {0, 1, 2} containing {0, 1, 2}.

    Such a family under inclusion has all meets (intersections) and hence
    all joins, so it is a complete lattice; it has at most six members.
    """
    ground = frozenset(range(3))
    for _ in range(24):
        k = rng.randint(0, 3)
        family = {ground}
        for _ in range(k):
            family.add(frozenset(i for i in ground if rng.random() < 0.5))
        while True:
            extra = {a & b for a in family for b in family} - family
            if not extra:
                break
            family |= extra
        if len(family) <= 6:
            return sorted(family, key=object_sort_key)
    return sorted({frozenset(), ground}, key=object_sort_key)


def inclusion_category(quantale: Quantale, family: list[frozenset]) -> FiniteQCategory:
    """Set family ordered by inclusion, graded crisply into any quantale."""
    hom = [[quantale.unit if a <= b else quantale.bottom for b in family] for a in family]
    return FiniteQCategory(quantale, family, hom)


def monotone_pairs_category() -> FiniteQCategory:
    """Pairs (a, b) with a >= b in the 3-chain, hom the entrywise meet.

    These are the order-reversing presheaves on a two-point chain; meets,
    joins, and cotensors are entrywise, so the category is complete.
    """
    Q = FiniteChainQuantale(3)
    objs = [(a, b) for a in range(3) for b in range(3) if a >= b]
    hom = [[Q.meet2(Q.hom(a, c), Q.hom(b, d)) for (c, d) in objs] for (a, b) in objs]
    return FiniteQCategory(Q, objs, hom)


LATTICE_FAMILIES = ("boolean-moore", "chain-scaled", "chain-underline", "chain-pairs")


def random_lattice(rng: Random, families=LATTICE_FAMILIES) -> EnumerableLattice:
    """A complete enumerable lattice with at most six objects."""
    family = families[rng.randrange(len(families))]
    if family == "boolean-moore":
        cat = inclusion_category(BooleanQuantale(), moore_family(rng))
    elif family == "chain-scaled":
        cat = inclusion_category(FiniteChainQuantale(3), moore_family(rng))
    elif family == "chain-underline":
        cat = UnderlineQ(FiniteChainQuantale(3))
    elif family == "chain-pairs":
        cat = monotone_pairs_category()
    else:
        raise ValueError(f"unknown lattice family {family!r}")
    return EnumerableLattice(cat)


def random_diagram(rng: Random, L, max_size: int = 4) -> WeightedDiagram:
    objs = L.objects()
    Q = L.category.quantale
    k = rng.randint(1, max_size)
    return WeightedDiagram.of(
        [(objs[rng.randrange(len(objs))], Q.sample(rng)) for _ in range(k)]
    )


def random_monotone_endofunctor(rng: Random, L) -> QFunctor:
    """A hom-respecting endomap, found by rejection with guaranteed fallbacks."""
    C = L.category
    objs = L.objects()
    for _ in range(30):
        mapping = {x: objs[rng.randrange(len(objs))] for x in objs}
        F = QFunctor(C, C, mapping, name="random-monotone")
        if is_functor(F):
            return F
    a = objs[rng.randrange(len(objs))]
    style = rng.randrange(4)
    if style == 0:
        return QFunctor(C, C, {x: L.crisp_meet([x, a]) for x in objs},
                        name="meet-with")
    if style == 1:
        return QFunctor(C, C, {x: L.crisp_join([x, a]) for x in objs},
                        name="join-with")
    if style == 2:
        return QFunctor(C, C, {x: a for x in objs}, name="constant")
    return transport("identity", C, C)


def random_adjoint_pair(rng: Random, L) -> tuple[QFunctor, QFunctor]:
    """A unit-level adjunction on L: a left adjoint found by rejection with
    its synthesized right adjoint, falling back to the identity pair."""
    C = L.category
    Q = C.quantale
    for _ in range(25):
        F = random_monotone_endofunctor(rng, L)
        res = synthesize_right_adjoint(F)
        if Q.eq(res.defect, Q.unit):
            return F, res.right
    ident = transport("identity", C, C)
    return ident, ident


def random_crisp_sheaf(
    rng: Random, min_vertices: int = 2, max_vertices: int = 3,
    unit_weights: bool = False,
) -> tuple[NetworkSheaf, Weighting]:
    """A sheaf whose transports are exact adjoint pairs on a shared stalk."""
    L = random_lattice(rng)
    Q = L.category.quantale
    n = rng.randint(min_vertices, max_vertices)
    verts = [f"v{i}" for i in range(n)]
    if n == 2:
        edge_list = [(verts[0], verts[1])]
    else:
        edge_list = [(verts[0], verts[1]), (verts[1], verts[2])]
        if rng.random() < 0.5:
            edge_list.append((verts[0], verts[2]))
    g = Graph.build(verts, edge_list)
    rest, corest = {}, {}
    for e in g.edges:
        for v in e:
            F, G = random_adjoint_pair(rng, L)
            rest[(v, e)] = F
            corest[(e, v)] = G
    F_sheaf = NetworkSheaf(
        g, Q,
        {v: L for v in g.vertices},
        {e: L for e in g.edges},
        rest, corest,
    )
    if unit_weights or rng.random() < 0.5:
        W = Weighting(g, Q)
    else:
        W = Weighting(g, Q, table={(v, w): Q.sample(rng) for v, w, _ in g.adjacent_pairs()})
    return F_sheaf, W


def random_cochain(rng: Random, F: NetworkSheaf) -> dict:
    out = {}
    for v in F.graph.vertices:
        objs = F.vertex_lattices[v].objects()
        out[v] = objs[rng.randrange(len(objs))]
    return out


def random_connected_graph(rng: Random, max_vertices: int = 50, max_weight: int = 20):
    """Weighted undirected connected graph as (u, v, w) triples plus the
    vertex list; built from a random spanning tree with extra chords."""
    n = rng.randint(2, max_vertices)
    verts = [f"n{i}" for i in range(n)]
    edges = []
    present = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((verts[j], verts[i], float(rng.randint(1, max_weight))))
        present.add((min(i, j), max(i, j)))
    for _ in range(rng.randint(0, n)):
        i, j = rng.sample(range(n), 2)
        key = (min(i, j), max(i, j))
        if key not in present:
            present.add(key)
            edges.append((verts[i], verts[j], float(rng.randint(1, max_weight))))
    return verts, edges
