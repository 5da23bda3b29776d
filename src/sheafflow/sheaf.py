"""Network sheaves of weighted lattices and their harmonic flow.

A sheaf assigns a weighted lattice to every vertex and edge of a simple
undirected graph, a restriction functor stalk(v) -> stalk(e) to every
incidence, and a corestriction stalk(e) -> stalk(v) back.  Each incidence
records the level at which corestriction is right adjoint to restriction;
the meet of those levels is the fuzziness of the transport Laplacian

    (L x)_v = weighted meet of the diagram w |-> g_v(f_w(x_w)) weighted W(v, w)
            = crisp meet over neighbors w of  W(v, w) -|> g_v(f_w(x_w)),

with f_w the restriction of the far endpoint and g_v the corestriction back
into v.  Harmonic flow iterates x <- weighted meet of (Lx, x) weighted
(omega1, omega2), that is omega1 -|> Lx  meet  omega2 -|> x.

Cochains live in `F.cochains`, the product of the vertex stalks indexed by
the vertices: its hom is the meet over vertices of the stalk homs.  The
incidences are listed once: a `Graph` lists each vertex's neighbours when it
is built, and a `NetworkSheaf` each vertex's incoming row (w, g_v, f_w).

Operators (`laplacian`, `flow_step`) trust their inputs, since weighted meets
keep a cochain in its stalks; entry points that take a caller's cochain
(`harmonic_flow`, `is_fuzzy_global_section`, ...) check it once.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Any, Callable, Iterable, Mapping

from .adjunction import adjunction_defect
from .qcat import (ProductCategory, QCategoryError, QFunctor, object_sort_key, transport,
                   transport_level)
from .quantale import Quantale
from .report import LawReport
from .wlattice import WeightedDiagram, WeightedLattice

Cochain = dict  # vertex -> stalk object


class SheafError(QCategoryError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; edges are sorted vertex pairs.  Construction
    lists each vertex's neighbours once, in order, outside equality and hash."""

    vertices: tuple
    edges: tuple
    _adjacency: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        adjacency = {v: [] for v in self.vertices}
        for e in self.edges:
            adjacency[e[0]].append((e[1], e))
            adjacency[e[1]].append((e[0], e))
        object.__setattr__(self, "_adjacency", {v: tuple(ps) for v, ps in adjacency.items()})

    @classmethod
    def build(cls, vertices: Iterable, edges: Iterable) -> "Graph":
        vs = list(vertices)
        if len(set(vs)) != len(vs):
            raise SheafError("duplicate vertices")
        vset = set(vs)
        out = []
        seen = set()
        for e in edges:
            u, w = e
            if u == w:
                raise SheafError(f"loop edge at {u!r}")
            if u not in vset or w not in vset:
                raise SheafError(f"edge {e!r} mentions an unknown vertex")
            key = tuple(sorted((u, w), key=object_sort_key))
            if key in seen:
                raise SheafError(f"duplicate edge {key!r}")
            seen.add(key)
            out.append(key)
        vs_sorted = tuple(sorted(vs, key=object_sort_key))
        return cls(vs_sorted, tuple(sorted(out, key=lambda e: (object_sort_key(e[0]), object_sort_key(e[1])))))

    def neighbors(self, v) -> tuple:
        """(neighbor, edge) pairs, sorted by neighbour."""
        return self._adjacency[v]

    def adjacent_pairs(self) -> list[tuple]:
        """All ordered adjacent (v, w, edge) triples, deterministic order."""
        out = []
        for e in self.edges:
            out.append((e[0], e[1], e))
            out.append((e[1], e[0], e))
        return out


class Weighting:
    """Edge weighting: a quantale value for each ordered adjacent pair."""

    def __init__(self, graph: Graph, quantale: Quantale, table: Mapping | None = None,
                 constant: Any = None):
        self.graph = graph
        self.quantale = quantale
        pairs = {(v, w) for v, w, _ in graph.adjacent_pairs()}
        if table is None:
            if constant is None:
                constant = quantale.unit
            quantale.require(constant)
            self.table = {p: constant for p in pairs}
        else:
            self.table = dict(table)
            extra = set(self.table) - pairs
            missing = pairs - set(self.table)
            if extra:
                raise SheafError(f"weighting defined off the graph: {sorted(extra, key=str)[:3]}")
            if missing:
                raise SheafError(f"weighting missing pairs: {sorted(missing, key=str)[:3]}")
            for val in self.table.values():
                quantale.require(val)

    def __call__(self, v, w):
        try:
            return self.table[(v, w)]
        except KeyError:
            raise SheafError(f"({v!r}, {w!r}) is not an adjacent pair") from None

    def is_symmetric(self) -> bool:
        return all(self.quantale.eq(self.table[(v, w)], self.table[(w, v)])
                   for (v, w) in self.table)


class NetworkSheaf:
    """Stalks plus restriction/corestriction transports over a graph.

    The adjunction level of each incidence (v, e) is set on construction
    from the sheaf alone.  An identity pair (`qcat.transport`) on one lattice
    object, as in every `constant_sheaf`, is certified at the unit; enumerable
    stalks are scanned over all their objects; cost transports on one Lawvere
    stalk (DES, affine shifts) get the exact level over the pairs (x, f_v(x'))
    from `qcat.transport_level`; any other incidence gets the quantale's
    bottom, which promises nothing.  The Laplacian feeds g_v the far
    endpoint's images f_w(x_w), where a max-plus pair may hold the adjunction
    only at a lower level; `incoming[v]`, built here, lists (w, g_v, f_w) for
    v's neighbours w in order.  A transport that fails on its stalk, or carries
    out of it an object checked (all objects when enumerable, else the top and
    bottom, whose images bound every monotone image), raises SheafError.
    Transports are assumed to be enriched functors (for Lawvere costs,
    nonexpansive maps), so a harmonic flow ends `converged` or, also when it
    grows without bound, `max_iter_reached`.
    """

    def __init__(
        self,
        graph: Graph,
        quantale: Quantale,
        vertex_lattices: Mapping[Any, WeightedLattice],
        edge_lattices: Mapping[Any, WeightedLattice],
        restrictions: Mapping[tuple, QFunctor],
        corestrictions: Mapping[tuple, QFunctor],
    ):
        self.graph = graph
        self.quantale = quantale
        self.vertex_lattices = dict(vertex_lattices)
        self.edge_lattices = dict(edge_lattices)
        self.restrictions = dict(restrictions)
        self.corestrictions = dict(corestrictions)
        for v in graph.vertices:
            if v not in self.vertex_lattices:
                raise SheafError(f"missing stalk at vertex {v!r}")
        for e in graph.edges:
            if e not in self.edge_lattices:
                raise SheafError(f"missing stalk at edge {e!r}")
            for v in e:
                if (v, e) not in self.restrictions:
                    raise SheafError(f"missing restriction for incidence ({v!r}, {e!r})")
                if (e, v) not in self.corestrictions:
                    raise SheafError(f"missing corestriction for incidence ({v!r}, {e!r})")
        self.cochains = ProductCategory(
            quantale, {v: self.vertex_lattices[v].category for v in graph.vertices})
        self.adjunction_levels = {(v, e): self._measure_level(v, e)
                                  for e in graph.edges for v in e}
        self.incoming = {v: tuple((w, self.corestrictions[(e, v)], self.restrictions[(w, e)])
                                  for w, e in graph.neighbors(v))
                         for v in graph.vertices}

    def _measure_level(self, v, e):
        """Check one incidence's transports and return its level (see the class)."""
        lat_v, lat_e = self.vertex_lattices[v], self.edge_lattices[e]
        f, g = self.restrictions[(v, e)], self.corestrictions[(e, v)]
        if lat_v is lat_e and f.kind == g.kind == ("identity",):
            return self.quantale.unit
        enumerable = lat_v.is_enumerable and lat_e.is_enumerable
        try:
            if enumerable:
                xs, ys = lat_v.objects(), lat_e.objects()
            else:
                xs, ys = (lat_v.top(), lat_v.bottom()), (lat_e.top(), lat_e.bottom())
            lat_e.category.require_object(*map(f, xs))
            lat_v.category.require_object(*map(g, ys))
        except (TypeError, ValueError) as exc:  # QCategoryError is a ValueError
            raise SheafError(f"transport at incidence ({v!r}, {e!r}) leaves its stalk: {exc}") from None
        if enumerable:
            return adjunction_defect_on(self.quantale, lat_v.category, lat_e.category, f, g, xs, ys)
        return transport_level(lat_v.category, f, g) if lat_v is lat_e else self.quantale.bottom

    def level(self):
        """Meet of all per-incidence adjunction levels: the Laplacian's fuzziness."""
        return self.quantale.meet(self.adjunction_levels.values())

    def is_crisp(self) -> bool:
        return self.quantale.eq(self.level(), self.quantale.unit)

    def check_cochain(self, x: Cochain) -> None:
        for v in self.graph.vertices:
            if v not in x:
                raise SheafError(f"cochain missing vertex {v!r}")
            if not self.vertex_lattices[v].category.has_object(x[v]):
                raise SheafError(f"cochain value {x[v]!r} is not in the stalk at {v!r}")


def constant_sheaf(graph: Graph, quantale: Quantale, lattice: WeightedLattice) -> NetworkSheaf:
    """One stalk everywhere, with identity restrictions and corestrictions."""
    ident = transport("identity", lattice.category, lattice.category)
    return NetworkSheaf(
        graph, quantale,
        {v: lattice for v in graph.vertices},
        {e: lattice for e in graph.edges},
        {(v, e): ident for e in graph.edges for v in e},
        {(e, v): ident for e in graph.edges for v in e},
    )


def adjunction_defect_on(Q, dom, cod, F, G, xs, ys):
    """adjunction_defect of F -| G over the pairs xs x ys; Q, dom and cod must
    be F's quantale, domain and codomain."""
    return adjunction_defect(F, G, iproduct(xs, ys))


@dataclass
class SectionCheck:
    ok: bool
    worst_edge: tuple | None  # (v, w, edge)
    slack: Any                # residual [W(v,w), hom_e] at the worst edge


def is_fuzzy_global_section(F: NetworkSheaf, W: Weighting, x: Cochain) -> SectionCheck:
    """Does x agree across every edge at least to the edge's weight?

    Checks hom_e(f_v(x_v), f_w(x_w)) >= W(v, w) for both orientations of
    every edge and reports the orientation with the least residual slack.
    """
    Q = F.quantale
    F.check_cochain(x)
    ok, worst = True, None
    for v, w, e, h in _edge_homs(F, x):
        bound = W(v, w)
        slack = Q.hom(bound, h)
        if not Q.leq(bound, h):
            ok = False
        if worst is None or Q.leq(slack, worst[1]) and not Q.eq(slack, worst[1]):
            worst = ((v, w, e), slack)
    if worst is None:
        return SectionCheck(True, None, Q.unit)
    return SectionCheck(ok, worst[0], worst[1])


def _edge_homs(F: NetworkSheaf, x: Cochain) -> list[tuple]:
    """(v, w, e, hom_e(f_v(x_v), f_w(x_w))) for every ordered adjacent pair."""
    return [(v, w, e, F.edge_lattices[e].hom(F.restrictions[(v, e)](x[v]),
                                             F.restrictions[(w, e)](x[w])))
            for v, w, e in F.graph.adjacent_pairs()]


def global_sections(F: NetworkSheaf, W: Weighting) -> tuple[list[Cochain], ProductCategory]:
    """All fuzzy global sections (enumerable stalks), and `F.cochains`, whose
    hom between two of them is their hom in the full subcategory of sections."""
    return [x for x in F.cochains.iter_objects() if is_fuzzy_global_section(F, W, x).ok], F.cochains


def laplacian(F: NetworkSheaf, W: Weighting, x: Cochain) -> Cochain:
    """At every vertex v, one weighted meet of the neighbours' transports
    g_v(f_w(x_w)) weighted W(v, w); the stalk top at isolated vertices."""
    out = {}
    for v, row in F.incoming.items():
        out[v] = F.vertex_lattices[v].weighted_meet(WeightedDiagram(
            [g(f(x[w])) for w, g, f in row], [W(v, w) for w, _g, _f in row]))
    return out


def flow_step(
    F: NetworkSheaf, W: Weighting, x: Cochain,
    omega1: Any = None, omega2: Any = None,
    Lx: Cochain | None = None,
) -> Cochain:
    """One damped diffusion update: at every vertex, the weighted meet of
    (Lx_v, x_v) weighted (omega1, omega2), i.e. omega1 -|> Lx meet omega2 -|> x.
    An omega is a per-vertex mapping, one value for all vertices, or None (unit)."""
    if Lx is None:
        Lx = laplacian(F, W, x)
    unit = F.quantale.unit
    w1 = _omega_fn(omega1, unit)
    w2 = _omega_fn(omega2, unit)
    out = {}
    for v in F.graph.vertices:
        out[v] = F.vertex_lattices[v].weighted_meet(
            WeightedDiagram([Lx[v], x[v]], [w1(v), w2(v)]))
    return out


def _omega_fn(omega, unit):
    if omega is None:
        return lambda v: unit
    if isinstance(omega, Mapping):
        return lambda v: omega[v]
    return lambda v: omega  # constant


@dataclass
class FlowStep:
    t: int
    cochain: Cochain
    suffix_level: Any


@dataclass
class FlowTrace:
    """The iterates of a flow whose transports are enriched functors, and its
    stop: `converged`, or `max_iter_reached`, also when it grows without bound."""

    iterations: list[FlowStep] = field(default_factory=list)
    status: str = "max_iter_reached"  # converged | max_iter_reached
    converged_at: int | None = None

    @property
    def final(self) -> Cochain:
        return self.iterations[-1].cochain

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def harmonic_flow(
    F: NetworkSheaf, W: Weighting, x0: Cochain, *,
    max_iter: int = 200,
    omega_schedule: Callable[[int, Cochain], tuple] | None = None,
    weight_schedule: Callable[[int, Cochain], Weighting] | None = None,
) -> FlowTrace:
    """Iterate the damped diffusion update and record the trajectory.

    It ends `converged` at the first step that changes no vertex up to
    isomorphism, else `max_iter_reached`, which is also how a flow that grows
    without bound (k3's circulant shift) ends.  Transports are assumed to be
    enriched functors (for Lawvere costs, nonexpansive maps), so with fixed
    weights and omegas the suffix level hom(x_t, Lx_t) never decreases.

    omega_schedule(t, x) -> (omega1, omega2) lets callers freeze or release
    vertices over time; weight_schedule(t, x) recomputes the weighting from
    the current state.
    """
    F.check_cochain(x0)
    trace = FlowTrace()
    x = x0
    for t in range(max_iter + 1):
        Wt = weight_schedule(t, x) if weight_schedule is not None else W
        Lx = laplacian(F, Wt, x)
        trace.iterations.append(FlowStep(t, x, F.cochains.hom(x, Lx)))
        if t == max_iter:
            break
        omega1, omega2 = omega_schedule(t, x) if omega_schedule is not None else (None, None)
        nxt = flow_step(F, Wt, x, omega1, omega2, Lx=Lx)
        if F.cochains.iso(nxt, x):
            trace.status = "converged"
            trace.converged_at = t
            return trace
        x = nxt
    return trace


def check_suffix_section_lemmas(
    F: NetworkSheaf, W: Weighting, q, cochains: Iterable[Cochain],
) -> LawReport:
    """One-sided descent lemmas linking edge agreement to flow descent.

    (a) edge homs >= W * q forces hom(x, Lx) >= level * q;
    (b) hom(x, Lx) >= q forces edge homs >= W * level * q;
    (c) when the level is idempotent, membership at level * q is equivalent
        to edge homs >= W * level * q.
    The level is the sheaf's recorded one; the transposition inequality is
    re-verified at it on the pairs each cochain actually induces, so a stale
    recorded level is caught rather than trusted.
    """
    Q = F.quantale
    eps = F.level()
    rep = LawReport(title="suffix/section lemmas")
    idem = Q.eq(Q.mul(eps, eps), eps)
    for x in cochains:
        F.check_cochain(x)
        # premise: transposition at the pairs this cochain exercises
        for v, w, e in F.graph.adjacent_pairs():
            y = F.restrictions[(w, e)](x[w])
            d = adjunction_defect_on(
                Q, F.vertex_lattices[v].category, F.edge_lattices[e].category,
                F.restrictions[(v, e)], F.corestrictions[(e, v)], [x[v]], [y],
            )
            rep.check("adjunction-level-premise", Q.leq(eps, d), (v, w, e),
                      f"defect {d!r} at level {eps!r}")
        homs = {(v, w): h for v, w, _e, h in _edge_homs(F, x)}
        Lx = laplacian(F, W, x)
        sx = F.cochains.hom(x, Lx)
        agree_q = all(Q.leq(Q.mul(W(v, w), q), h) for (v, w), h in homs.items())
        if agree_q:
            rep.check("agreement-implies-descent", Q.leq(Q.mul(eps, q), sx), _key(x),
                      f"suffix level {sx!r} below {Q.mul(eps, q)!r}")
        if Q.leq(q, sx):
            for (v, w), h in homs.items():
                rep.check("descent-implies-agreement",
                          Q.leq(Q.mul(W(v, w), Q.mul(eps, q)), h), (_key(x), v, w),
                          f"edge hom {h!r} below {Q.mul(W(v, w), Q.mul(eps, q))!r}")
        if idem:
            member = Q.leq(Q.mul(eps, q), sx)
            agree = all(Q.leq(Q.mul(W(v, w), Q.mul(eps, q)), h) for (v, w), h in homs.items())
            rep.check("idempotent-biconditional", member == agree, _key(x),
                      f"membership {member} vs agreement {agree}")
    return rep


def _key(x: Cochain) -> tuple:
    return tuple(sorted(((object_sort_key(v), object_sort_key(o)) for v, o in x.items())))


def check_projection_property(
    F: NetworkSheaf, W: Weighting, x0: Cochain, *, max_iter: int = 400,
) -> LawReport:
    """Converged unweighted flow preserves homs from every global section.

    Needs a crisp sheaf and finite convergence; then hom(y, x0) equals
    hom(y, x[t*]) for every section y.
    """
    Q = F.quantale
    rep = LawReport(title="projection property")
    if not rep.check("crisp-laplacian", F.is_crisp(), F.level(),
                     "projection property needs a crisp sheaf"):
        return rep
    trace = harmonic_flow(F, W, x0, max_iter=max_iter)
    if not rep.check("finite-convergence", trace.converged, trace.status):
        return rep
    xf = trace.final
    sections, _ = global_sections(F, W)
    for y in sections:
        before = F.cochains.hom(y, x0)
        after = F.cochains.hom(y, xf)
        rep.check("hom-preserved", Q.eq(before, after), _key(y),
                  f"hom before {before!r} vs after {after!r}")
    return rep
