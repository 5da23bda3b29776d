"""Discrete-event synchronization on max-plus timing stalks.

Each vertex runs m periodic events; the delay matrix A_v(i, j) is the lag
event j's next firing must leave after event i's current firing.  Timing
vectors live in the opposite-order power of extended-real costs, where
hom(x, y) = max_i (x_i - y_i)_+ and tightening a schedule is a meet.  The
restriction of an incidence applies the vertex's max-plus matrix; the
corestriction is the clipped min-plus transpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

# the max-plus kernels live beside `qcat.transport`, and stay importable from here
from ..qcat import (OppositeCategory, PresheafPower, _sub_clipped, maxplus_apply,
                    minplus_transpose_apply, transport)
from ..quantale import LawvereRealsQuantale
from ..report import LawReport
from ..sheaf import Graph, NetworkSheaf, Weighting, laplacian
from ..wlattice import lattice_for

@dataclass
class DesSystem:
    """Per-vertex delay matrices over a shared event count and graph."""

    m: int
    delays: dict  # vertex -> m x m matrix (tuple of tuples)
    graph: Graph
    weights: dict | None = None  # ordered adjacent pair -> bound; None = all unit

    def __post_init__(self):
        self.delays = {v: tuple(tuple(float(c) for c in row) for row in M)
                       for v, M in self.delays.items()}
        for v in self.graph.vertices:
            M = self.delays.get(v)
            if M is None:
                raise ValueError(f"no delay matrix for vertex {v!r}")
            if len(M) != self.m or any(len(row) != self.m for row in M):
                raise ValueError(f"delay matrix at {v!r} must be {self.m}x{self.m}")
            for i, row in enumerate(M):
                for j, c in enumerate(row):
                    if math.isnan(c) or c < 0:
                        raise ValueError(f"delay[{v!r}][{i}][{j}] must be nonnegative, got {c!r}")


def des_sheaf(sys: DesSystem) -> tuple[NetworkSheaf, Weighting]:
    """Sheaf of timing stalks with max-plus transports.

    Each restriction is a max_plus transport and each corestriction its
    right adjoint, so every level is read off the kinds
    (`qcat.transport_level`): over the pairs (x_v, f_v(x')) of the
    incidence's own restriction the clipped min-plus transpose is exact, and
    the recorded levels are crisp when every delay is finite.  The Laplacian
    feeds the corestriction the far endpoint's images instead, where the
    transposition defect can be several cost units, so a crisp recorded
    level is not a certificate for the flow (see NetworkSheaf).
    """
    R = LawvereRealsQuantale()
    cat = OppositeCategory(PresheafPower(R, sys.m))
    lat = lattice_for(cat)
    rest, corest = {}, {}
    for e in sys.graph.edges:
        for v in e:
            rest[(v, e)] = transport("max_plus", cat, cat, sys.delays[v], name=f"maxplus[{v}]")
            corest[(e, v)] = rest[(v, e)].right_adjoint()
    F = NetworkSheaf(
        sys.graph, R,
        {v: lat for v in sys.graph.vertices},
        {e: lat for e in sys.graph.edges},
        rest, corest,
    )
    W = Weighting(sys.graph, R, table=sys.weights, constant=None if sys.weights else R.unit)
    return F, W


def des_laplacian_closed_form(sys: DesSystem, W: Weighting, x: Mapping) -> dict:
    """The timing Laplacian in closed form, read off the transport kinds:

        (L x)_v(i') = min_w [ W(v,w) + min_j ( max_i (A_w(i,j) + x_w(i)) - A_v(i',j) )_+ ]

    the clipped min-plus transpose of A_v applied to the far image A_w (x) x_w,
    computed from the delay matrices alone to cross-check the generic pipeline.
    """
    out = {}
    for v in sys.graph.vertices:
        Av = sys.delays[v]
        vals = []
        for w, _e in sys.graph.neighbors(v):
            Aw = sys.delays[w]
            bound = W(v, w)
            vec = []
            for ip in range(sys.m):
                inner = min(
                    _sub_clipped(max(Aw[i][j] + x[w][i] for i in range(sys.m)), Av[ip][j])
                    for j in range(sys.m)
                )
                vec.append(bound + inner)
            vals.append(tuple(vec))
        out[v] = tuple(min((t[i] for t in vals), default=math.inf) for i in range(sys.m))
    return out


def closed_form_crosscheck(
    sys: DesSystem, F: NetworkSheaf, W: Weighting, cochains: Iterable[Mapping],
) -> LawReport:
    """Compare the closed form against the generic transport meet.

    A disagreement is reported with a (vertex, coordinate, both values)
    witness rather than patched over.
    """
    rep = LawReport(title="closed-form timing Laplacian crosscheck")
    R = F.quantale
    for x in cochains:
        F.check_cochain(x)
        generic = laplacian(F, W, x)
        closed = des_laplacian_closed_form(sys, W, x)
        for v in sys.graph.vertices:
            for i in range(sys.m):
                rep.check("closed-form-agrees", R.eq(generic[v][i], closed[v][i]),
                          (v, i, generic[v][i], closed[v][i]),
                          f"generic {generic[v][i]!r} vs closed form {closed[v][i]!r}")
    return rep


def agreement_slacks(sys: DesSystem, W: Weighting, x: Mapping) -> list[dict]:
    """Per-orientation slack of the displayed synchronization inequalities:

        min_j ( F_w x_w (j) - F_v x_v (j) )_+  <=  W(v, w)

    evaluated directly from the delay matrices, independent of the sheaf
    machinery.  slack = bound - lhs (nonnegative means satisfied).
    """
    out = []
    fired = {v: maxplus_apply(sys.delays[v], tuple(x[v])) for v in sys.graph.vertices}
    for v, w, e in sys.graph.adjacent_pairs():
        lhs = min(_sub_clipped(fired[w][j], fired[v][j]) for j in range(sys.m))
        bound = W(v, w)
        slack = math.inf if math.isinf(bound) else bound - lhs
        out.append({"v": v, "w": w, "edge": e, "lhs": lhs, "bound": bound, "slack": slack})
    return out


def perturbed_des_sheaf(
    sys: DesSystem, noise: Mapping[Any, Sequence[float]],
) -> tuple[NetworkSheaf, Weighting]:
    """Sheaf whose restrictions carry per-source-event noise:
    x |-> max_i (x_i + A(i,j) + eta_i).  Corestrictions stay the base
    transposes, so the level of each incidence (v, e), read off the kinds, is
    max_i |eta_v(i)|, or the bottom where a delay is infinite.
    """
    base_F, W = des_sheaf(sys)
    rest = {}
    for (v, e), f in base_F.restrictions.items():
        eta = tuple(noise[v])
        if len(eta) != sys.m:
            raise ValueError(f"noise at {v!r} must have {sys.m} entries")
        Aeta = tuple(tuple(a + eta[i] for a in row) for i, row in enumerate(f.kind[1]))
        rest[(v, e)] = transport("max_plus", f.domain, f.codomain, Aeta, name=f"maxplus~[{v}]")
    F = NetworkSheaf(
        sys.graph, base_F.quantale, base_F.vertex_lattices, base_F.edge_lattices,
        rest, base_F.corestrictions,
    )
    return F, W
