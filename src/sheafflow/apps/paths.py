"""Single-source shortest paths as harmonic flow on a constant cost sheaf.

Stalks are the opposite-order cost line (meet = numeric min, cotensor adds),
transports are identities, and the edge weighting carries the lengths, so
the transport meet at v is min over neighbors of W(v, w) + x_w.  The
synchronous mode relaxes every vertex each round; the scheduled mode freezes
a settled set and extracts the minimum-value frontier vertex once per round,
exactly |V| extractions in total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

from ..qcat import OppositeCategory, UnderlineQ, object_sort_key
from ..quantale import LawvereRealsQuantale
from ..sheaf import (
    FlowStep,
    FlowTrace,
    Graph,
    Weighting,
    constant_sheaf,
    flow_step,
    harmonic_flow,
    laplacian,
)
from ..wlattice import lattice_for

MODES = ("dijkstra_schedule", "synchronous")


@dataclass
class PathResult:
    distances: dict
    trace: FlowTrace
    extractions: int
    mode: str


def _build(edges: Iterable[tuple], vertices: Iterable | None):
    R = LawvereRealsQuantale()
    vs = set(vertices) if vertices is not None else set()
    table = {}
    pairs = []
    for u, v, w in edges:
        w = float(w)
        if w < 0 or math.isnan(w):
            raise ValueError(f"edge ({u!r}, {v!r}) needs a nonnegative length, got {w!r}")
        vs.update((u, v))
        pairs.append((u, v))
        table[(u, v)] = w
        table[(v, u)] = w
    g = Graph.build(sorted(vs, key=object_sort_key), pairs)
    W = Weighting(g, R, table=table)
    F = constant_sheaf(g, R, lattice_for(OppositeCategory(UnderlineQ(R))))
    return F, W, g


def shortest_paths(
    edges: Iterable[tuple], source: Any,
    mode: str = "dijkstra_schedule",
    vertices: Iterable | None = None,
    max_iter: int | None = None,
) -> PathResult:
    """Distances from `source`; unreachable vertices report infinity.
    `max_iter` caps the synchronous mode only; the scheduled mode always makes
    |V| extractions and raises ValueError when given one."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "dijkstra_schedule" and max_iter is not None:
        raise ValueError("max_iter applies to the synchronous mode only; "
                         "dijkstra_schedule makes exactly |V| extractions")
    F, W, g = _build(list(edges), vertices)
    if source not in set(g.vertices):
        raise ValueError(f"source {source!r} is not a vertex")
    x0 = {v: (0.0 if v == source else math.inf) for v in g.vertices}
    if mode == "synchronous":
        limit = max_iter if max_iter is not None else len(g.vertices) + 2
        trace = harmonic_flow(F, W, x0, max_iter=limit)
        return PathResult(dict(trace.final), trace, 0, mode)

    # scheduled mode: settle one frontier vertex per round
    unsettled = set(g.vertices)
    extractions = 0
    trace = FlowTrace()
    x = x0
    t = 0
    while unsettled:
        Lx = laplacian(F, W, x)
        trace.iterations.append(FlowStep(t, x, F.cochains.hom(x, Lx)))
        pick = min(unsettled, key=lambda v: (x[v], object_sort_key(v)))
        unsettled.discard(pick)
        extractions += 1
        omega1 = {v: (0.0 if v in unsettled else math.inf) for v in g.vertices}
        x = flow_step(F, W, x, omega1, 0.0, Lx=Lx)
        t += 1
    Lx = laplacian(F, W, x)
    trace.iterations.append(FlowStep(t, x, F.cochains.hom(x, Lx)))
    settled_fix = flow_step(F, W, x, None, None, Lx=Lx)
    if F.cochains.iso(settled_fix, x):
        trace.status = "converged"
        trace.converged_at = t
    else:
        trace.status = "max_iter_reached"
    return PathResult(dict(x), trace, extractions, mode)
