"""Independent brute-force oracles.

Everything here recomputes results by exhaustive scan or textbook algorithm,
deliberately avoiding the closed forms and search code it cross-checks.
Comparisons are exact (no tolerance slack) so oracle output can only err on
the conservative side.
"""
from __future__ import annotations

import heapq
import math
from itertools import product as iproduct
from typing import Any, Iterable, Mapping, Sequence

from .qcat import object_sort_key
from .quantale import (
    LawvereRealsQuantale,
    Quantale,
    QuantaleError,
    UnitIntervalQuantale,
)
from .wlattice import NoSuchObject, WeightedDiagram, WeightedLattice


def _mul_exact(Q: Quantale, p, q):
    if isinstance(Q, UnitIntervalQuantale):
        if Q.tnorm == "product":
            return p * q
        if Q.tnorm == "lukasiewicz":
            return max(0.0, p + q - 1.0)
        return min(p, q)
    if isinstance(Q, LawvereRealsQuantale):
        return p + q
    return Q.mul(p, q)


def grid_residual(Q: Quantale, p, q, resolution: int = 1000):
    """Residual [p, q] located on an equispaced grid.

    The admissible set {r : p * r <= q} is an order interval because the
    multiplication is monotone in r, so the boundary grid point is found by
    bisection.  Finite carriers fall back to an exhaustive join.
    """
    if Q.is_enumerable:
        best = Q.bottom
        for r in Q.elements():
            if Q.leq(_mul_exact(Q, p, r), q) and Q.leq(best, r):
                best = r
        return best

    if isinstance(Q, UnitIntervalQuantale):
        # admissible r form a down-set in [0, 1]; find the rightmost grid point
        def ok(k: int) -> bool:
            return _mul_exact(Q, p, k / resolution) <= q

        if not ok(0):
            return 0.0
        lo, hi = 0, resolution
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if ok(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo / resolution

    if isinstance(Q, LawvereRealsQuantale):
        # reversed order: the join of admissible r is their numeric minimum;
        # admissible r form an up-set in [0, span]
        if math.isinf(p):
            return 0.0
        if math.isinf(q):
            return math.inf
        span = max(q, 0.0)
        steps = max(1, math.ceil(span * resolution))

        def ok(k: int) -> bool:
            return p + k / resolution >= q

        if not ok(steps):
            return math.inf
        lo, hi = 0, steps
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo / resolution

    raise QuantaleError(f"no grid residual strategy for {Q.kind}")


def _scan_universal(L: WeightedLattice, D: WeightedDiagram, kind: str) -> list:
    Q = L.quantale
    hom = L.category.hom
    found = []
    for c in L.objects():
        good = True
        for x in L.objects():
            if kind == "meet":
                lhs = hom(x, c)
                rhs = Q.meet(Q.hom(w, hom(x, s)) for s, w in D.pairs())
            else:
                lhs = hom(c, x)
                rhs = Q.meet(Q.hom(w, hom(s, x)) for s, w in D.pairs())
            if not Q.eq(lhs, rhs):
                good = False
                break
        if good:
            found.append(c)
    if not found:
        raise NoSuchObject(f"brute scan: no weighted {kind} for the diagram")
    return sorted(found, key=object_sort_key)


def brute_weighted_meet(L: WeightedLattice, D: WeightedDiagram) -> list:
    """All objects satisfying the weighted-meet universal property exactly."""
    return _scan_universal(L, D, "meet")


def brute_weighted_join(L: WeightedLattice, D: WeightedDiagram) -> list:
    """All objects satisfying the weighted-join universal property exactly."""
    return _scan_universal(L, D, "join")


def classic_shortest_paths(
    edges: Iterable[tuple], source: Any, vertices: Iterable[Any] | None = None
) -> dict:
    """Textbook heap Dijkstra over undirected weighted edges.

    edges: (u, v, weight) triples with nonnegative weights.  Unreachable
    vertices report infinity.
    """
    adj: dict[Any, list] = {}
    seen = set()
    for u, v, w in edges:
        if w < 0:
            raise ValueError(f"negative edge weight {w!r} on ({u!r}, {v!r})")
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))
        seen.update((u, v))
    if vertices is not None:
        seen.update(vertices)
    if source not in seen:
        raise ValueError(f"source {source!r} is not a vertex")
    dist = {v: math.inf for v in seen}
    dist[source] = 0.0
    heap = [(0.0, str(source), source)]
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, str(v), v))
    return dist


def transitive_closure(Q: Quantale, matrix: Sequence[Sequence], max_rounds: int | None = None):
    """Smallest reflexive transitive matrix above the input.

    Entrywise join of the input with unit diagonal, then repeated squaring
    R <- R or (R ; R) until stable.  Terminates because path values in an
    affine quantale only drop when a cycle is inserted, so simple paths
    dominate the join.
    """
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise QuantaleError("closure needs a square matrix")
    R = [[Q.join2(matrix[i][j], Q.unit) if i == j else matrix[i][j] for j in range(n)]
         for i in range(n)]
    limit = max_rounds if max_rounds is not None else n + 2
    for _ in range(limit):
        nxt = [
            [Q.join([R[i][j]] + [Q.mul(R[i][k], R[k][j]) for k in range(n)]) for j in range(n)]
            for i in range(n)
        ]
        if all(nxt[i][j] == R[i][j] for i in range(n) for j in range(n)):
            return R
        R = nxt
    raise QuantaleError(f"closure failed to stabilize within {limit} squarings")
