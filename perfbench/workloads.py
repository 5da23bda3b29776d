"""Seeded workloads of the sheafflow benchmark.

Each workload is a closed loop with one client in one process and one
thread: the next request is issued only after the previous one returns.
A request is one solve, and users pay sheaf construction on every solve,
so construction is inside the timed request.

A workload has three parts:

* ``generate(seed, size)`` builds the request pool from the seed alone;
  it runs in set-up.  ``pool[0]`` is the warm-up request.
* ``solve(item)`` is the timed request.  It calls the library only
  through its public entry points and returns a compact output.
* ``check(item, output)`` compares the output with an independent
  reference and returns a list of failure descriptions.  It runs after
  the timed phase.

Sizes inside a pool are stratified (evenly spaced, visited in a
low-discrepancy order), so every seed gives the same mix of instance sizes
and the warm-up request ``pool[0]`` always has the smallest size and is
the same for every seed; the seed varies the structure, weights and start
points of every other item.  Pools have an odd number of
items: the timed loop makes whole passes, so the median then falls inside
one item's repeated samples instead of on the cost gap between two items.

``rate`` is the number of requests per second a workload's request count
is sized for (about the baseline on a 2-vCPU x86 VM).  The timed phase
makes ``passes(seconds, size, pool_size)`` whole passes, a count fixed by
``--seconds`` and not by the clock, so every commit is timed on the same
requests and the tail is the same percentile.  Instance sizes are chosen
so a full run of 20 seconds makes at least 100 requests, which puts the
tail at or above p90, and takes 20 to 30 seconds on that VM.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from random import Random

from sheafflow import cli, gen, oracle
from sheafflow import sheaf as sheaf_mod
from sheafflow.apps import des as des_app
from sheafflow.apps import paths as paths_app

TOL = 1e-9


def spread_order(n: int) -> list[int]:
    """Indices 0..n-1 in golden-ratio order, so every prefix is spread out."""
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    return sorted(range(n), key=lambda k: (k * phi) % 1.0)


def stratified(lo: int, hi: int, n: int) -> list[int]:
    """n sizes evenly spaced over [lo, hi], in spread order."""
    if n == 1:
        return [(lo + hi) // 2]
    sizes = [lo + round((hi - lo) * k / (n - 1)) for k in range(n)]
    return [sizes[k] for k in spread_order(n)]


def rng_for(name: str, seed, index: int) -> Random:
    """Generator of pool item `index`.  Item 0, the warm-up request, is
    drawn alike for every seed, so set-up time does not depend on the seed
    (a seeded 3-vertex Boolean prefs warm-up ranged over 2x in cost)."""
    return Random(f"{name}:{seed if index else 'warm-up'}:{index}")


class Workload:
    name: str
    sizes: dict
    rate: dict  # size -> requests per second the request count is sized for

    def passes(self, seconds: float, size: str, pool_size: int) -> int:
        return max(1, round(seconds * self.rate[size] / pool_size))


def tree_edges(rng: Random, verts: list) -> list[tuple]:
    """Random recursive tree: vertex i hangs off a uniformly chosen earlier one."""
    return [(verts[rng.randrange(i)], verts[i]) for i in range(1, len(verts))]


def banded_tree_edges(rng: Random, verts: list, band: int) -> list[tuple]:
    """Tree whose vertex i hangs off one of the `band` vertices before it:
    long and thin, so a diffusion needs many steps to cross it."""
    return [(verts[rng.randrange(max(0, i - band), i)], verts[i]) for i in range(1, len(verts))]


def chords(rng: Random, verts: list, present: set, count: int) -> list[tuple]:
    """Up to `count` extra edges not already in `present` (sorted index pairs)."""
    out = []
    n = len(verts)
    for _ in range(count * 4):
        if len(out) == count:
            break
        i, j = sorted(rng.sample(range(n), 2))
        if (i, j) not in present:
            present.add((i, j))
            out.append((verts[i], verts[j]))
    return out


def _index_pairs(verts: list, edges: list[tuple]) -> set:
    idx = {v: k for k, v in enumerate(verts)}
    return {tuple(sorted((idx[u], idx[w]))) for u, w in edges}


# ---------------------------------------------------------------------------
# paths-schedule
#
# Why: it is the only workload where the Laplacian runs once per extraction
# on a large graph, so Graph.neighbors scans and the extraction schedule do
# the work.  The enumerable lattice and the finite quantales stay idle.
# ---------------------------------------------------------------------------
class PathsSchedule(Workload):
    name = "paths-schedule"
    sizes = {"full": (32, 56, 51), "small": (8, 14, 3)}
    rate = {"full": 5.1, "small": 40.0}

    def generate(self, seed: int, size: str) -> list[dict]:
        lo, hi, count = self.sizes[size]
        pool = []
        for k, n in enumerate(stratified(lo, hi, count)):
            rng = rng_for(self.name, seed, k)
            verts = [f"n{i}" for i in range(n)]
            rng.shuffle(verts)
            pairs = tree_edges(rng, verts)
            pairs += chords(rng, verts, _index_pairs(verts, pairs), n // 2)
            edges = [(u, w, float(rng.randint(1, 20))) for u, w in pairs]
            pool.append({"id": f"paths-{k}-n{n}", "vertices": sorted(verts),
                         "edges": edges, "source": verts[rng.randrange(n)]})
        return pool

    def solve(self, item: dict):
        r = paths_app.shortest_paths(item["edges"], item["source"],
                                     mode="dijkstra_schedule", vertices=item["vertices"])
        return {"distances": r.distances, "extractions": r.extractions, "status": r.trace.status}

    def check(self, item: dict, out) -> list[str]:
        want = oracle.classic_shortest_paths(item["edges"], item["source"], item["vertices"])
        fails = []
        if out["distances"] != want:
            bad = sorted(v for v in want if out["distances"].get(v) != want[v])
            fails.append(f"distances differ from the heap oracle at {bad[:5]}")
        if out["extractions"] != len(item["vertices"]):
            fails.append(f"{out['extractions']} extractions for {len(item['vertices'])} vertices")
        return fails


# ---------------------------------------------------------------------------
# des-sync
#
# Why: it is the only workload with non-identity transports (max-plus /
# min-plus) and analytic power-lattice stalks.  Sampled adjunction-level
# measurement dominates it, and flows run 10-20 steps.  Graphs mix trees
# with grid-like graphs that contain cycles; every edge carries a constant
# weight of 1 or 2.
#
# Crisp (unit-weight) systems are the separate des-sync-crisp workload,
# which is not in BENCHMARK.json: about a fifth of them, trees and grids
# alike, converge to a schedule that fails agreement_slacks (slack -1) and
# is_fuzzy_global_section, although des_sheaf measures crisp levels.  That
# run reports those instances as failed, unfiltered.
# ---------------------------------------------------------------------------
class DesSync(Workload):
    name = "des-sync"
    sizes = {"full": (16, 32, 51), "small": (6, 12, 5)}
    rate = {"full": 7.65, "small": 30.0}
    start_span = 24
    weighting = "constant"

    @staticmethod
    def _grid(n: int) -> tuple[list, list]:
        """Row-major grid of n vertices, about square, last row partial."""
        cols = max(2, round(math.sqrt(n)))
        verts = [f"g{k // cols}_{k % cols}" for k in range(n)]
        edges = []
        for k in range(n):
            if (k + 1) % cols and k + 1 < n:
                edges.append((verts[k], verts[k + 1]))
            if k + cols < n:
                edges.append((verts[k], verts[k + cols]))
        return verts, edges

    def generate(self, seed: int, size: str) -> list[dict]:
        lo, hi, count = self.sizes[size]
        per_shape = stratified(lo, hi, (count + 1) // 2)
        pool = []
        for k in range(count):
            rng = rng_for(self.name, seed, k)
            n = per_shape[k // 2]
            shape = "tree" if k % 2 == 0 else "grid"
            weighting = self.weighting
            m = 3 + (k // 4) % 2
            if shape == "tree":
                verts = [f"t{i}" for i in range(n)]
                edges = tree_edges(rng, verts)
            else:
                verts, edges = self._grid(n)
            graph = sheaf_mod.Graph.build(verts, edges)
            delays = {v: tuple(tuple(float(rng.randint(0, 3)) for _ in range(m)) for _ in range(m))
                      for v in graph.vertices}
            weights = None
            if weighting == "constant":
                c = float(rng.randint(1, 2))
                weights = {(v, w): c for v, w, _ in graph.adjacent_pairs()}
            system = des_app.DesSystem(m=m, delays=delays, graph=graph, weights=weights)
            x0 = {v: tuple(float(rng.randint(0, self.start_span)) for _ in range(m))
                  for v in graph.vertices}
            pool.append({"id": f"des-{k}-{shape}-{weighting}-n{n}-m{m}",
                         "system": system, "x0": x0})
        return pool

    def solve(self, item: dict):
        F, W = des_app.des_sheaf(item["system"])
        trace = sheaf_mod.harmonic_flow(F, W, item["x0"], max_iter=200)
        return {"status": trace.status, "steps": len(trace.iterations) - 1,
                "final": trace.final}

    def check(self, item: dict, out) -> list[str]:
        if out["status"] != "converged":
            return [f"flow stopped with status {out['status']}"]
        system = item["system"]
        weights = system.weights
        bound = (lambda v, w: weights[(v, w)]) if weights else (lambda v, w: 0.0)
        slacks = des_app.agreement_slacks(system, bound, out["final"])
        bad = [s for s in slacks if s["slack"] < -TOL]
        if bad:
            worst = min(bad, key=lambda s: s["slack"])
            return [f"{len(bad)} edge orientations fail agreement; worst "
                    f"{worst['v']}->{worst['w']} slack {worst['slack']:g}"]
        return []


# ---------------------------------------------------------------------------
# enum-sections
#
# Why: it is the only workload where EnumerableLattice searches and
# FiniteQuantale.hom do the work.  Graphs have at most 3 vertices, so graph
# scaling does not appear.
#
# The sheaves are the same for every seed; the seed picks the start
# cochains.  One solve costs from under a millisecond to about 0.1 s
# depending on the sheaf (the hom table of global_sections is quadratic in
# the number of sections), so with a seed-dependent pool of even a few
# hundred sheaves the tail moved by 30-50% between seeds.
# ---------------------------------------------------------------------------
class EnumSections(Workload):
    name = "enum-sections"
    sizes = {"full": 31, "small": 5}
    rate = {"full": 55.0, "small": 100.0}
    starts = 4

    def generate(self, seed: int, size: str) -> list[dict]:
        pool = []
        for k in range(self.sizes[size]):
            n = 2 + k % 2
            F, W = gen.random_crisp_sheaf(rng_for(self.name, "corpus", k),
                                          min_vertices=n, max_vertices=n)
            rng = rng_for(self.name, seed, k)
            x0s = [{v: rng.choice(F.vertex_lattices[v].objects()) for v in F.graph.vertices}
                   for _ in range(self.starts)]
            pool.append({"id": f"enum-{k}-n{n}", "sheaf": F, "weights": W, "x0s": x0s})
        return pool

    def solve(self, item: dict):
        src = item["sheaf"]
        F = sheaf_mod.NetworkSheaf(src.graph, src.quantale, src.vertex_lattices,
                                   src.edge_lattices, src.restrictions, src.corestrictions)
        sections, _cat = sheaf_mod.global_sections(F, item["weights"])
        flows = []
        for x0 in item["x0s"]:
            trace = sheaf_mod.harmonic_flow(F, item["weights"], x0)
            flows.append((trace.status, trace.final))
        return {"sections": sections, "flows": flows}

    def check(self, item: dict, out) -> list[str]:
        src = item["sheaf"]
        Q = src.quantale
        verts = src.graph.vertices

        def hom(x, y):
            return Q.meet([src.vertex_lattices[v].category.hom(x[v], y[v]) for v in verts])

        fails = []
        if not out["sections"]:
            fails.append("no global section found")
        for x0, (status, final) in zip(item["x0s"], out["flows"]):
            if status != "converged":
                fails.append(f"flow from {x0} stopped with status {status}")
                continue
            if final not in out["sections"]:
                fails.append(f"converged final {final} is not an enumerated section")
            for y in out["sections"]:
                if not Q.eq(hom(y, x0), hom(y, final)):
                    fails.append(f"hom from section {y} changed along the flow from {x0}")
                    break
        return fails


# ---------------------------------------------------------------------------
# prefs-confidence
#
# Why: half the inputs are Boolean with 3 alternatives; they have 29
# preorders per stalk, so exhaustive level measurement over 841 pairs per
# incidence dominates.  The other half are unit-interval (product /
# Lukasiewicz) with 4 alternatives; their levels are sampled, and the
# bounded-confidence flow rebuilds a Weighting every step.  This workload
# uses the construction layer both ways, and it is the only one that covers
# fileio, cli and apps.prefs.
# ---------------------------------------------------------------------------
_TNORMS = {
    "boolean": lambda a, b: min(a, b),
    "product": lambda a, b: a * b,
    "lukasiewicz": lambda a, b: max(0.0, a + b - 1.0),
}


def _residual(tnorm: str, p, q):
    """Largest r with tnorm(p, r) <= q, written out per t-norm."""
    if p <= q:
        return 1
    if tnorm == "boolean":
        return q
    if tnorm == "product":
        return q / p
    return min(1.0, 1.0 - p + q)


def _closure(tnorm: str, rel: list[list]) -> list[list]:
    """Max-t-norm transitive closure (Floyd-Warshall) with a unit diagonal."""
    t = _TNORMS[tnorm]
    k = len(rel)
    R = [[1 if i == j else rel[i][j] for j in range(k)] for i in range(k)]
    for m in range(k):
        for i in range(k):
            for j in range(k):
                v = t(R[i][m], R[m][j])
                if v > R[i][j]:
                    R[i][j] = v
    return R


class PrefsConfidence(Workload):
    name = "prefs-confidence"
    # Boolean inputs take the smaller graphs: they pay 841 level pairs per
    # incidence, so the two halves cost about the same per solve and the
    # median does not fall in a gap between two clusters.
    sizes = {"full": ((3, 4), (5, 10), 51), "small": ((3, 3), (4, 5), 5)}
    rate = {"full": 5.1, "small": 8.0}

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int, size: str) -> list[dict]:
        (blo, bhi), (ulo, uhi), count = self.sizes[size]
        boolean_sizes = stratified(blo, bhi, (count + 1) // 2)
        unit_sizes = stratified(ulo, uhi, count // 2)
        pool = []
        os.makedirs(self.workdir, exist_ok=True)
        for k in range(count):
            rng = rng_for(self.name, seed, k)
            if k % 2 == 0:
                tnorm, n, alts = "boolean", boolean_sizes[k // 2], ["a", "b", "c"]
            else:
                tnorm = ("product", "lukasiewicz")[(k // 2) % 2]
                n, alts = unit_sizes[k // 2], ["a", "b", "c", "d"]
            verts = [f"p{i}" for i in range(n)]
            edges = banded_tree_edges(rng, verts, 3)
            edges += chords(rng, verts, _index_pairs(verts, edges), max(1, n // 6))
            initial, eps = {}, {}
            for v in verts:
                if tnorm == "boolean":
                    raw = [[rng.randrange(2) for _ in alts] for _ in alts]
                    eps[v] = rng.randrange(2)
                else:
                    raw = [[round(rng.uniform(0.0, 1.0), 3) for _ in alts] for _ in alts]
                    eps[v] = round(rng.uniform(0.0, 0.3), 3)
                initial[v] = _closure(tnorm, raw)
            quantale = ({"kind": "boolean"} if tnorm == "boolean"
                        else {"kind": "unit_interval", "tnorm": tnorm})
            payload = {"kind": "prefs", "quantale": quantale, "alternatives": alts,
                       "vertices": verts, "edges": [list(e) for e in edges],
                       "initial": initial, "eps": eps}
            path = os.path.join(self.workdir, f"prefs_{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            pool.append({"id": f"prefs-{k}-{tnorm}-n{n}", "path": path, "payload": payload,
                         "tnorm": tnorm, "seed": seed})
        return pool

    def solve(self, item: dict):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["prefs", "--input", item["path"], "--seed", str(item["seed"])])
        return {"code": code, "stdout": buf.getvalue()}

    def check(self, item: dict, out) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        tnorm = item["tnorm"]
        t = _TNORMS[tnorm]
        payload = item["payload"]
        records = [json.loads(line) for line in out["stdout"].splitlines()]
        final = {r["vertex"]: r["matrix"] for r in records if r.get("record") == "relation"}
        fails = []
        if set(final) != set(payload["vertices"]):
            return ["relation records do not cover the vertices"]
        for v, rel in final.items():
            k = len(rel)
            init = payload["initial"][v]
            if any(rel[i][i] < 1 - TOL for i in range(k)):
                fails.append(f"final relation at {v} is not reflexive")
            if any(t(rel[i][m], rel[m][j]) > rel[i][j] + TOL
                   for i in range(k) for m in range(k) for j in range(k)):
                fails.append(f"final relation at {v} is not transitive")
            if any(rel[i][j] > init[i][j] + TOL for i in range(k) for j in range(k)):
                fails.append(f"final relation at {v} rose above its initial relation")

        def hom(x, y):
            return min(_residual(tnorm, x[i][j], y[i][j])
                       for i in range(len(x)) for j in range(len(x)))

        for v, w in [tuple(e) for e in payload["edges"]] + [tuple(e)[::-1] for e in payload["edges"]]:
            q = payload["eps"][v]
            trusted = hom(final[v], final[w]) >= q - TOL and hom(final[w], final[v]) >= q - TOL
            if trusted and any(final[v][i][j] > final[w][i][j] + TOL
                               for i in range(len(final[v])) for j in range(len(final[v]))):
                fails.append(f"trusted pair {v}->{w} is not ordered entrywise")
        return fails


class DesSyncCrisp(DesSync):
    name = "des-sync-crisp"
    weighting = "crisp"


WORKLOADS = {w.name: w for w in (PathsSchedule, DesSync, DesSyncCrisp, EnumSections,
                                 PrefsConfidence)}


def make(name: str, workdir: str):
    """The named workload; `workdir` holds any input files it writes."""
    if name == PrefsConfidence.name:
        return PrefsConfidence(workdir)
    return WORKLOADS[name]()
