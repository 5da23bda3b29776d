"""Shortest-path driver: both schedules must match a classical oracle, on
hand-built graphs and on the graphs of the corpus `paths` that the row
`shortest-paths-vs-classic-oracle` of `test_differential.py` reads."""
import math
from random import Random

import pytest

from corpora import corpus
from sheafflow.apps.paths import MODES, shortest_paths
from sheafflow.gen import random_connected_graph
from sheafflow.oracle import classic_shortest_paths
from test_differential import ROW

HAND_EDGES = [("s", "a", 2.0), ("s", "b", 5.0), ("a", "b", 1.0),
              ("a", "t", 4.0), ("b", "t", 2.0)]
HAND_ANSWER = {"s": 0.0, "a": 2.0, "b": 3.0, "t": 5.0}


@pytest.mark.parametrize("mode", MODES)
def test_hand_graph_both_modes(mode):
    res = shortest_paths(HAND_EDGES, "s", mode=mode)
    assert res.distances == HAND_ANSWER
    assert res.mode == mode


def test_dijkstra_schedule_extracts_each_vertex_once():
    res = shortest_paths(HAND_EDGES, "s", mode="dijkstra_schedule")
    assert res.extractions == 4


def test_dijkstra_schedule_rejects_an_iteration_cap():
    with pytest.raises(ValueError, match="max_iter"):
        shortest_paths(HAND_EDGES, "s", mode="dijkstra_schedule", max_iter=5)


def test_disconnected_vertex_reports_infinity():
    edges = [("s", "a", 1.0)]
    for mode in MODES:
        res = shortest_paths(edges, "s", mode=mode, vertices=["s", "a", "z"])
        assert res.distances["z"] == math.inf
        assert res.distances["a"] == 1.0
    res = shortest_paths(edges, "s", mode="dijkstra_schedule", vertices=["s", "a", "z"])
    assert res.extractions == 3  # every vertex extracted, reachable or not


def test_bad_mode_and_bad_source_rejected():
    with pytest.raises(ValueError):
        shortest_paths(HAND_EDGES, "s", mode="bellman")
    with pytest.raises(ValueError):
        shortest_paths(HAND_EDGES, "nope")


def test_single_vertex_graph():
    res = shortest_paths([], "s", vertices=["s"])
    assert res.distances == {"s": 0.0}
    assert res.extractions == 1


@pytest.mark.parametrize("mode", MODES)
def test_random_graphs_match_classic_oracle(mode):
    row = ROW["shortest-paths-vs-classic-oracle"]
    for case in filter(row.where, corpus("paths")):
        verts, edges, src = case.source
        res = shortest_paths(edges, src, mode=mode, vertices=verts)
        assert res.distances == classic_shortest_paths(edges, src, vertices=verts), case.name
        if mode == "dijkstra_schedule":
            assert res.extractions == len(verts)


def test_synchronous_trace_converges_within_vertex_count():
    verts, edges = random_connected_graph(Random(5), max_vertices=10, max_weight=6)
    res = shortest_paths(edges, verts[0], mode="synchronous")
    assert res.trace.status == "converged"
    assert res.trace.converged_at is not None
    assert res.trace.converged_at <= len(verts) + 2
