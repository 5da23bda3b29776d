"""Independent cross-check oracles: grid residuals, brute scans, Dijkstra,
transitive closure."""
from __future__ import annotations

import math
import random

import pytest

from sheafflow.oracle import (
    classic_shortest_paths,
    grid_residual,
    transitive_closure,
)
from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    FinitePowersetQuantale,
    LawvereRealsQuantale,
    UnitIntervalQuantale,
)


FINITE = {
    "boolean": BooleanQuantale(),
    **{f"chain{n}": FiniteChainQuantale(n) for n in range(2, 6)},
    **{f"powerset{k}": FinitePowersetQuantale(range(k)) for k in range(1, 4)},
}


@pytest.mark.parametrize("name", sorted(FINITE))
def test_grid_residual_exact_on_finite(name):
    # the closed-form residuals against the oracle's exhaustive join
    Q = FINITE[name]
    for p in Q.elements():
        for q in Q.elements():
            assert grid_residual(Q, p, q) == Q.hom(p, q)


def test_grid_residual_goguen_frozen():
    Q = UnitIntervalQuantale("product")
    r = grid_residual(Q, 0.7, 0.4, resolution=2_000_000)
    assert abs(r - 0.4 / 0.7) <= 1e-6


def test_grid_residual_lukasiewicz_converges():
    Q = UnitIntervalQuantale("lukasiewicz")
    rng = random.Random(5)
    for _ in range(50):
        p, q = rng.random(), rng.random()
        r = grid_residual(Q, p, q, resolution=2_000_000)
        assert abs(r - Q.hom(p, q)) <= 1e-6


def test_grid_residual_lawvere():
    Q = LawvereRealsQuantale()
    assert abs(grid_residual(Q, 3.0, 5.0, resolution=2_000_000) - 2.0) <= 1e-6
    assert grid_residual(Q, math.inf, 2.0) == 0.0
    assert grid_residual(Q, 2.0, math.inf) == math.inf


def test_grid_residual_boundary_p_zero():
    Q = UnitIntervalQuantale("product")
    # hom(0, q) = 1 exactly, even though q/p blows up
    assert grid_residual(Q, 0.0, 0.3, resolution=10_000) == 1.0


def test_classic_shortest_paths_hand_graph():
    edges = [("s", "a", 2.0), ("s", "b", 5.0), ("a", "b", 1.0),
             ("b", "t", 2.0), ("a", "t", 9.0)]
    d = classic_shortest_paths(edges, "s")
    assert d == {"s": 0.0, "a": 2.0, "b": 3.0, "t": 5.0}


def test_classic_shortest_paths_unreachable():
    d = classic_shortest_paths([("u", "v", 1.0)], "u", vertices=["u", "v", "w"])
    assert d["w"] == math.inf


def test_transitive_closure_boolean_chain():
    Q = BooleanQuantale()
    R = ((0, 1, 0), (0, 0, 1), (0, 0, 0))
    C = transitive_closure(Q, R)
    assert C[0][2] == 1  # composed through the middle
    assert C[0][0] == 1 and C[1][1] == 1 and C[2][2] == 1  # reflexive
    assert C[2][0] == 0


def test_transitive_closure_lawvere_picks_cheapest_route():
    Q = LawvereRealsQuantale()
    inf = math.inf
    R = ((0.0, 1.0, 10.0), (inf, 0.0, 1.0), (inf, inf, 0.0))
    C = transitive_closure(Q, R)
    assert C[0][2] == 2.0  # 1 + 1 beats the direct 10


def test_transitive_closure_idempotent():
    Q = FiniteChainQuantale(3)
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        R = tuple(tuple(rng.randrange(3) for _ in range(n)) for _ in range(n))
        C = transitive_closure(Q, R)
        assert transitive_closure(Q, C) == C
        for i in range(n):
            assert Q.leq(Q.unit, C[i][i])
            for k in range(n):
                for j in range(n):
                    assert Q.leq(Q.mul(C[i][k], C[k][j]), C[i][j])
