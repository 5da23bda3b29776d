"""Graded adjunctions: defects, perturbations, synthesis, interchange."""
from __future__ import annotations

import math
import random

import pytest

from sheafflow.adjunction import (
    adjunction_defect,
    adjoint_limit_interchange,
    check_colim_inequality,
    check_unit_counit,
    functor_distance,
    perturbed_adjunction,
    synthesize_right_adjoint,
)
from sheafflow.apps.des import maxplus_apply, minplus_transpose_apply
from sheafflow.gen import random_adjoint_pair, random_diagram, random_lattice
from sheafflow.qcat import OppositeCategory, PresheafPower, QFunctor, UnderlineQ, is_functor
from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    LawvereRealsQuantale,
)
from sheafflow.wlattice import EnumerableLattice, WeightedDiagram


def _maxplus_pair(A):
    Q = LawvereRealsQuantale()
    cat = OppositeCategory(PresheafPower(Q, len(A)))
    F = QFunctor(cat, cat, lambda x: maxplus_apply(A, x), name="maxplus")
    G = QFunctor(cat, cat, lambda y: minplus_transpose_apply(A, y), name="transpose")
    return Q, cat, F, G


def test_maxplus_transpose_is_crisp_on_image_points():
    A = ((1.0, 3.0), (2.0, 1.0))
    Q, cat, F, G = _maxplus_pair(A)
    rng = random.Random(2)
    xs = [tuple(rng.uniform(0, 8) for _ in range(2)) for _ in range(12)]
    ys = [F(x) for x in xs]
    sample = [(x, y) for x in xs for y in ys]
    d = adjunction_defect(F, G, sample)
    assert Q.eq(d, Q.unit), d


def test_maxplus_transpose_fails_off_image():
    # m = 1, A = (5): y = 3 is not reachable by firing, and the two
    # transposition sides disagree there
    A = ((5.0,),)
    Q, cat, F, G = _maxplus_pair(A)
    x, y = (0.0,), (3.0,)
    left = cat.hom(F(x), y)
    right = cat.hom(x, G(y))
    assert left == 2.0 and right == 0.0
    d = adjunction_defect(F, G, [(x, y)])
    assert not Q.eq(d, Q.unit)


def test_unit_counit_criterion_matches_defect():
    rng = random.Random(4)
    for _ in range(10):
        L = random_lattice(rng)
        F, G = random_adjoint_pair(rng, L)
        Q = L.category.quantale
        rep = check_unit_counit(F, G, Q.unit)
        assert rep.ok, rep.summary()


def test_perturbed_left_leg_stays_q_adjoint():
    A = ((1.0, 3.0), (2.0, 1.0))
    Q, cat, F, G = _maxplus_pair(A)
    q = 0.5
    eta = (0.5, 0.2)
    Aeta = tuple(tuple(A[i][j] + eta[i] for j in range(2)) for i in range(2))
    Ft = QFunctor(cat, cat, lambda x: maxplus_apply(Aeta, x), name="maxplus~")
    rng = random.Random(6)
    xs = [tuple(rng.uniform(0, 8) for _ in range(2)) for _ in range(10)]
    ys = [F(x) for x in xs]
    sample = [(x, y) for x in xs for y in ys]
    rep = perturbed_adjunction(F, G, Ft, q, sample)
    assert rep.ok, rep.summary()


def test_perturbed_report_flags_oversized_noise():
    A = ((1.0, 3.0), (2.0, 1.0))
    Q, cat, F, G = _maxplus_pair(A)
    Aeta = tuple(tuple(c + 3.0 for c in row) for row in A)
    Ft = QFunctor(cat, cat, lambda x: maxplus_apply(Aeta, x), name="maxplus~~")
    xs = [(0.0, 0.0), (2.0, 1.0)]
    ys = [F(x) for x in xs]
    sample = [(x, y) for x in xs for y in ys]
    rep = perturbed_adjunction(F, G, Ft, 0.5, sample)
    assert not rep.ok  # the premise "within q" fails at noise 3 > 0.5
    assert any(v.law == "perturbation-within-q" for v in rep.violations)


@pytest.mark.parametrize("q, flagged", [(0.5, []), (0.4, []),
                                       (0.3, ["perturbation-within-q", "perturbed-defect-clears-q"])])
def test_perturbed_right_leg(q, flagged):
    # delay every coordinate of the min-plus transpose by 0.4
    A = ((1.0, 3.0), (2.0, 1.0))
    Q, cat, F, G = _maxplus_pair(A)
    Gt = QFunctor(cat, cat, lambda y: tuple(c + 0.4 for c in G(y)), name="transpose~")
    rng = random.Random(6)
    xs = [tuple(rng.uniform(0, 8) for _ in range(2)) for _ in range(10)]
    sample = [(x, F(y)) for x in xs for y in xs]
    rep = perturbed_adjunction(F, G, Gt, q, sample, perturbed="right")
    assert [v.law for v in rep.violations] == flagged, rep.summary()


def test_synthesize_right_adjoint_boolean():
    Q = BooleanQuantale()
    C = UnderlineQ(Q)
    F = QFunctor(C, C, {0: 0, 1: 1}, name="id")
    res = synthesize_right_adjoint(F)
    assert Q.eq(res.defect, Q.unit)
    assert res.right(0) == 0 and res.right(1) == 1


def test_synthesize_right_adjoint_constant_bottom():
    Q = FiniteChainQuantale(3)
    C = UnderlineQ(Q)
    F = QFunctor(C, C, {x: 0 for x in Q.elements()}, name="to-bottom")
    res = synthesize_right_adjoint(F)
    # right adjoint of the constant-bottom map is constant top
    assert Q.eq(res.defect, Q.unit)
    assert all(res.right(y) == 2 for y in Q.elements())


def test_synthesized_adjoint_on_random_monotone_maps(rng):
    hits = 0
    for _ in range(30):
        L = random_lattice(rng)
        F, G = random_adjoint_pair(rng, L)
        Q = L.category.quantale
        d = adjunction_defect(F, G)
        assert Q.eq(d, Q.unit)
        hits += 1
    assert hits == 30


def test_colim_inequality_on_random_pairs(rng):
    for _ in range(10):
        L = random_lattice(rng)
        Q = L.category.quantale
        F, _G = random_adjoint_pair(rng, L)
        D = random_diagram(rng, L)
        rep = check_colim_inequality(F, D, Q.unit, dom_lattice=L, cod_lattice=L)
        assert rep.ok, rep.summary()


def test_interchange_at_unit_level(rng):
    for _ in range(10):
        L = random_lattice(rng)
        Q = L.category.quantale
        F, G = random_adjoint_pair(rng, L)
        D = random_diagram(rng, L)
        rep = adjoint_limit_interchange(F, G, Q.unit, D_dom=D, D_cod=D)
        assert rep.ok, rep.summary()


def test_functor_distance_identity_zero_cost():
    Q = LawvereRealsQuantale()
    cat = OppositeCategory(PresheafPower(Q, 2))
    F = QFunctor(cat, cat, lambda x: x, name="id")
    G = QFunctor(cat, cat, lambda x: (x[0] + 0.25, x[1]), name="nudge")
    xs = [(0.0, 0.0), (1.0, 2.0)]
    assert functor_distance(F, F, xs) == 0.0
    assert functor_distance(F, G, xs) == 0.25
