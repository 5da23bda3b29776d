"""Laws and frozen values for the quantale implementations."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    FinitePowersetQuantale,
    LawvereRealsQuantale,
    Quantale,
    QuantaleError,
    UnitIntervalQuantale,
    check_quantale_laws,
    from_descriptor,
)


def test_finite_laws_exhaustive(finite_quantale):
    rep = check_quantale_laws(finite_quantale, "exhaustive")
    assert rep.ok, rep.summary()


def test_float_laws_sampled(float_quantale, rng):
    triples = [tuple(float_quantale.sample(rng) for _ in range(3)) for _ in range(500)]
    rep = check_quantale_laws(float_quantale, triples)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("Q", [UnitIntervalQuantale(t) for t in UnitIntervalQuantale.TNORMS]
                         + [LawvereRealsQuantale()], ids=repr)
def test_laws_hold_on_tolerance_adjacent_values(Q):
    """Values within the tolerance of each other, or of the bounds, must not
    split the order from the residual."""
    tol = Q.tolerance
    samples = [0.0, tol / 2, 0.3, 0.3 + tol / 2, 0.1 + 0.2, 1.0 - tol / 2, 1.0]
    if isinstance(Q, LawvereRealsQuantale):
        samples.append(math.inf)
    rep = check_quantale_laws(Q, samples)
    assert rep.ok, rep.summary()


@pytest.mark.parametrize("Q", [UnitIntervalQuantale(t) for t in UnitIntervalQuantale.TNORMS]
                         + [LawvereRealsQuantale()], ids=repr)
def test_unit_law_is_exact(Q):
    """mul(unit, q) and mul(q, unit) return q bit for bit; the Lukasiewicz
    sum p + q - 1 used to round 0.1 to 0.10000000000000009."""
    tol = Q.tolerance
    rng = random.Random(17)
    samples = [0.0, tol / 2, 0.1, 0.3, 0.3 + tol / 2, 0.1 + 0.2, 1.0 - tol / 2, 1.0]
    samples += [Q.sample(rng) for _ in range(2000)]
    for q in samples:
        assert Q.mul(Q.unit, q).hex() == q.hex() == Q.mul(q, Q.unit).hex(), q


unit_vals = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0, allow_nan=False))
cost_vals = st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 50.0, allow_nan=False))


@pytest.mark.parametrize("tnorm", ["product", "lukasiewicz", "min"])
@settings(max_examples=200, deadline=None)
@given(p=unit_vals, q=unit_vals, r=unit_vals)
def test_unit_interval_adjunction_property(tnorm, p, q, r):
    Q = UnitIntervalQuantale(tnorm)
    # mul(p, r) <= q iff r <= hom(p, q), up to tolerance
    lhs = Q.leq(Q.mul(p, r), q)
    rhs = Q.leq(r, Q.hom(p, q))
    if lhs != rhs:
        # disagreement is only allowed inside the comparison tolerance band
        assert abs(Q.mul(p, r) - q) <= 2 * Q.tolerance or abs(r - Q.hom(p, q)) <= 2 * Q.tolerance


@settings(max_examples=200, deadline=None)
@given(p=cost_vals, q=cost_vals, r=cost_vals)
def test_lawvere_adjunction_property(p, q, r):
    Q = LawvereRealsQuantale()
    lhs = Q.leq(Q.mul(p, r), q)
    rhs = Q.leq(r, Q.hom(p, q))
    if lhs != rhs:
        gap1 = abs(Q.mul(p, r) - q) if math.isfinite(Q.mul(p, r)) and math.isfinite(q) else math.inf
        gap2 = abs(r - Q.hom(p, q)) if math.isfinite(r) and math.isfinite(Q.hom(p, q)) else math.inf
        assert min(gap1, gap2) <= 2 * Q.tolerance


@settings(max_examples=150, deadline=None)
@given(p=cost_vals, q=cost_vals)
def test_lawvere_order_is_reversed_numeric(p, q):
    Q = LawvereRealsQuantale()
    assert Q.leq(p, q) == (p >= q or abs(p - q) <= Q.tolerance)


def test_boolean_frozen_values():
    Q = BooleanQuantale()
    assert Q.unit == 1 and Q.top == 1 and Q.bottom == 0
    assert Q.hom(1, 0) == 0 and Q.hom(0, 1) == 1 and Q.hom(0, 0) == 1


def test_unit_interval_frozen_homs():
    assert UnitIntervalQuantale("product").hom(0.7, 0.4) == pytest.approx(0.4 / 0.7)
    assert UnitIntervalQuantale("lukasiewicz").hom(0.7, 0.4) == pytest.approx(0.7)
    assert UnitIntervalQuantale("min").hom(0.7, 0.4) == pytest.approx(0.4)
    for tnorm in ("product", "lukasiewicz", "min"):
        Q = UnitIntervalQuantale(tnorm)
        assert Q.hom(0.4, 0.7) == 1.0


def test_lawvere_frozen_homs():
    Q = LawvereRealsQuantale()
    assert Q.hom(3.0, 5.0) == 2.0
    assert Q.hom(5.0, 3.0) == 0.0
    assert Q.hom(math.inf, 2.0) == 0.0
    assert Q.hom(2.0, math.inf) == math.inf
    assert Q.mul(3.0, 5.0) == 8.0
    assert Q.join2(3.0, 5.0) == 3.0 and Q.meet2(3.0, 5.0) == 5.0
    assert Q.bottom == math.inf and Q.unit == 0.0


def test_chain_frozen_values():
    Q = FiniteChainQuantale(4)
    assert Q.elements() == [0, 1, 2, 3]
    assert Q.mul(2, 3) == 2
    assert Q.hom(2, 1) == 1  # largest r with min(2, r) <= 1
    assert Q.hom(1, 2) == 3


def test_powerset_frozen_values():
    Q = FinitePowersetQuantale([0, 1])
    a, b = frozenset([0]), frozenset([1])
    assert Q.mul(a, b) == frozenset()
    assert Q.hom(a, b) == b  # largest s with a & s <= b
    assert Q.top == frozenset([0, 1]) and Q.bottom == frozenset()


def test_powerset_ground_capped():
    with pytest.raises(QuantaleError):
        FinitePowersetQuantale(range(6))


def test_affine_mul_below_meet(finite_quantale):
    Q = finite_quantale
    for p in Q.elements():
        for q in Q.elements():
            assert Q.leq(Q.mul(p, q), Q.meet2(p, q))


def test_boolean_is_the_two_chain():
    B, C = BooleanQuantale(), FiniteChainQuantale(2)
    assert B.elements() == C.elements()
    assert (B.top, B.bottom, B.unit) == (C.top, C.bottom, C.unit)
    for p in B.elements():
        for q in B.elements():
            for op in ("leq", "eq", "mul", "hom", "join2", "meet2"):
                assert getattr(B, op)(p, q) == getattr(C, op)(p, q), (op, p, q)
    assert B.join([]) == C.join([]) and B.meet([]) == C.meet([])
    assert B != C and B.descriptor() == {"kind": "boolean"}


def test_descriptor_round_trip():
    for Q in (BooleanQuantale(), UnitIntervalQuantale("lukasiewicz"),
              LawvereRealsQuantale(), FiniteChainQuantale(3),
              FinitePowersetQuantale([0, 1])):
        assert from_descriptor(Q.descriptor()) == Q


def test_from_descriptor_rejects_unknown():
    with pytest.raises(QuantaleError):
        from_descriptor({"kind": "nope"})
    with pytest.raises(QuantaleError):
        from_descriptor({"n": 3})


class _BrokenChain(FiniteChainQuantale):
    """Deliberately corrupted multiplication for the negative control."""

    def mul(self, p, q):
        if p == 1 and q == 1:
            return 2
        return super().mul(p, q)


def test_law_checker_catches_corruption():
    rep = check_quantale_laws(_BrokenChain(3), "exhaustive")
    assert not rep.ok
    laws = {v.law for v in rep.violations}
    assert laws, "corrupted multiplication must produce violations"


def test_law_checker_accepts_triple_lists():
    Q = LawvereRealsQuantale()
    rep = check_quantale_laws(Q, [(1.0, 2.0, 3.0), (0.0, math.inf, 5.0)])
    assert rep.ok, rep.summary()
