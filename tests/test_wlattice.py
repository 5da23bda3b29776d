"""Weighted meets and joins: search, closed forms, and universal properties.
The rows of `test_differential.py` compare closed forms, search and the
brute-force oracle on the corpus `lattices`; the decomposition row runs here
once more per stalk family."""
from __future__ import annotations

import pytest

from corpora import STALKS
from sheafflow.oracle import brute_weighted_meet
from sheafflow.qcat import OppositeCategory, PresheafPower, UnderlineQ
from sheafflow.quantale import (
    BooleanQuantale,
    FiniteChainQuantale,
    LawvereRealsQuantale,
)
from sheafflow.wlattice import (
    EnumerableLattice,
    NoSuchObject,
    WeightedDiagram,
    analytic_ops_for,
    lattice_for,
)
from test_differential import ROW, check_row


def chain3_underline():
    return EnumerableLattice(UnderlineQ(FiniteChainQuantale(3)))


def test_weighted_meet_chain3_frozen():
    L = chain3_underline()
    D = WeightedDiagram.of([(2, 1), (1, 2)])
    assert L.weighted_meet(D) == 1
    assert L.weighted_meet_via_identity_join(D) == 1
    assert brute_weighted_meet(L, D) == [1]


def test_weighted_join_boolean_frozen():
    L = EnumerableLattice(UnderlineQ(BooleanQuantale()))
    D = WeightedDiagram.of([(0, 1), (1, 0)])
    # only the member weighted 1 constrains the join
    assert L.weighted_join(D) == 0
    D2 = WeightedDiagram.of([(1, 1)])
    assert L.weighted_join(D2) == 1


def test_analytic_lawvere_closed_forms():
    Q = LawvereRealsQuantale()
    L = lattice_for(UnderlineQ(Q))
    D = WeightedDiagram.of([(10.0, 2.0), (3.0, 5.0)])
    # cotensors are residuals: [2,10] = 8, [5,3] = 0; meet = numeric max
    assert L.weighted_meet(D) == 8.0
    # tensors are sums: 2+10, 5+3; join = numeric min
    assert L.weighted_join(D) == 8.0


def test_presheaf_op_pointwise_forms():
    Q = LawvereRealsQuantale()
    L = lattice_for(OppositeCategory(PresheafPower(Q, 2)))
    D = WeightedDiagram.of([((1.0, 2.0), 3.0)])
    # op cotensor is pointwise addition
    assert L.weighted_meet(D) == (4.0, 5.0)
    # op tensor is pointwise residual toward smaller coordinates
    assert L.weighted_join(D) == (0.0, 0.0)


def test_opposite_swaps_meet_and_join():
    Q = FiniteChainQuantale(3)
    L = lattice_for(UnderlineQ(Q))
    Lop = lattice_for(OppositeCategory(UnderlineQ(Q)))
    D = WeightedDiagram.of([(2, 1), (0, 2)])
    assert L.weighted_meet(D) == Lop.weighted_join(D)
    assert L.weighted_join(D) == Lop.weighted_meet(D)


def test_universal_property_report_flags_wrong_candidate():
    L = chain3_underline()
    D = WeightedDiagram.of([(2, 1), (1, 2)])
    good = L.verify_universal_property(D, 1, kind="meet")
    assert good.ok
    bad = L.verify_universal_property(D, 2, kind="meet")
    assert not bad.ok
    assert bad.violations[0].witness is not None


def test_empty_diagram_yields_extremes():
    L = chain3_underline()
    D = WeightedDiagram.of([])
    assert L.weighted_meet(D) == 2  # top of the chain
    assert L.weighted_join(D) == 0  # bottom


def test_no_such_object_raised():
    # two-point discrete category over Boolean: no meet of the two points
    from sheafflow.qcat import FiniteQCategory
    Q = BooleanQuantale()
    C = FiniteQCategory(Q, ["a", "b"], [[1, 0], [0, 1]])
    L = EnumerableLattice(C)
    D = WeightedDiagram.of([("a", 1), ("b", 1)])
    with pytest.raises(NoSuchObject):
        L.weighted_meet(D)
    with pytest.raises(NoSuchObject):
        brute_weighted_meet(L, D)


def test_analytic_ops_for_rejects_unknown():
    from sheafflow.qcat import FiniteQCategory
    C = FiniteQCategory(BooleanQuantale(), [0], [[1]])
    assert analytic_ops_for(C) is None


@pytest.mark.parametrize("stalk", sorted(STALKS))
def test_weighted_ops_decompose_into_cotensors_and_tensors(stalk):
    """Kelly 3.10 on the lattices of one stalk family: a weighted meet is the
    crisp meet of the cotensors of its members, a weighted join the crisp
    join of their tensors; exact here."""
    check_row(ROW["weighted-ops-vs-crisp-ops-of-cotensors-and-tensors"],
              lambda case: case.name.startswith(f"{stalk}["))
