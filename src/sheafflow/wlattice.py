"""Weighted (co)completeness over a quantale-enriched category.

A weighted lattice wraps a category with weighted meets and joins of
diagrams, defined by their universal properties:

    hom(x, wmeet(S, W)) = meet_c [W(c), hom(x, S(c))]
    hom(wjoin(S, W), x) = meet_c [W(c), hom(S(c), x)]

They are the one primitive: a subclass implements only `weighted_meet` and
`weighted_join`.  The cotensor q -|> y and tensor q (x) x are the weighted
meet and join of the one-object diagram weighted q, the crisp meet and join
those of a unit-weight diagram, and top and bottom the crisp meet and join
of nothing.  Enumerable lattices locate the representing object by one
universal-property search with a lowest-identifier tie-break; analytic
lattices assemble a weighted meet from registered closed forms as the crisp
meet of the cotensors W(c) -|> S(c) (dually for joins), and check no output.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from .qcat import (
    NotEnumerableError,
    OppositeCategory,
    PresheafPower,
    QCategory,
    QCategoryError,
    UnderlineQ,
    object_sort_key,
)
from .quantale import Quantale
from .report import LawReport


class NoSuchObject(QCategoryError):
    """No object of the lattice satisfies the requested universal property."""


class WeightedDiagram:
    """Finite weighted diagram: parallel sequences of objects and weights."""

    __slots__ = ("objects", "weights")

    def __init__(self, objects, weights):
        if len(objects) != len(weights):
            raise QCategoryError("diagram needs one weight per object")
        self.objects = objects
        self.weights = weights

    @classmethod
    def of(cls, pairs: Iterable[tuple]) -> "WeightedDiagram":
        pairs = list(pairs)
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def __len__(self):
        return len(self.objects)

    def pairs(self):
        return list(zip(self.objects, self.weights))


class WeightedLattice:
    """Base interface; a subclass implements weighted_meet and weighted_join,
    and every other lattice operation is derived from them here."""

    category: QCategory
    quantale: Quantale

    @property
    def is_enumerable(self) -> bool:
        return self.category.is_enumerable

    def objects(self) -> list:
        return self.category.objects()

    def hom(self, x, y):
        return self.category.hom(x, y)

    def iso(self, x, y) -> bool:
        return self.category.iso(x, y)

    def weighted_meet(self, D: WeightedDiagram) -> Any:
        raise NotImplementedError

    def weighted_join(self, D: WeightedDiagram) -> Any:
        raise NotImplementedError

    def cotensor(self, q, y):
        """q -|> y: the weighted meet of y alone, weighted q."""
        return self.weighted_meet(WeightedDiagram((y,), (q,)))

    def tensor(self, q, x):
        """q (x) x: the weighted join of x alone, weighted q."""
        return self.weighted_join(WeightedDiagram((x,), (q,)))

    def crisp_meet(self, objs: Iterable) -> Any:
        objs = list(objs)
        return self.weighted_meet(WeightedDiagram(objs, [self.quantale.unit] * len(objs)))

    def crisp_join(self, objs: Iterable) -> Any:
        objs = list(objs)
        return self.weighted_join(WeightedDiagram(objs, [self.quantale.unit] * len(objs)))

    def top(self):
        return self.crisp_meet(())

    def bottom(self):
        return self.crisp_join(())

    def weighted_meet_via_identity_join(self, D: WeightedDiagram) -> Any:
        """Reconstruct the weighted meet as a weighted join of the identity
        diagram with weights V(x) = meet_c [W(c), hom(x, S(c))]."""
        return self.weighted_join(WeightedDiagram.of(self.weight_sides(D, "meet", self.objects())))

    def _toward(self, kind: str) -> Callable[[Any, Any], Any]:
        """The hom both sides of the weighted-`kind` universal property read at
        a probe x: hom(x, -) for a meet, hom(-, x) for a join."""
        hom = self.category.hom
        if kind == "meet":
            return hom
        if kind == "join":
            return lambda x, y: hom(y, x)
        raise QCategoryError(f"kind must be 'meet' or 'join', got {kind!r}")

    def weight_sides(self, D: WeightedDiagram, kind: str, probes: Iterable) -> list[tuple]:
        """(x, weight side) for each probe x: meet_c [W(c), hom(x, S(c))] for a
        meet and meet_c [W(c), hom(S(c), x)] for a join."""
        Q, toward = self.quantale, self._toward(kind)
        pairs = D.pairs()
        return [(x, Q.meet([Q.hom(w, toward(x, s)) for s, w in pairs])) for x in probes]

    def universal_search(self, D: WeightedDiagram, kind: str, candidates: list) -> Any:
        """The first candidate c whose hom side (hom(x, c) for a meet, hom(c, x)
        for a join) equals the weight side at every candidate x, or None: the
        weighted `kind` of D in the full subcategory on the candidates."""
        eq, toward = self.quantale.eq, self._toward(kind)
        sides = self.weight_sides(D, kind, candidates)
        return next((c for c in candidates if all(eq(toward(x, c), rhs) for x, rhs in sides)),
                    None)

    def verify_universal_property(
        self, D: WeightedDiagram, candidate: Any, kind: str = "meet",
        probes: Iterable | None = None,
    ) -> LawReport:
        """Re-derive the universal property at `candidate` against every probe
        object (all objects when enumerable).  Reports the worst witness."""
        Q, toward = self.quantale, self._toward(kind)
        rep = LawReport(title=f"weighted-{kind} universal property")
        obs = list(probes) if probes is not None else self.objects()
        worst = None
        for x, rhs in self.weight_sides(D, kind, obs):
            lhs = toward(x, candidate)
            if not rep.check(f"weighted-{kind}-up", Q.eq(lhs, rhs), x,
                             f"hom side {lhs!r} vs weight side {rhs!r}"):
                gap = Q.gap(lhs, rhs)
                if worst is None or gap > worst[0]:
                    worst = (gap, x, lhs, rhs)
        if worst is not None:
            rep.violations.sort(key=lambda v: 0 if v.witness == worst[1] else 1)
        return rep


class EnumerableLattice(WeightedLattice):
    """Universal properties resolved by search over all objects."""

    def __init__(self, category: QCategory):
        if not category.is_enumerable:
            raise NotEnumerableError("EnumerableLattice needs an enumerable category")
        self.category = category
        self.quantale = category.quantale
        self._objects = sorted(category.objects(), key=object_sort_key)

    def objects(self):
        return list(self._objects)

    def weighted_meet(self, D):
        return self._representing(D, "meet")

    def weighted_join(self, D):
        return self._representing(D, "join")

    def _representing(self, D: WeightedDiagram, kind: str) -> Any:
        found = self.universal_search(D, kind, self._objects)
        if found is None:
            raise NoSuchObject(f"no object is a weighted {kind} of {len(D)} objects")
        return found


@dataclass
class AnalyticOps:
    """Closed forms backing an AnalyticLattice; the crisp meet and join of an
    empty list are the top and bottom."""

    tensor: Callable[[Any, Any], Any]
    cotensor: Callable[[Any, Any], Any]
    crisp_meet: Callable[[list], Any]
    crisp_join: Callable[[list], Any]

    def swapped(self) -> "AnalyticOps":
        return replace(self, tensor=self.cotensor, cotensor=self.tensor,
                       crisp_meet=self.crisp_join, crisp_join=self.crisp_meet)


class AnalyticLattice(WeightedLattice):
    """Weighted meets (joins) as the closed-form crisp meet of cotensors (join
    of tensors); a closed form keeps its outputs in the carrier or raises."""

    def __init__(self, category: QCategory, ops: AnalyticOps):
        self.category = category
        self.quantale = category.quantale
        self.ops = ops

    def weighted_meet(self, D):
        ops = self.ops
        return ops.crisp_meet(list(map(ops.cotensor, D.weights, D.objects)))

    def weighted_join(self, D):
        ops = self.ops
        return ops.crisp_join(list(map(ops.tensor, D.weights, D.objects)))


def _underline_ops(Q: Quantale) -> AnalyticOps:
    return AnalyticOps(tensor=Q.mul, cotensor=Q.hom, crisp_meet=Q.meet, crisp_join=Q.join)


def _power_ops(Q: Quantale, m: int) -> AnalyticOps:
    def pointwise(f):
        return lambda q, x: tuple(f(q, c) for c in x)

    return AnalyticOps(
        tensor=pointwise(Q.mul),
        cotensor=pointwise(Q.hom),
        crisp_meet=lambda objs: tuple(Q.meet(o[i] for o in objs) for i in range(m)),
        crisp_join=lambda objs: tuple(Q.join(o[i] for o in objs) for i in range(m)),
    )


def analytic_ops_for(category: QCategory) -> AnalyticOps | None:
    """Closed forms for the category, or None when only search applies."""
    hook = getattr(category, "analytic_lattice_ops", None)
    if hook is not None:
        return hook()
    if isinstance(category, UnderlineQ):
        return _underline_ops(category.quantale)
    if isinstance(category, PresheafPower):
        return _power_ops(category.quantale, category.m)
    if isinstance(category, OppositeCategory):
        inner = analytic_ops_for(category.base)
        return inner.swapped() if inner is not None else None
    return None


def lattice_for(category: QCategory) -> WeightedLattice:
    """Wrap a category in its natural lattice handle: closed forms when they
    are registered for it, otherwise exhaustive search (a FiniteQCategory
    always takes the search)."""
    ops = analytic_ops_for(category)
    if ops is not None:
        return AnalyticLattice(category, ops)
    if category.is_enumerable:
        return EnumerableLattice(category)
    raise NotEnumerableError(
        f"{category!r} has no registered closed forms and is not enumerable"
    )
