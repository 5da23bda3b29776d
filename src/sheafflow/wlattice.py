"""Weighted (co)completeness over a quantale-enriched category.

A weighted lattice wraps a category with tensors q (x) x, cotensors
q -|> y, and weighted meets/joins of diagrams.  The defining universal
properties:

    hom(x, wmeet(S, W)) = meet_c [W(c), hom(x, S(c))]
    hom(wjoin(S, W), x) = meet_c [W(c), hom(S(c), x)]

Enumerable lattices locate the representing object by exhaustive search with
a lowest-identifier tie-break; analytic lattices use registered closed forms
and assemble weighted meets as crisp meets of cotensors (and dually).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from random import Random
from typing import Any, Callable, Iterable, Iterator

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


@dataclass(frozen=True)
class WeightedDiagram:
    """Finite weighted diagram: parallel tuples of objects and weights."""

    objects: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.objects) != len(self.weights):
            raise QCategoryError("diagram needs one weight per object")

    @classmethod
    def of(cls, pairs: Iterable[tuple]) -> "WeightedDiagram":
        pairs = list(pairs)
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def __len__(self):
        return len(self.objects)

    def pairs(self):
        return list(zip(self.objects, self.weights))


class WeightedLattice:
    """Base interface; see EnumerableLattice and AnalyticLattice."""

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

    def top(self):
        raise NotImplementedError

    def bottom(self):
        raise NotImplementedError

    def tensor(self, q, x):
        raise NotImplementedError

    def cotensor(self, q, y):
        raise NotImplementedError

    def crisp_meet(self, objs: Iterable) -> Any:
        raise NotImplementedError

    def crisp_join(self, objs: Iterable) -> Any:
        raise NotImplementedError

    def weighted_meet(self, D: WeightedDiagram) -> Any:
        """Decomposition: crisp meet of the cotensors W(c) -|> S(c)."""
        return self.crisp_meet([self.cotensor(w, s) for s, w in D.pairs()])

    def weighted_join(self, D: WeightedDiagram) -> Any:
        """Decomposition: crisp join of the tensors W(c) (x) S(c)."""
        return self.crisp_join([self.tensor(w, s) for s, w in D.pairs()])

    def weighted_meet_via_identity_join(self, D: WeightedDiagram) -> Any:
        """Reconstruct the weighted meet as a weighted join of the identity
        diagram with weights V(x) = meet_c [W(c), hom(x, S(c))]."""
        return self.weighted_join(WeightedDiagram.of(self.weight_sides(D, "meet", self.objects())))

    def sample_object(self, rng: Random) -> Any:
        raise NotImplementedError

    def object_key(self, x) -> str:
        return object_sort_key(x)

    def weight_sides(self, D: WeightedDiagram, kind: str, probes: Iterable) -> list[tuple]:
        """(x, weight side) for each probe x: meet_c [W(c), hom(x, S(c))] for a
        meet and meet_c [W(c), hom(S(c), x)] for a join."""
        if kind not in ("meet", "join"):
            raise QCategoryError(f"kind must be 'meet' or 'join', got {kind!r}")
        Q, hom = self.quantale, self.hom if kind == "meet" else (lambda x, s: self.hom(s, x))
        return [(x, Q.meet(Q.hom(w, hom(x, s)) for s, w in D.pairs())) for x in probes]

    def universal_scan(self, D: WeightedDiagram, kind: str, candidates: Iterable,
                       probes: Iterable) -> Iterator[tuple[Any, Iterator[tuple]]]:
        """Both sides of the weighted-`kind` universal property at each candidate
        c over the probes: yields (c, lazy (x, hom side, weight side) per probe),
        where the hom side is hom(x, c) for a meet and hom(c, x) for a join."""
        sides = self.weight_sides(D, kind, probes)
        hom = self.hom if kind == "join" else (lambda c, x: self.hom(x, c))

        def compare(c):
            for x, rhs in sides:
                yield x, hom(c, x), rhs

        for c in candidates:
            yield c, compare(c)

    def verify_universal_property(
        self, D: WeightedDiagram, candidate: Any, kind: str = "meet",
        probes: Iterable | None = None,
    ) -> LawReport:
        """Re-derive the universal property at `candidate` against every probe
        object (all objects when enumerable).  Reports the worst witness."""
        Q = self.quantale
        rep = LawReport(title=f"weighted-{kind} universal property")
        obs = list(probes) if probes is not None else self.objects()
        [(_c, sides)] = self.universal_scan(D, kind, [candidate], obs)
        worst = None
        for x, lhs, rhs in sides:
            if not rep.check(f"weighted-{kind}-up", Q.eq(lhs, rhs), x,
                             f"hom side {lhs!r} vs weight side {rhs!r}"):
                gap = Q.gap(lhs, rhs)
                if worst is None or gap > worst[0]:
                    worst = (gap, x, lhs, rhs)
        if worst is not None:
            rep.violations.sort(key=lambda v: 0 if v.witness == worst[1] else 1)
        return rep


class EnumerableLattice(WeightedLattice):
    """Universal properties resolved by exhaustive search."""

    def __init__(self, category: QCategory):
        if not category.is_enumerable:
            raise NotEnumerableError("EnumerableLattice needs an enumerable category")
        self.category = category
        self.quantale = category.quantale
        self._objects = sorted(category.objects(), key=object_sort_key)

    def objects(self):
        return list(self._objects)

    def _search(self, spec: Callable[[Any, Any], tuple], describe: str) -> Any:
        """Find the lowest-keyed object c with lhs(x, c) = rhs(x, c) for all x."""
        Q = self.quantale
        for c in self._objects:
            if all(Q.eq(*spec(x, c)) for x in self._objects):
                return c
        raise NoSuchObject(f"no object satisfies {describe}")

    def top(self):
        return self.crisp_meet([])

    def bottom(self):
        return self.crisp_join([])

    def tensor(self, q, x):
        Q = self.quantale
        hom = self.category.hom
        return self._search(
            lambda z, c: (hom(c, z), Q.hom(q, hom(x, z))),
            f"tensor of {q!r} with {x!r}",
        )

    def cotensor(self, q, y):
        Q = self.quantale
        hom = self.category.hom
        return self._search(
            lambda z, c: (hom(z, c), Q.hom(q, hom(z, y))),
            f"cotensor of {q!r} into {y!r}",
        )

    def crisp_meet(self, objs):
        objs = list(objs)
        Q = self.quantale
        hom = self.category.hom
        return self._search(
            lambda z, c: (hom(z, c), Q.meet(hom(z, a) for a in objs)),
            f"meet of {len(objs)} objects",
        )

    def crisp_join(self, objs):
        objs = list(objs)
        Q = self.quantale
        hom = self.category.hom
        return self._search(
            lambda z, c: (hom(c, z), Q.meet(hom(a, z) for a in objs)),
            f"join of {len(objs)} objects",
        )

    def sample_object(self, rng):
        return self._objects[rng.randrange(len(self._objects))]


@dataclass
class AnalyticOps:
    """Closed forms backing an AnalyticLattice."""

    tensor: Callable[[Any, Any], Any]
    cotensor: Callable[[Any, Any], Any]
    crisp_meet: Callable[[list], Any]
    crisp_join: Callable[[list], Any]
    top: Any
    bottom: Any
    sampler: Callable[[Random], Any]
    validate: Callable[[Any], Any] | None = None

    def swapped(self) -> "AnalyticOps":
        return AnalyticOps(
            tensor=self.cotensor,
            cotensor=self.tensor,
            crisp_meet=self.crisp_join,
            crisp_join=self.crisp_meet,
            top=self.bottom,
            bottom=self.top,
            sampler=self.sampler,
            validate=self.validate,
        )


class AnalyticLattice(WeightedLattice):
    """Lattice whose operations are registered closed forms."""

    def __init__(self, category: QCategory, ops: AnalyticOps):
        self.category = category
        self.quantale = category.quantale
        self.ops = ops

    def _out(self, val):
        if self.ops.validate is not None:
            val = self.ops.validate(val)
        return val

    def top(self):
        return self.ops.top

    def bottom(self):
        return self.ops.bottom

    def tensor(self, q, x):
        return self._out(self.ops.tensor(q, x))

    def cotensor(self, q, y):
        return self._out(self.ops.cotensor(q, y))

    def crisp_meet(self, objs):
        return self._out(self.ops.crisp_meet(list(objs)))

    def crisp_join(self, objs):
        return self._out(self.ops.crisp_join(list(objs)))

    def sample_object(self, rng):
        return self.ops.sampler(rng)


def _underline_ops(Q: Quantale) -> AnalyticOps:
    return AnalyticOps(
        tensor=Q.mul,
        cotensor=Q.hom,
        crisp_meet=Q.meet,
        crisp_join=Q.join,
        top=Q.top,
        bottom=Q.bottom,
        sampler=Q.sample,
    )


def _power_ops(Q: Quantale, m: int, op: bool) -> AnalyticOps:
    def pointwise(f):
        return lambda q, x: tuple(f(q, c) for c in x)

    base = AnalyticOps(
        tensor=pointwise(Q.mul),
        cotensor=pointwise(Q.hom),
        crisp_meet=lambda objs: tuple(Q.meet(o[i] for o in objs) for i in range(m)),
        crisp_join=lambda objs: tuple(Q.join(o[i] for o in objs) for i in range(m)),
        top=(Q.top,) * m,
        bottom=(Q.bottom,) * m,
        sampler=lambda rng: tuple(Q.sample(rng) for _ in range(m)),
    )
    return base.swapped() if op else base


def analytic_ops_for(category: QCategory) -> AnalyticOps | None:
    """Closed forms for the category, or None when only search applies."""
    hook = getattr(category, "analytic_lattice_ops", None)
    if hook is not None:
        return hook()
    if isinstance(category, UnderlineQ):
        return _underline_ops(category.quantale)
    if isinstance(category, PresheafPower):
        return _power_ops(category.quantale, category.m, category.op)
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
