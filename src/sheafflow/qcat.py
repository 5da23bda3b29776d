"""Categories enriched in a commutative quantale.

A category here is a set of objects with a hom(x, y) valued in the quantale,
satisfying hom(x, x) >= unit and hom(x, y) * hom(y, z) <= hom(x, z).
Finite categories carry an explicit hom matrix; analytic ones (the quantale
itself as a category, powers of it, opposites, products) compute homs by
formula and may have non-enumerable object sets.
"""
from __future__ import annotations

import math
from collections.abc import Mapping  # isinstance on it is three times as fast as on typing's
from itertools import product as iproduct
from typing import Any, Callable, Iterable

from .quantale import LawvereRealsQuantale, Quantale
from .report import LawReport


class QCategoryError(ValueError):
    pass


class NotEnumerableError(QCategoryError):
    """Raised when an exhaustive operation meets a formula-only category."""


def object_sort_key(x: Any) -> str:
    """Stable textual key used for deterministic tie-breaks."""
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(object_sort_key(e) for e in x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(object_sort_key(e) for e in x) + ")"
    if isinstance(x, float):
        return f"f{x:.12g}"
    return f"{type(x).__name__[0]}{x}"


class QCategory:
    quantale: Quantale

    def hom(self, x: Any, y: Any) -> Any:
        raise NotImplementedError

    @property
    def is_enumerable(self) -> bool:
        return False

    def objects(self) -> list[Any]:
        raise NotEnumerableError(
            f"{type(self).__name__} has no enumerable object set; "
            "exhaustive operations need a finite category"
        )

    def has_object(self, x: Any) -> bool:
        raise NotImplementedError

    def require_object(self, *xs: Any) -> None:
        for x in xs:
            if not self.has_object(x):
                raise QCategoryError(f"{x!r} is not an object of {self!r}")

    # level-q order and equivalence on objects
    def hom_leq(self, x: Any, y: Any, q: Any) -> bool:
        return self.quantale.leq(q, self.hom(x, y))

    def approx(self, x: Any, y: Any, q: Any) -> bool:
        return self.hom_leq(x, y, q) and self.hom_leq(y, x, q)

    def iso(self, x: Any, y: Any) -> bool:
        return self.approx(x, y, self.quantale.unit)


class FiniteQCategory(QCategory):
    """Explicit objects plus a hom matrix."""

    def __init__(self, quantale: Quantale, objects: Iterable[Any], hom: Mapping | list):
        self.quantale = quantale
        self._objects = list(objects)
        if len(set(map(object_sort_key, self._objects))) != len(self._objects):
            raise QCategoryError("object identifiers must be distinct")
        self._index = {x: i for i, x in enumerate(self._objects)}
        n = len(self._objects)
        if isinstance(hom, Mapping):
            matrix = [[None] * n for _ in range(n)]
            for (x, y), v in hom.items():
                matrix[self._index[x]][self._index[y]] = v
            missing = [(i, j) for i in range(n) for j in range(n) if matrix[i][j] is None]
            if missing:
                raise QCategoryError(f"hom table is missing {len(missing)} entries, e.g. {missing[0]}")
            self._hom = matrix
        else:
            hom = [list(row) for row in hom]
            if len(hom) != n or any(len(row) != n for row in hom):
                raise QCategoryError("hom matrix must be square over the object list")
            self._hom = hom
        for row in self._hom:
            for v in row:
                quantale.require(v)

    @property
    def is_enumerable(self):
        return True

    def objects(self):
        return list(self._objects)

    def has_object(self, x):
        return x in self._index

    def hom(self, x, y):
        return self._hom[self._index[x]][self._index[y]]

    def __repr__(self):
        return f"FiniteQCategory({len(self._objects)} objects, {self.quantale.kind})"


class UnderlineQ(QCategory):
    """The quantale as a category over itself: hom(p, q) = [p, q]."""

    def __init__(self, quantale: Quantale):
        self.quantale = quantale

    @property
    def is_enumerable(self):
        return self.quantale.is_enumerable

    def objects(self):
        if not self.quantale.is_enumerable:
            raise NotEnumerableError(f"{self.quantale.kind} carrier is not enumerable")
        return self.quantale.elements()

    def has_object(self, x):
        return self.quantale.contains(x)

    def hom(self, x, y):
        return self.quantale.hom(x, y)

    def __repr__(self):
        return f"UnderlineQ({self.quantale.kind})"


class OppositeCategory(QCategory):
    """Transpose of a base category.  Opposite of an opposite unwraps."""

    def __init__(self, base: QCategory):
        self.base = base
        self.quantale = base.quantale

    @property
    def is_enumerable(self):
        return self.base.is_enumerable

    def objects(self):
        return self.base.objects()

    def has_object(self, x):
        return self.base.has_object(x)

    def hom(self, x, y):
        return self.base.hom(y, x)

    def __repr__(self):
        return f"OppositeCategory({self.base!r})"


class ProductCategory(QCategory):
    """The product indexed by the keys of `factors`, all enriched in `quantale`.

    Objects are dicts from those keys to factor objects, listed with each
    factor's objects in `object_sort_key` order; hom is the meet of the
    factor homs, and iso holds when it holds in every factor.
    """

    def __init__(self, quantale: Quantale, factors: Mapping[Any, QCategory]):
        self.quantale = quantale
        self.factors = dict(factors)

    @property
    def is_enumerable(self):
        return all(f.is_enumerable for f in self.factors.values())

    def objects(self):
        return list(self.iter_objects())

    def iter_objects(self):
        """The objects one at a time, for a walk that keeps only a few."""
        keys = list(self.factors)
        pools = [sorted(f.objects(), key=object_sort_key) for f in self.factors.values()]
        return (dict(zip(keys, combo)) for combo in iproduct(*pools))

    def has_object(self, x):
        return (isinstance(x, dict) and x.keys() == self.factors.keys()
                and all(f.has_object(x[k]) for k, f in self.factors.items()))

    def hom(self, x, y):
        return self.quantale.meet(f.hom(x[k], y[k]) for k, f in self.factors.items())

    def iso(self, x, y):
        return all(f.iso(x[k], y[k]) for k, f in self.factors.items())

    def __repr__(self):
        return f"ProductCategory({len(self.factors)} factors, {self.quantale.kind})"


class PresheafPower(QCategory):
    """Length-m tuples of quantale elements, hom(x, y) = meet_i [x_i, y_i].

    Its opposite, OppositeCategory(PresheafPower(Q, m)), swaps the arguments,
    which for extended-real costs gives hom(x, y) = max_i (x_i - y_i)_+.
    """

    def __init__(self, quantale: Quantale, m: int):
        if not isinstance(m, int) or m < 1:
            raise QCategoryError("power size must be a positive integer")
        self.quantale = quantale
        self.m = m

    @property
    def is_enumerable(self):
        return self.quantale.is_enumerable

    def objects(self):
        if not self.quantale.is_enumerable:
            raise NotEnumerableError(f"{self.quantale.kind} carrier is not enumerable")
        return [tuple(t) for t in iproduct(self.quantale.elements(), repeat=self.m)]

    def has_object(self, x):
        return isinstance(x, tuple) and len(x) == self.m and all(self.quantale.contains(c) for c in x)

    def hom(self, x, y):
        Q = self.quantale
        return Q.meet(Q.hom(a, b) for a, b in zip(x, y))

    def __repr__(self):
        return f"PresheafPower({self.quantale.kind}, m={self.m})"


def _sub_clipped(y: float, a: float) -> float:
    """(y - a)_+ under the cost conventions: a = inf gives 0, y = inf gives inf."""
    if math.isinf(a):
        return 0.0
    if math.isinf(y):
        return math.inf
    return max(y - a, 0.0)


def maxplus_apply(A, x: tuple) -> tuple:
    """j |-> max_i (x_i + A[i][j]).  A is rows-in, columns-out."""
    m_in = len(A)
    if len(x) != m_in:
        raise ValueError(f"timing vector of length {len(x)} against {m_in} matrix rows")
    m_out = len(A[0])
    return tuple(max(x[i] + A[i][j] for i in range(m_in)) for j in range(m_out))


def minplus_transpose_apply(A, y: tuple) -> tuple:
    """i |-> min_j (y_j - A[i][j])_+ with the clipping inside the min."""
    m_in = len(A)
    m_out = len(A[0])
    if len(y) != m_out:
        raise ValueError(f"timing vector of length {len(y)} against {m_out} matrix columns")
    return tuple(min(_sub_clipped(y[j], A[i][j]) for j in range(m_out)) for i in range(m_in))


class QFunctor:
    """Object map between categories; functoriality is a checked property.
    `kind` is ("table",) for a table, (name, *parameters) for a `transport`,
    and None for any other callable."""

    def __init__(self, domain: QCategory, codomain: QCategory, mapping, name: str = ""):
        self.domain = domain
        self.codomain = codomain
        # a table is read through its lookup, chosen once here rather than
        # tested on every call
        self._is_table = type(mapping) is dict or isinstance(mapping, Mapping)
        self._apply = mapping.__getitem__ if self._is_table else mapping
        self.name = name or ("{...}" if self._is_table else getattr(mapping, "__name__", "fn"))
        self.kind = ("table",) if self._is_table else None

    def __call__(self, x: Any) -> Any:
        try:
            return self._apply(x)
        except KeyError:
            if not self._is_table:
                raise
            raise QCategoryError(f"functor {self.name} is undefined on {x!r}") from None

    def right_adjoint(self) -> "QFunctor | None":
        """Right adjoint of an identity, affine_shift or max_plus transport, else None."""
        row = _TRANSPORTS.get(self.kind and self.kind[0])
        if row is None or row[1] is None:
            return None
        return transport(row[1], self.codomain, self.domain, *self.kind[1:], name=f"{self.name}^r")

    def __repr__(self):
        return f"QFunctor({self.name})"


# kind -> (its map given the kind's parameters, the kind of its right adjoint).  The
# max-plus maps look their kernels up by name per call, so a rebinding (a profiler) sees it.
_TRANSPORTS = {
    "identity": (lambda: lambda x: x, "identity"),
    "affine_shift": (lambda c: lambda x: x + c, "affine_unshift"),
    "affine_unshift": (lambda c: lambda y: _sub_clipped(y, c), None),
    "max_plus": (lambda A: lambda x: maxplus_apply(A, x), "min_plus_transpose"),
    "min_plus_transpose": (lambda A: lambda y: minplus_transpose_apply(A, y), None),
}


def transport(kind: str, domain: QCategory, codomain: QCategory, *params, name: str = "") -> QFunctor:
    """The transport of one kind, tagged kind = (kind, *params): identity (its
    own right adjoint), affine_shift c (x + c; right adjoint affine_unshift c,
    (y - c)_+) or max_plus A (right adjoint min_plus_transpose A)."""
    F = QFunctor(domain, codomain, _TRANSPORTS[kind][0](*params), name=name or kind)
    F.kind = (kind, *params)
    return F


def _maxplus_matrix(kind: tuple):
    """A cost transport's matrix: identity is (0), an affine kind by c is (c)."""
    name, *params = kind
    if name == "identity":
        return ((0.0,),)
    return ((params[0],),) if name.startswith("affine") else params[0]


def transport_level(C: QCategory, f: QFunctor, g: QFunctor) -> Any:
    """Adjunction level of restriction f against corestriction g on one stalk
    C over the pairs (x, f(x')), read off their kinds; the quantale's bottom,
    which promises nothing, unless C is a Lawvere cost stalk (UnderlineQ, its
    opposite, or an opposite PresheafPower) and the kinds are cost kinds.

    Reading identity as the max-plus matrix (0) and an affine kind by c as (c),
    max_plus B against min_plus_transpose A has level max_ij |B_ij - A_ij|: no
    transposed term moves further, and a point with one large coordinate,
    paired with the image of zero or of itself, attains it (Baccelli, Cohen,
    Olsder & Quadrat, Synchronization and Linearity, on residuation).  An
    infinite entry gets the bottom, exact when A holds it: the clipped
    transpose sends that coordinate to 0 whatever it is given.
    """
    Q, base = C.quantale, getattr(C, "base", C)
    if not (isinstance(Q, LawvereRealsQuantale)
            and (isinstance(base, UnderlineQ) or (isinstance(base, PresheafPower) and base is not C))
            and f.kind and f.kind[0] in ("identity", "affine_shift", "max_plus")
            and g.kind and g.kind[0] in ("identity", "affine_unshift", "min_plus_transpose")):
        return Q.bottom
    B, A = _maxplus_matrix(f.kind), _maxplus_matrix(g.kind)
    gaps = [abs(b - a) for rb, ra in zip(B, A) for b, a in zip(rb, ra)]
    shaped = [len(r) for r in B] == [len(r) for r in A]
    return max(gaps) if shaped and all(map(math.isfinite, gaps)) else Q.bottom


def validate_category(C: QCategory) -> LawReport:
    """Check unit and composition laws exhaustively."""
    rep = LawReport(title="category laws")
    Q = C.quantale
    obs = C.objects()
    for x in obs:
        rep.check("hom-unit", Q.leq(Q.unit, C.hom(x, x)), x,
                  f"hom(x,x)={C.hom(x, x)!r}")
    for x, y, z in iproduct(obs, obs, obs):
        composite = Q.mul(C.hom(x, y), C.hom(y, z))
        rep.check("hom-composition", Q.leq(composite, C.hom(x, z)), (x, y, z),
                  f"{composite!r} not below {C.hom(x, z)!r}")
    return rep


def opposite(C: QCategory) -> QCategory:
    if isinstance(C, OppositeCategory):
        return C.base
    if isinstance(C, FiniteQCategory):
        obs = C.objects()
        return FiniteQCategory(C.quantale, obs, {(x, y): C.hom(y, x) for x in obs for y in obs})
    return OppositeCategory(C)


def functor_defect(F: QFunctor) -> Any:
    """Largest q at which F is a q-fuzzy functor: the meet over all object
    pairs of [hom(x, y), hom(Fx, Fy)]; unit means genuine."""
    Q = F.domain.quantale
    obs = F.domain.objects()
    return Q.meet(Q.hom(F.domain.hom(x, y), F.codomain.hom(F(x), F(y)))
                  for x, y in iproduct(obs, obs))


def is_functor(F: QFunctor) -> bool:
    Q = F.domain.quantale
    return Q.eq(functor_defect(F), Q.unit)


def skeleton(C: FiniteQCategory) -> tuple[FiniteQCategory, dict]:
    """Quotient by unit-level isomorphism, keeping lowest-key representatives.

    Returns the quotient category and the object -> representative map.
    """
    obs = sorted(C.objects(), key=object_sort_key)
    rep_of: dict = {}
    reps: list = []
    for x in obs:
        for r in reps:
            if C.iso(x, r):
                rep_of[x] = r
                break
        else:
            reps.append(x)
            rep_of[x] = x
    quotient = FiniteQCategory(C.quantale, reps, {(a, b): C.hom(a, b) for a in reps for b in reps})
    return quotient, rep_of
