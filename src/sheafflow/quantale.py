"""Commutative affine quantales: complete-lattice carriers with a monoidal
product and its residual.

An instance packages a carrier, the lattice order (leq / join / meet), a
commutative multiplication whose unit is the top element, and the internal
hom [p, q] = largest r with p * r <= q.  Elements are plain Python values
(ints, floats, frozensets); each kind documents its carrier, and the Boolean
quantale is the 2-element chain.  The order and monoid ops assume carrier
members and do not check them: `contains` / `require` run once, where values
enter (file loaders, constructors, and the transport images a sheaf checks).

The order on extended-real costs is reversed: leq(p, q) holds when p >= q
numerically, so join is numeric min, the unit is 0 and bottom is infinity.
"""
from __future__ import annotations

import math
from itertools import chain, combinations, product as iproduct
from random import Random
from typing import Any, Iterable, Sequence

from .report import LawReport


class QuantaleError(ValueError):
    pass


class Quantale:
    """Base class; subclasses fix the carrier and closed forms."""

    kind: str = "abstract"
    tolerance: float = 0.0

    # -- carrier -----------------------------------------------------------
    def contains(self, p: Any) -> bool:
        raise NotImplementedError

    def require(self, *elems: Any) -> None:
        for p in elems:
            if not self.contains(p):
                raise QuantaleError(f"{p!r} is not an element of the {self.kind} carrier")

    @property
    def is_enumerable(self) -> bool:
        return False

    def elements(self) -> list[Any]:
        raise QuantaleError(f"{self.kind} carrier is not enumerable")

    @property
    def top(self) -> Any:
        raise NotImplementedError

    @property
    def bottom(self) -> Any:
        raise NotImplementedError

    @property
    def unit(self) -> Any:
        # affine: the monoidal unit is the top element
        return self.top

    # -- order and monoid --------------------------------------------------
    def leq(self, p: Any, q: Any) -> bool:
        raise NotImplementedError

    def eq(self, p: Any, q: Any) -> bool:
        return self.leq(p, q) and self.leq(q, p)

    def join(self, elems: Iterable[Any]) -> Any:
        raise NotImplementedError

    def meet(self, elems: Iterable[Any]) -> Any:
        raise NotImplementedError

    def join2(self, p: Any, q: Any) -> Any:
        return self.join((p, q))

    def meet2(self, p: Any, q: Any) -> Any:
        return self.meet((p, q))

    def mul(self, p: Any, q: Any) -> Any:
        raise NotImplementedError

    def hom(self, p: Any, q: Any) -> Any:
        """Internal hom: the largest r with mul(p, r) leq q."""
        raise NotImplementedError

    # -- misc ---------------------------------------------------------------
    def gap(self, p: Any, q: Any) -> float:
        """Numeric size of the disagreement between p and q, for reports."""
        if self.eq(p, q):
            return 0.0
        if isinstance(p, (int, float)) and isinstance(q, (int, float)):
            if math.isinf(p) or math.isinf(q):
                return math.inf
            return abs(p - q)
        return 1.0

    def sample(self, rng: Random) -> Any:
        raise NotImplementedError

    def descriptor(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Quantale) and self.descriptor() == other.descriptor()

    def __hash__(self) -> int:
        return hash(str(sorted(self.descriptor().items())))


class UnitIntervalQuantale(Quantale):
    """Carrier [0, 1] with a t-norm multiplication.

    tnorm is one of "product" (Goguen residual), "lukasiewicz", "min"
    (Goedel residual).  p <= q when the residual [p, q] is within `tolerance`
    of the top, so the order agrees with hom for every t-norm.
    """

    TNORMS = ("product", "lukasiewicz", "min")

    def __init__(self, tnorm: str = "product", tolerance: float = 1e-9):
        if tnorm not in self.TNORMS:
            raise QuantaleError(f"unknown t-norm {tnorm!r}; expected one of {self.TNORMS}")
        self.tnorm = tnorm
        self.tolerance = tolerance

    kind = "unit_interval"

    def contains(self, p):
        return isinstance(p, (int, float)) and not math.isnan(p) and -self.tolerance <= p <= 1 + self.tolerance

    top = property(lambda self: 1.0)
    bottom = property(lambda self: 0.0)

    def leq(self, p, q):
        return p <= q or self.hom(p, q) >= 1.0 - self.tolerance

    def join(self, elems):
        return max(elems, default=0.0)

    def meet(self, elems):
        return min(elems, default=1.0)

    def mul(self, p, q):
        if self.tnorm == "product":
            return p * q
        if self.tnorm == "lukasiewicz":
            # the larger argument minus 1 is exact, so mul(1, q) is q bit for bit
            return max(0.0, (max(p, q) - 1.0) + min(p, q))
        return min(p, q)

    def hom(self, p, q):
        if p <= q:
            return 1.0
        if self.tnorm == "product":
            # p > q >= 0 here, so p > 0
            return q / p
        if self.tnorm == "lukasiewicz":
            return min(1.0, 1.0 - p + q)
        return q

    def sample(self, rng):
        u = rng.random()
        if u < 0.05:
            return 0.0
        if u < 0.1:
            return 1.0
        return rng.random()

    def descriptor(self):
        return {"kind": self.kind, "tnorm": self.tnorm}

    def __repr__(self):
        return f"UnitIntervalQuantale({self.tnorm!r})"


class LawvereRealsQuantale(Quantale):
    """Extended nonnegative costs [0, inf] with reversed order.

    leq(p, q) iff p >= q numerically; join is numeric min, meet numeric max,
    multiplication is addition with unit 0, bottom is infinity.  The hom is
    truncated subtraction [p, q] = max(q - p, 0), with [inf, q] = 0.
    """

    kind = "lawvere_reals"

    def __init__(self, tolerance: float = 1e-9):
        self.tolerance = tolerance

    def contains(self, p):
        return isinstance(p, (int, float)) and not math.isnan(p) and p >= -self.tolerance

    top = property(lambda self: 0.0)
    bottom = property(lambda self: math.inf)

    def leq(self, p, q):
        return p >= q - self.tolerance

    def join(self, elems):
        return min(elems, default=math.inf)

    def meet(self, elems):
        return max(elems, default=0.0)

    def mul(self, p, q):
        return p + q

    def hom(self, p, q):
        if math.isinf(p):
            return 0.0
        if math.isinf(q):
            return math.inf
        return max(q - p, 0.0)

    def sample(self, rng):
        u = rng.random()
        if u < 0.08:
            return math.inf
        if u < 0.16:
            return 0.0
        return rng.uniform(0.0, 10.0)


class FiniteQuantale(Quantale):
    """Shared machinery for enumerable carriers."""

    @property
    def is_enumerable(self):
        return True

    def sample(self, rng):
        elems = self.elements()
        return elems[rng.randrange(len(elems))]


class FiniteChainQuantale(FiniteQuantale):
    """Chain 0 < 1 < ... < n-1; mul = min, [p, q] = top if p <= q else q."""

    kind = "finite_chain"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise QuantaleError("chain length must be an integer >= 2")
        self.n = n

    def contains(self, p):
        return isinstance(p, int) and not isinstance(p, bool) and 0 <= p < self.n

    def elements(self):
        return list(range(self.n))

    top = property(lambda self: self.n - 1)
    bottom = property(lambda self: 0)

    def leq(self, p, q):
        return p <= q

    def join(self, elems):
        return max(elems, default=0)

    def meet(self, elems):
        return min(elems, default=self.n - 1)

    def mul(self, p, q):
        return min(p, q)

    def hom(self, p, q):
        return self.n - 1 if p <= q else q

    def descriptor(self):
        return {"kind": self.kind, "n": self.n}

    def __repr__(self):
        return f"FiniteChainQuantale({self.n})"


class BooleanQuantale(FiniteChainQuantale):
    """Carrier {0, 1}: the 2-element chain, so mul is and, hom implication."""

    kind = "boolean"

    def __init__(self):
        super().__init__(2)

    def contains(self, p):
        return p in (0, 1)

    def descriptor(self):
        return {"kind": self.kind}

    def __repr__(self):
        return "BooleanQuantale()"


class FinitePowersetQuantale(FiniteQuantale):
    """Subsets of a ground set (at most 5 points) under inclusion;
    multiplication = intersection, [p, q] = complement(p) | q."""

    kind = "finite_powerset"

    def __init__(self, ground: Sequence[Any]):
        ground = tuple(sorted(set(ground), key=str))
        if not 1 <= len(ground) <= 5:
            raise QuantaleError("ground set must have between 1 and 5 points")
        self.ground = ground

    def contains(self, p):
        return isinstance(p, frozenset) and p <= set(self.ground)

    def elements(self):
        pts = self.ground
        subsets = chain.from_iterable(combinations(pts, k) for k in range(len(pts) + 1))
        return [frozenset(s) for s in subsets]

    top = property(lambda self: frozenset(self.ground))
    bottom = property(lambda self: frozenset())

    def leq(self, p, q):
        return p <= q

    def join(self, elems):
        return frozenset().union(*elems)

    def meet(self, elems):
        return self.top.intersection(*elems)

    def mul(self, p, q):
        return p & q

    def hom(self, p, q):
        return (self.top - p) | q

    def descriptor(self):
        return {"kind": self.kind, "ground": list(self.ground)}

    def __repr__(self):
        return f"FinitePowersetQuantale({list(self.ground)!r})"


# A comparison tolerance is there to absorb rounding.  A large one hides real
# steps: on k3_circulant.json, whose shifts raise every value by 1 a step, a
# Lawvere tolerance of 1 calls the diverging flow converged at step 0.
MAX_TOLERANCE = 1e-3

_DESCRIPTOR_FIELDS = {"boolean": {"kind"}, "unit_interval": {"kind", "tnorm", "tolerance"},
                      "lawvere_reals": {"kind", "tolerance"}, "finite_chain": {"kind", "n"},
                      "finite_powerset": {"kind", "ground"}}


def from_descriptor(desc: dict) -> Quantale:
    """Build an instance from a descriptor that gives only the fields its kind reads."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise QuantaleError(f"quantale descriptor must be a dict with a 'kind' field, got {desc!r}")
    kind = desc["kind"]
    unread = sorted(set(desc) - _DESCRIPTOR_FIELDS.get(kind, set(desc)))
    if unread:
        raise QuantaleError(f"a {kind} quantale does not read field {unread[0]!r}")
    tol = desc.get("tolerance")
    if tol is not None and not (isinstance(tol, (int, float)) and not isinstance(tol, bool)
                                and 0 <= tol <= MAX_TOLERANCE):
        raise QuantaleError(f"tolerance must be a number in [0, {MAX_TOLERANCE:g}], got {tol!r}")
    if kind == "boolean":
        return BooleanQuantale()
    if kind == "unit_interval":
        return UnitIntervalQuantale(desc.get("tnorm", "product"), tol if tol is not None else 1e-9)
    if kind == "lawvere_reals":
        return LawvereRealsQuantale(tol if tol is not None else 1e-9)
    if kind == "finite_chain":
        if "n" not in desc:
            raise QuantaleError("finite_chain descriptor requires field 'n'")
        return FiniteChainQuantale(desc["n"])
    if kind == "finite_powerset":
        if "ground" not in desc:
            raise QuantaleError("finite_powerset descriptor requires field 'ground'")
        return FinitePowersetQuantale(desc["ground"])
    raise QuantaleError(f"unknown quantale kind {kind!r}")


def _triples(Q: Quantale, samples) -> Iterable[tuple]:
    if samples == "exhaustive":
        elems = Q.elements()
        return iproduct(elems, elems, elems)
    samples = list(samples)
    if samples and isinstance(samples[0], tuple) and len(samples[0]) == 3:
        return samples
    return iproduct(samples, samples, samples)

def check_quantale_laws(Q: Quantale, samples="exhaustive") -> LawReport:
    """Check the residuated-lattice laws on sampled (or all) triples.

    samples: "exhaustive" (finite carriers), a list of elements (all ordered
    triples are formed), or a list of 3-tuples used as-is.
    """
    rep = LawReport(title=f"quantale laws [{Q.kind}]")
    leq, eq, mul, hom = Q.leq, Q.eq, Q.mul, Q.hom
    unit, top, bottom = Q.unit, Q.top, Q.bottom
    rep.check("unit-is-top", eq(unit, top), (unit, top), "affine instances need unit = top")
    for p, q, r in _triples(Q, samples):
        rep.checks += 1
        w = (p, q, r)
        if not eq(mul(p, q), mul(q, p)):
            rep.check("mul-commutative", False, w)
        if not eq(mul(mul(p, q), r), mul(p, mul(q, r))):
            rep.check("mul-associative", False, w)
        if not eq(mul(p, unit), p):
            rep.check("mul-unit", False, w)
        if not eq(mul(p, Q.join2(q, r)), Q.join2(mul(p, q), mul(p, r))):
            rep.check("mul-join-distributes", False, w)
        if not eq(mul(p, bottom), bottom):
            rep.check("mul-bottom-absorbs", False, w)
        if not leq(mul(p, q), Q.meet2(p, q)):
            rep.check("affine-mul-below-meet", False, w)
        # hom monotone: contravariant in the source, covariant in the target
        if not leq(hom(p, Q.meet2(q, r)), hom(p, q)):
            rep.check("hom-monotone-target", False, w)
        if not leq(hom(Q.join2(p, r), q), hom(p, q)):
            rep.check("hom-antitone-source", False, w)
        if leq(q, r) and not leq(hom(p, q), hom(p, r)):
            rep.check("hom-monotone-target", False, w)
        if leq(p, r) and not leq(hom(r, q), hom(p, q)):
            rep.check("hom-antitone-source", False, w)
        # hom exchange with meets in the target, joins in the source
        if not eq(hom(p, Q.meet2(q, r)), Q.meet2(hom(p, q), hom(p, r))):
            rep.check("hom-meet-exchange", False, w)
        if not eq(hom(Q.join2(q, r), p), Q.meet2(hom(q, p), hom(r, p))):
            rep.check("hom-join-exchange", False, w)
        # unit law
        if not eq(hom(unit, q), q):
            rep.check("hom-unit", False, w)
        # order characterization, plus the affine collapse
        lhs = leq(q, p)
        rhs = leq(unit, hom(q, p))
        if lhs != rhs:
            rep.check("hom-order-characterization", False, w)
        if lhs and not eq(hom(q, p), unit):
            rep.check("hom-order-affine-collapse", False, w)
        # tensor-hom inequality
        if not leq(mul(hom(p, q), r), hom(p, mul(q, r))):
            rep.check("tensor-hom-inequality", False, w)
        # currying in both orders
        if not eq(hom(p, hom(q, r)), hom(mul(p, q), r)):
            rep.check("hom-currying", False, w)
        if not eq(hom(p, hom(q, r)), hom(q, hom(p, r))):
            rep.check("hom-argument-swap", False, w)
        # evaluation
        if not leq(mul(p, hom(p, q)), q):
            rep.check("hom-evaluation", False, w)
    return rep
