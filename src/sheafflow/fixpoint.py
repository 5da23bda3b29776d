"""Level-indexed pre/post fixed points of lattice endomorphisms.

For an endomorphism L of a weighted lattice and levels p, q:
suffix points satisfy x <=_q Lx, prefix points Lx <=_p x, and stable points
both.  verify_tarski exercises the completeness package: nonemptiness,
closure of suffix sets under weighted joins (prefix sets under meets), the
endomorphism restricting to each set, and the full subcategory on each set
admitting weighted meets and joins of random diagrams drawn inside it.
"""
from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from .qcat import QFunctor, functor_defect
from .report import LawReport
from .wlattice import WeightedDiagram, WeightedLattice


@dataclass
class FixpointQuery:
    lattice: WeightedLattice
    endo: QFunctor
    p: Any
    q: Any

    def __post_init__(self):
        self.lattice.quantale.require(self.p)
        self.lattice.quantale.require(self.q)


def suffix_points(query: FixpointQuery) -> list:
    L, E, Q = query.lattice, query.endo, query.lattice.quantale
    return [x for x in L.objects() if Q.leq(query.q, L.hom(x, E(x)))]


def prefix_points(query: FixpointQuery) -> list:
    L, E, Q = query.lattice, query.endo, query.lattice.quantale
    return [x for x in L.objects() if Q.leq(query.p, L.hom(E(x), x))]


def stable_points(query: FixpointQuery) -> list:
    prefix = prefix_points(query)
    return [x for x in suffix_points(query) if x in prefix]


def _random_diagram(rng: Random, members: list, Q) -> WeightedDiagram:
    size = rng.randint(1, min(4, len(members)))
    objs = tuple(members[rng.randrange(len(members))] for _ in range(size))
    weights = tuple(Q.sample(rng) for _ in range(size))
    return WeightedDiagram(objs, weights)


def verify_tarski(query: FixpointQuery, seed: int = 0, diagrams: int = 10) -> LawReport:
    """Check the fixed-point completeness package for one endomorphism."""
    L, E, Q = query.lattice, query.endo, query.lattice.quantale
    rep = LawReport(title="fixed-point completeness")
    df = functor_defect(E)
    if not rep.check("endo-is-functor", Q.eq(df, Q.unit), df,
                     "endomorphism must be a genuine functor"):
        return rep
    rng = Random(seed)
    suf = suffix_points(query)
    pre = prefix_points(query)
    stab = stable_points(query)
    rep.check("suffix-nonempty", bool(suf), (query.q,))
    rep.check("prefix-nonempty", bool(pre), (query.p,))
    rep.check("stable-nonempty", bool(stab), (query.p, query.q))
    for x in suf:
        rep.check("endo-preserves-suffix", E(x) in suf or any(L.iso(E(x), s) for s in suf), x)
    for x in pre:
        rep.check("endo-preserves-prefix", E(x) in pre or any(L.iso(E(x), s) for s in pre), x)
    for name, members, closed_under in (("suffix", suf, "join"), ("prefix", pre, "meet")):
        if not members:
            continue
        for _ in range(diagrams):
            D = _random_diagram(rng, members, Q)
            ambient = L.weighted_join(D) if closed_under == "join" else L.weighted_meet(D)
            if closed_under == "join":
                ok = Q.leq(query.q, L.hom(ambient, E(ambient)))
            else:
                ok = Q.leq(query.p, L.hom(E(ambient), ambient))
            rep.check(f"{name}-closed-under-weighted-{closed_under}", ok,
                      (D.objects, D.weights))
    for name, members in (("suffix", suf), ("prefix", pre), ("stable", stab)):
        if not members:
            continue
        for _ in range(diagrams):
            D = _random_diagram(rng, members, Q)
            for kind in ("meet", "join"):
                found = L.universal_search(D, kind, members)
                rep.check(f"{name}-subcategory-admits-weighted-{kind}s", found is not None,
                          (D.objects, D.weights))
    return rep
