"""Graded preference relations as a weighted lattice, and their diffusion.

A preference relation over alternatives A is a reflexive, transitive matrix
mu(a, b) of quantale values.  The lattice structure: hom(P, M) is the meet
of entrywise residuals, cotensors are entrywise residuals, crisp meets are
entrywise, tensors are entrywise products joined with the discrete identity,
and joins close the entrywise join under composition.  Each keeps relations
reflexive and transitive, or (a cotensor by q with q * q != q) raises.
"""
from __future__ import annotations

import math
from itertools import product as iproduct
from typing import Any, Callable, Iterable, Mapping

from ..qcat import QCategory, QCategoryError, object_sort_key
from ..quantale import Quantale, QuantaleError
from ..report import LawReport
from ..sheaf import NetworkSheaf, Weighting
from ..wlattice import AnalyticLattice, AnalyticOps

Relation = tuple  # square tuple-of-tuples over the alternatives order


class ClosureError(QCategoryError):
    """A matrix is not, or would not stay, reflexive and transitive."""


def relation_from_table(alternatives: Iterable, table: Mapping) -> Relation:
    alts = list(alternatives)
    return tuple(tuple(table[(a, b)] for b in alts) for a in alts)


def check_relation(Q: Quantale, rel: Relation) -> None:
    n = len(rel)
    for i in range(n):
        Q.require(*rel[i])
        if not Q.leq(Q.unit, rel[i][i]):
            raise ClosureError(f"not reflexive at index {i}: {rel[i][i]!r}")
    for i, k, j in iproduct(range(n), range(n), range(n)):
        step = Q.mul(rel[i][k], rel[k][j])
        if not Q.leq(step, rel[i][j]):
            raise ClosureError(
                f"not transitive through {i}->{k}->{j}: {step!r} above {rel[i][j]!r}"
            )


def compose_closure(Q: Quantale, rel: Relation) -> Relation:
    """Iterate R(a,b) <- join_x R(a,x) * R(x,b) to its fixed point.

    Converges because inserting a cycle multiplies by a value at most the
    unit, so simple compositions dominate; rounds double the covered path
    length, so n + 3 rounds always suffice.
    """
    n = len(rel)
    R = tuple(tuple(Q.join2(rel[i][j], Q.unit) if i == j else rel[i][j] for j in range(n))
              for i in range(n))
    limit = n + 3
    for _ in range(limit):
        nxt = tuple(
            tuple(Q.join(Q.mul(R[i][k], R[k][j]) for k in range(n)) for j in range(n))
            for i in range(n)
        )
        if nxt == R:
            return R
        R = nxt
    raise ClosureError(f"composition failed to stabilize within {limit} rounds")


class PreferenceCategory(QCategory):
    """Reflexive transitive matrices over a fixed alternatives order."""

    def __init__(self, quantale: Quantale, alternatives: Iterable):
        self.quantale = quantale
        self.alternatives = tuple(alternatives)
        if not self.alternatives:
            raise QCategoryError("need at least one alternative")
        self.n = len(self.alternatives)

    @property
    def is_enumerable(self):
        return self.quantale.is_enumerable

    def objects(self):
        Q = self.quantale
        elems = Q.elements()
        n = self.n
        out = []
        offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
        for combo in iproduct(elems, repeat=len(offdiag)):
            rel = [[Q.unit] * n for _ in range(n)]
            for (i, j), v in zip(offdiag, combo):
                rel[i][j] = v
            rel = tuple(tuple(row) for row in rel)
            try:
                check_relation(Q, rel)
            except ClosureError:
                continue
            out.append(rel)
        return sorted(out, key=object_sort_key)

    def has_object(self, x):
        if not (isinstance(x, tuple) and len(x) == self.n
                and all(isinstance(r, tuple) and len(r) == self.n for r in x)):
            return False
        try:
            check_relation(self.quantale, x)
        except (ClosureError, QuantaleError):
            return False
        return True

    def hom(self, P, M):
        Q = self.quantale
        return Q.meet(
            Q.hom(P[i][j], M[i][j]) for i in range(self.n) for j in range(self.n)
        )

    def discrete(self) -> Relation:
        Q = self.quantale
        return tuple(
            tuple(Q.unit if i == j else Q.bottom for j in range(self.n))
            for i in range(self.n)
        )

    def full(self) -> Relation:
        return tuple((self.quantale.unit,) * self.n for _ in range(self.n))

    def analytic_lattice_ops(self) -> AnalyticOps:
        Q = self.quantale
        n = self.n

        def cotensor(q, P):
            # q * q = q gives q * [q, a] * [q, b] <= a * b, so [q, a] * [q, b] <= [q, a * b]
            # by residuation and [q, -] keeps P transitive; other weights can break it.
            if not Q.eq(Q.mul(q, q), q):
                raise ClosureError(f"cotensor by {q!r}, which is not idempotent")
            return tuple(tuple(Q.hom(q, P[i][j]) for j in range(n)) for i in range(n))

        def tensor(q, P):
            one = self.discrete()
            return tuple(
                tuple(Q.join2(Q.mul(q, P[i][j]), one[i][j]) for j in range(n))
                for i in range(n)
            )

        def crisp_meet(objs):
            if not objs:
                return self.full()
            return tuple(
                tuple(Q.meet(o[i][j] for o in objs) for j in range(n)) for i in range(n)
            )

        def crisp_join(objs):
            if not objs:
                return self.discrete()
            pointwise = tuple(
                tuple(Q.join(o[i][j] for o in objs) for j in range(n)) for i in range(n)
            )
            return compose_closure(Q, pointwise)

        return AnalyticOps(tensor, cotensor, crisp_meet, crisp_join)

    def __repr__(self):
        return f"PreferenceCategory({self.n} alternatives, {self.quantale.kind})"


def preference_lattice(quantale: Quantale, alternatives: Iterable) -> AnalyticLattice:
    cat = PreferenceCategory(quantale, alternatives)
    return AnalyticLattice(cat, cat.analytic_lattice_ops())


def pullback(f: Mapping, P: Relation, dom: PreferenceCategory, cod: PreferenceCategory) -> Relation:
    """Reindex a relation on the codomain alternatives along f."""
    idx = {b: k for k, b in enumerate(cod.alternatives)}
    return tuple(
        tuple(P[idx[f[a]]][idx[f[b]]] for b in dom.alternatives) for a in dom.alternatives
    )


def pushforward(f: Mapping, P: Relation, dom: PreferenceCategory, cod: PreferenceCategory) -> Relation:
    """Least relation on the codomain whose pullback lies above P.

    Entrywise join over fibers, then reflexive-transitive closure; the
    defining inequality pullback(pushforward(P)) >= P is revalidated.
    """
    Q = dom.quantale
    idx = {b: k for k, b in enumerate(cod.alternatives)}
    raw = [[Q.bottom] * cod.n for _ in range(cod.n)]
    for i, a in enumerate(dom.alternatives):
        for j, b in enumerate(dom.alternatives):
            raw[idx[f[a]]][idx[f[b]]] = Q.join2(raw[idx[f[a]]][idx[f[b]]], P[i][j])
    pushed = compose_closure(Q, tuple(tuple(row) for row in raw))
    back = pullback(f, pushed, dom, cod)
    if not Q.leq(Q.unit, dom.hom(P, back)):
        raise ClosureError("pushforward lost information: pullback fails to dominate the input")
    return pushed


def check_transfer_adjunction(f: Mapping, dom: PreferenceCategory,
                              cod: PreferenceCategory) -> LawReport:
    """Level-1 Galois correspondence over all relations: pushforward <= M iff
    P <= pullback M."""
    Q = dom.quantale
    rep = LawReport(title="transfer adjunction")
    Ms = cod.objects()
    for P in dom.objects():
        pushed = pushforward(f, P, dom, cod)
        for M in Ms:
            left = Q.leq(Q.unit, cod.hom(pushed, M))
            right = Q.leq(Q.unit, dom.hom(P, pullback(f, M, dom, cod)))
            rep.check("transfer-galois", left == right, (P, M),
                      f"pushforward side {left} vs pullback side {right}")
    return rep


def bounded_confidence_weighting(F: NetworkSheaf, eps: Mapping) -> Callable:
    """State-dependent weighting: full trust inside the observer's radius,
    none outside.  W_t(v, w) = unit when x_v and x_w are eps_v-equivalent in
    v's stalk, else bottom.  Plug into harmonic_flow as weight_schedule.
    """
    Q = F.quantale

    def schedule(t: int, x) -> Weighting:
        table = {}
        for v, w, e in F.graph.adjacent_pairs():
            close = F.vertex_lattices[v].category.approx(x[v], x[w], eps[v])
            table[(v, w)] = Q.unit if close else Q.bottom
        return Weighting(F.graph, Q, table=table)

    return schedule
