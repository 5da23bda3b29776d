"""Fuzzy adjunctions: transposition defects, unit/counit criteria,
perturbation bounds, interchange with weighted (co)limits, and synthesis of
right adjoints by the join formula.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Any, Iterable

from .qcat import QCategoryError, QFunctor, functor_defect
from .report import LawReport
from .wlattice import EnumerableLattice, WeightedDiagram, WeightedLattice, lattice_for


def _pairs(F: QFunctor, G: QFunctor, sample: Iterable[tuple] | None):
    if sample is not None:
        return list(sample)
    return list(iproduct(F.domain.objects(), G.domain.objects()))


def adjunction_defect(F: QFunctor, G: QFunctor, sample: Iterable[tuple] | None = None):
    """Largest q with hom(Fx, y) and hom(x, Gy) q-equivalent on the sample.

    sample: (x, y) pairs with x in F's domain, y in G's domain; None scans
    the exhaustive product (enumerable categories only).
    """
    Q = F.domain.quantale
    vals = []
    for x, y in _pairs(F, G, sample):
        a = F.codomain.hom(F(x), y)
        b = F.domain.hom(x, G(y))
        vals.append(Q.meet2(Q.hom(a, b), Q.hom(b, a)))
    return Q.meet(vals)


def check_unit_counit(F: QFunctor, G: QFunctor, q) -> LawReport:
    """Unit/counit criterion for an adjunction at level q, over all objects.

    Both maps must be genuine functors; then hom(x, GFx) >= q and
    hom(FGy, y) >= q, re-expressed against the transposition defect, which
    must also clear q.
    """
    Q = F.domain.quantale
    rep = LawReport(title="unit/counit criterion")
    df, dg = functor_defect(F), functor_defect(G)
    rep.check("left-is-functor", Q.eq(df, Q.unit), df)
    rep.check("right-is-functor", Q.eq(dg, Q.unit), dg)
    for x in F.domain.objects():
        h = F.domain.hom(x, G(F(x)))
        rep.check("unit-level", Q.leq(q, h), x, f"hom(x, GFx)={h!r}")
    for y in G.domain.objects():
        h = F.codomain.hom(F(G(y)), y)
        rep.check("counit-level", Q.leq(q, h), y, f"hom(FGy, y)={h!r}")
    defect = adjunction_defect(F, G)
    rep.check("matches-transposition-defect", Q.leq(q, defect), defect,
              "unit/counit level must agree with the transposition defect")
    return rep


def functor_distance(F: QFunctor, G: QFunctor, sample: Iterable):
    """Largest q with Fx and Gx q-isomorphic for every sampled x."""
    Q = F.codomain.quantale
    return Q.meet(
        Q.meet2(F.codomain.hom(F(x), G(x)), F.codomain.hom(G(x), F(x))) for x in sample
    )


def perturbed_adjunction(
    F: QFunctor, G: QFunctor, Ftilde: QFunctor, q,
    sample: Iterable[tuple] | None = None, perturbed: str = "left",
) -> LawReport:
    """A q-perturbation of one leg of a genuine adjunction is a q-adjoint.

    Premises (checked): the base pair transposes exactly on the sample, and
    Ftilde is within q of the named leg.  Conclusion (checked): the perturbed
    pair's defect still clears q.
    """
    Q = F.domain.quantale
    rep = LawReport(title="perturbed adjunction")
    pairs = _pairs(F, G, sample)
    base = adjunction_defect(F, G, pairs)
    rep.check("base-pair-crisp", Q.eq(base, Q.unit), base,
              "premise: the unperturbed pair must transpose exactly")
    if perturbed == "left":
        dist = functor_distance(F, Ftilde, sorted({x for x, _ in pairs}, key=str))
        conclusion = adjunction_defect(Ftilde, G, pairs)
    elif perturbed == "right":
        dist = functor_distance(G, Ftilde, sorted({y for _, y in pairs}, key=str))
        conclusion = adjunction_defect(F, Ftilde, pairs)
    else:
        raise QCategoryError(f"perturbed must be 'left' or 'right', got {perturbed!r}")
    rep.check("perturbation-within-q", Q.leq(q, dist), dist,
              "premise: the perturbed leg must stay within q of the original")
    rep.check("perturbed-defect-clears-q", Q.leq(q, conclusion), conclusion,
              f"defect {conclusion!r} at level {q!r}")
    return rep


def check_colim_inequality(
    F: QFunctor, D: WeightedDiagram, q,
    dom_lattice: WeightedLattice, cod_lattice: WeightedLattice,
) -> LawReport:
    """For a q-fuzzy functor, the image join sits q-below the join's image;
    the joins are taken in the lattices on F's domain and codomain."""
    Q = F.domain.quantale
    rep = LawReport(title="colimit inequality")
    df = functor_defect(F)
    rep.check("functor-at-level-q", Q.leq(q, df), df)
    jC = dom_lattice.weighted_join(D)
    FD = WeightedDiagram(tuple(F(s) for s in D.objects), D.weights)
    jD = cod_lattice.weighted_join(FD)
    h = F.codomain.hom(jD, F(jC))
    rep.check("image-join-below-join-image", Q.leq(q, h), (jD, F(jC)),
              f"hom={h!r} at level {q!r}")
    return rep


def adjoint_limit_interchange(
    F: QFunctor, G: QFunctor, q, D_dom: WeightedDiagram, D_cod: WeightedDiagram,
) -> LawReport:
    """q-adjoints move weighted joins (left leg, D_dom) and meets (right leg,
    D_cod) across, up to level q*q."""
    Q = F.domain.quantale
    rep = LawReport(title="adjoint limit interchange")
    defect = adjunction_defect(F, G)
    rep.check("pair-at-level-q", Q.leq(q, defect), defect)
    qq = Q.mul(q, q)
    LC, LD = lattice_for(F.domain), lattice_for(F.codomain)
    lhs = F(LC.weighted_join(D_dom))
    rhs = LD.weighted_join(WeightedDiagram(tuple(F(s) for s in D_dom.objects), D_dom.weights))
    rep.check("join-interchange", F.codomain.approx(lhs, rhs, qq), None,
              f"F(join D) vs join F(D) not {qq!r}-equivalent")
    lhs = G(LD.weighted_meet(D_cod))
    rhs = LC.weighted_meet(WeightedDiagram(tuple(G(s) for s in D_cod.objects), D_cod.weights))
    rep.check("meet-interchange", F.domain.approx(lhs, rhs, qq), None,
              f"G(meet D) vs meet G(D) not {qq!r}-equivalent")
    return rep


@dataclass
class SynthesisResult:
    right: QFunctor
    defect: Any


def synthesize_right_adjoint(F: QFunctor) -> SynthesisResult:
    """Candidate right adjoint G(y) = join of {x : Fx <= y at level 1}, a table
    on F's own enumerable categories.

    Isomorphic objects have the same joins, and G picks the one with the
    lowest identifier, so a non-skeletal category needs no quotient.  The
    achieved transposition defect is reported; it is the unit exactly when F
    preserves weighted joins.
    """
    dom, cod = F.domain, F.codomain
    Q = dom.quantale
    images = [(x, F(x)) for x in dom.objects()]
    LC = EnumerableLattice(dom)
    G = QFunctor(cod, dom, {y: LC.crisp_join([x for x, fx in images if Q.leq(Q.unit, cod.hom(fx, y))])
                            for y in cod.objects()}, name=f"{F.name}^r")
    return SynthesisResult(right=G, defect=adjunction_defect(F, G))
