"""Acceptance battery: one test per criterion, each printing one PASS line.

Every test enforces its own wall-clock budget and the stated tolerances.
Run with `pytest -v tests/test_acceptance.py` to see one pass/fail line
per criterion.
"""
from __future__ import annotations

import math
import time
from random import Random

from sheafflow.adjunction import perturbed_adjunction
from sheafflow.apps.des import (
    DesSystem, agreement_slacks, closed_form_crosscheck, des_sheaf,
    maxplus_apply, minplus_transpose_apply, perturbed_des_sheaf,
)
from sheafflow.apps.paths import MODES, shortest_paths
from sheafflow.apps.prefs import (
    PreferenceCategory, bounded_confidence_weighting, compose_closure,
    preference_lattice, relation_from_table, check_transfer_adjunction,
)
from sheafflow.cli import main as cli_main
from sheafflow.fileio import load_input
from sheafflow.fixpoint import FixpointQuery, verify_tarski
from sheafflow.gen import (
    random_cochain, random_crisp_sheaf,
    random_diagram, random_lattice, random_monotone_endofunctor,
)
from sheafflow.oracle import (
    brute_weighted_join, brute_weighted_meet, classic_shortest_paths,
    grid_residual,
)
from sheafflow.qcat import OppositeCategory, PresheafPower, QFunctor
from sheafflow.quantale import (
    BooleanQuantale, FiniteChainQuantale, FinitePowersetQuantale,
    LawvereRealsQuantale, UnitIntervalQuantale, check_quantale_laws,
)
from sheafflow.sheaf import (
    Graph, Weighting, check_projection_property, check_suffix_section_lemmas,
    flow_step, global_sections, harmonic_flow,
    is_fuzzy_global_section, laplacian,
)
from sheafflow.wlattice import WeightedDiagram

from conftest import fixture_path
from corpora import corpus


def _conclude(num: int, detail: str, t0: float, cap: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < cap, f"criterion {num} exceeded its {cap:.0f}s budget ({elapsed:.1f}s)"
    print(f"[criterion {num:2d}] PASS in {elapsed:.1f}s (budget {cap:.0f}s) — {detail}")


def test_criterion_01_quantale_laws_and_grid_residuals():
    t0 = time.monotonic()
    exhaustive = [
        BooleanQuantale(),
        FiniteChainQuantale(3), FiniteChainQuantale(4), FiniteChainQuantale(5),
        FinitePowersetQuantale([0, 1, 2]),
    ]
    for Q in exhaustive:
        rep = check_quantale_laws(Q, samples="exhaustive")
        assert rep.ok, (Q.kind, rep.violations[:3])
        # grid residuals are exact joins on finite carriers
        for p in Q.elements():
            for q in Q.elements():
                assert Q.eq(Q.hom(p, q), grid_residual(Q, p, q))

    rng = Random(0xACC1)
    floats = [UnitIntervalQuantale(t) for t in ("product", "lukasiewicz", "min")]
    floats.append(LawvereRealsQuantale())
    for Q in floats:
        if isinstance(Q, LawvereRealsQuantale):
            def draw():
                r = rng.random()
                return math.inf if r < 0.05 else rng.uniform(0.0, 10.0)
        else:
            def draw():
                r = rng.random()
                return 0.0 if r < 0.05 else 1.0 if r < 0.1 else rng.random()
        triples = [(draw(), draw(), draw()) for _ in range(10_000)]
        rep = check_quantale_laws(Q, samples=triples)
        assert rep.ok, (Q.kind, rep.violations[:3])
        for p, q, _ in triples[:150]:
            want = Q.hom(p, q)
            got = grid_residual(Q, p, q, resolution=2_000_000)
            if math.isinf(want) or math.isinf(got):
                assert want == got, (Q.kind, p, q, want, got)
            else:
                assert abs(want - got) <= 1e-6, (Q.kind, p, q, want, got)
    _conclude(1, "laws exhaustive + 10k random triples per float kind; "
                 "homs match grid residuals within 1e-6", t0, 10.0)


def test_criterion_02_weighted_limit_oracle_equivalence():
    t0 = time.monotonic()
    rng = Random(0xACC2)
    for trial in range(200):
        L = random_lattice(rng)
        C = L.category
        Q = C.quantale
        D = random_diagram(rng, L, max_size=4)
        for kind, brute in (("meet", brute_weighted_meet), ("join", brute_weighted_join)):
            got = L.weighted_meet(D) if kind == "meet" else L.weighted_join(D)
            witnesses = brute(L, D)
            assert witnesses, (trial, kind)
            assert any(
                Q.leq(Q.unit, C.hom(got, w)) and Q.leq(Q.unit, C.hom(w, got))
                for w in witnesses
            ), (trial, kind, got, witnesses)
            assert L.verify_universal_property(D, got, kind).ok, (trial, kind)
        via = L.weighted_meet_via_identity_join(D)
        direct = L.weighted_meet(D)
        assert Q.leq(Q.unit, C.hom(via, direct)) and Q.leq(Q.unit, C.hom(direct, via))
    _conclude(2, "200 seeded lattices: weighted meet/join = identity-join route "
                 "= brute oracle up to unit-iso, universal property verified", t0, 30.0)


def test_criterion_03_enriched_tarski():
    t0 = time.monotonic()
    rng = Random(0xACC3)
    for trial in range(100):
        L = random_lattice(rng)
        E = random_monotone_endofunctor(rng, L)
        levels = [rng.choice(L.category.quantale.elements()) for _ in range(3)]
        for lvl in levels:
            query = FixpointQuery(L, E, p=lvl, q=lvl)
            rep = verify_tarski(query, seed=trial, diagrams=4)
            assert rep.ok, (trial, lvl, rep.violations[:3])
    _conclude(3, "100 seeded endofunctors x 3 levels: suffix/prefix/stable sets "
                 "nonempty, closed, endo-preserved, complete", t0, 60.0)


def test_criterion_04_hodge_correspondence():
    t0 = time.monotonic()
    for trial, case in enumerate(corpus("criterion4")):
        F, W = case.F, case.W
        Q = F.quantale
        verts = F.graph.vertices
        fixed, suffix, sections = set(), set(), set()
        for x in case.cochains:
            key = tuple(x[v] for v in verts)
            if F.cochains.iso(x, flow_step(F, W, x)):
                fixed.add(key)
            Lx = laplacian(F, W, x)
            if Q.leq(Q.unit, F.cochains.hom(x, Lx)):
                suffix.add(key)
            if is_fuzzy_global_section(F, W, x).ok:
                sections.add(key)
        assert fixed == suffix == sections, (trial, fixed, suffix, sections)
        listed, cat = global_sections(F, W)
        assert {tuple(s[v] for v in verts) for s in listed} == sections, trial
        for y1 in listed:
            for y2 in listed:
                assert Q.eq(cat.hom(y1, y2), F.cochains.hom(y1, y2)), trial
    _conclude(4, "50 seeded crisp sheaves: flow fixed points = unit-level suffix "
                 "points = fuzzy global sections, with matching homs", t0, 60.0)


def _span_cochains(rng, m, verts, count, lo, hi):
    return [{v: tuple(rng.uniform(lo, hi) for _ in range(m)) for v in verts}
            for _ in range(count)]


def test_criterion_05_fuzzy_lemmas_and_perturbation():
    t0 = time.monotonic()
    sys_ = corpus("des-line")[0].source  # the line a-b-c, every weight 4.0
    rng = Random(0xACC5)

    # idempotent case: the crisp base sheaf (level = unit, trivially idempotent)
    F0, W0 = des_sheaf(sys_)
    rep = check_suffix_section_lemmas(
        F0, W0, 1.0, _span_cochains(rng, 2, "abc", 8, 3.0, 10.0))
    assert rep.ok, rep.violations[:3]

    # perturbed transports at their measured level
    noise = {"a": (0.3, 0.1), "b": (0.2, 0.0), "c": (0.1, 0.3)}
    F1, W1 = perturbed_des_sheaf(sys_, noise)
    assert abs(F1.level() - 0.3) <= 1e-9
    rep = check_suffix_section_lemmas(
        F1, W1, 1.0, _span_cochains(rng, 2, "abc", 8, 3.0, 10.0))
    assert rep.ok, rep.violations[:3]

    # a Boolean crisp sheaf exercises the biconditional in an idempotent quantale
    Fb, Wb = random_crisp_sheaf(Random(5), unit_weights=True)
    rep = check_suffix_section_lemmas(
        Fb, Wb, Fb.quantale.unit, [random_cochain(rng, Fb) for _ in range(4)])
    assert rep.ok, rep.violations[:3]

    # perturbing one leg of an exact adjunction by q keeps a q-adjunction
    R = LawvereRealsQuantale()
    cat = OppositeCategory(PresheafPower(R, 2))
    A = ((1.0, 3.0), (2.0, 1.0))
    F = QFunctor(cat, cat, lambda x: maxplus_apply(A, x), name="maxplus")
    G = QFunctor(cat, cat, lambda y: minplus_transpose_apply(A, y), name="transpose")
    for qlvl in (0.1, 0.3, 1.0):
        for draw in range(100):
            eta = tuple(rng.uniform(0.0, qlvl) for _ in range(2))
            Aeta = tuple(tuple(A[i][j] + eta[i] for j in range(2)) for i in range(2))
            Ft = QFunctor(cat, cat, lambda x, M=Aeta: maxplus_apply(M, x), name="maxplus~")
            xs = [tuple(rng.uniform(0.0, 8.0) for _ in range(2)) for _ in range(4)]
            sample = [(x, F(x2)) for x in xs for x2 in xs]
            rep = perturbed_adjunction(F, G, Ft, qlvl, sample, perturbed="left")
            assert rep.ok, (qlvl, draw, rep.violations[:3])
    _conclude(5, "one-sided and idempotent descent lemmas hold; 100 noise draws "
                 "per q in {0.1, 0.3, 1.0} keep q-adjointness", t0, 30.0)


def test_criterion_06_shortest_paths_match_oracle():
    t0 = time.monotonic()
    for trial, case in enumerate(corpus("paths")):
        verts, edges, src = case.source
        want = classic_shortest_paths(edges, src, vertices=verts)
        for mode in MODES:
            res = shortest_paths(edges, src, mode=mode, vertices=verts)
            assert res.distances == want, (trial, mode)
            if mode == "dijkstra_schedule":
                assert res.extractions == len(verts), (trial, res.extractions)
    _conclude(6, "100 seeded connected graphs (n <= 50): both schedules equal the "
                 "classic oracle exactly; |V| extractions", t0, 30.0)


def test_criterion_07_circulant_divergence():
    t0 = time.monotonic()
    _kind, (F, W, x0) = load_input(fixture_path("k3_circulant.json"))
    trace = harmonic_flow(F, W, x0, max_iter=1000)
    assert trace.status == "max_iter_reached"
    assert trace.converged_at is None
    steps = trace.iterations
    assert len(steps) >= 1000
    for i in range(len(steps) - 3):
        for v in F.graph.vertices:
            assert steps[i + 3].cochain[v] > steps[i].cochain[v], (i, v)
    for i in range(0, len(steps), 100):
        chk = is_fuzzy_global_section(F, W, steps[i].cochain)
        assert not chk.ok, (i, steps[i].cochain)
    assert not is_fuzzy_global_section(F, W, x0).ok
    _conclude(7, "1000 iterations reach no fixed point; every coordinate strictly "
                 "grows across 3-step windows; finite trace cochains are never "
                 "sections", t0, 5.0)


def test_criterion_08_projection_property():
    t0 = time.monotonic()
    rng = Random(0xACC8)
    verified = 0
    attempts = 0
    while verified < 25 and attempts < 80:
        attempts += 1
        F, W = random_crisp_sheaf(rng)
        x0 = random_cochain(rng, F)
        rep = check_projection_property(F, W, x0, max_iter=120)
        if any(v.law == "finite-convergence" for v in rep.violations):
            continue  # criterion quantifies over convergent flows only
        assert rep.ok, rep.violations[:3]
        verified += 1
    assert verified == 25, f"only {verified} convergent draws in {attempts} attempts"
    _conclude(8, "25 seeded convergent flows preserve homs from every global "
                 "section", t0, 30.0)


def test_criterion_09_des_synchronization():
    t0 = time.monotonic()
    line = corpus("des-line")[0]
    systems = [(DesSystem(2, line.source.delays, line.source.graph,
                          dict.fromkeys(line.source.weights, 0.5)), line.cochains[0])]
    g2 = Graph.build(["p", "q"], [("p", "q")])
    systems.append((
        DesSystem(3, {"p": [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
                      "q": [[1, 0, 0], [0, 2, 1], [3, 0, 1]]}, g2,
                  {(v, w): 1.0 for v, w, _ in g2.adjacent_pairs()}),
        {"p": (6.0, 5.0, 7.0), "q": (5.5, 6.5, 4.0)},
    ))
    for sys_, start in systems:
        F, W = des_sheaf(sys_)
        trace = harmonic_flow(F, W, start)
        assert trace.status == "converged", trace.status
        final = trace.final
        for row in agreement_slacks(sys_, W, final):
            assert row["slack"] >= -1e-9, row
        rep = closed_form_crosscheck(sys_, F, W, [final, start])
        assert rep.ok or all(v.witness is not None for v in rep.violations)
        if not rep.ok:
            v, i, generic, closed = rep.violations[0].witness
            assert v in sys_.graph.vertices and 0 <= i < sys_.m
            assert not F.quantale.eq(generic, closed)
    _conclude(9, "hand-built systems: converged points satisfy both displayed "
                 "inequalities (slack >= -1e-9); closed form matches or the "
                 "mismatch witness fires", t0, 10.0)


def test_criterion_10_preference_diffusion():
    t0 = time.monotonic()
    B = BooleanQuantale()
    alts = ("x", "y", "z")

    def rel(*pairs):
        table = {(a, b): (1 if a == b or (a, b) in pairs else 0)
                 for a in alts for b in alts}
        return compose_closure(B, relation_from_table(alts, table))

    # lattice operations vs brute-force universal property, |A| <= 3
    L3 = preference_lattice(B, alts)
    C3 = PreferenceCategory(B, alts)
    objs3 = C3.objects()
    assert len(objs3) == 29
    rng = Random(0xACCA)
    diagrams = [WeightedDiagram.of(
        [(objs3[rng.randrange(len(objs3))], rng.choice((0, 1)))
         for _ in range(rng.randint(1, 3))]) for _ in range(12)]
    for D in diagrams:
        m, j = L3.weighted_meet(D), L3.weighted_join(D)
        assert m in brute_weighted_meet(L3, D)
        assert j in brute_weighted_join(L3, D)
        assert L3.verify_universal_property(D, m, "meet").ok
        assert L3.verify_universal_property(D, j, "join").ok
    Qc = FiniteChainQuantale(3)
    Lc = preference_lattice(Qc, ("x", "y"))
    objc = Lc.category.objects()
    for _ in range(10):
        D = WeightedDiagram.of(
            [(objc[rng.randrange(len(objc))], rng.randrange(3))
             for _ in range(rng.randint(1, 3))])
        assert Lc.weighted_meet(D) in brute_weighted_meet(Lc, D)
        assert Lc.weighted_join(D) in brute_weighted_join(Lc, D)

    # transfer adjunction, exhaustive at level 1 on finite quantales
    C2 = PreferenceCategory(B, ("u", "w"))
    rep = check_transfer_adjunction({"x": "u", "y": "u", "z": "w"}, C3, C2)
    assert rep.ok and rep.checks == len(objs3) * len(C2.objects())
    repc = check_transfer_adjunction(
        {"x": "u", "y": "u"}, PreferenceCategory(Qc, ("x", "y")),
        PreferenceCategory(Qc, ("u",)))
    assert repc.ok, repc.violations[:3]

    # bounded confidence with thresholds stricter than every agreement:
    # no neighbor qualifies, so the flow performs zero updates
    g = Graph.build(["p", "q", "r"], [("p", "q"), ("q", "r")])
    ident = QFunctor(C3, C3, lambda P: P, name="id")
    from sheafflow.sheaf import NetworkSheaf
    F = NetworkSheaf(g, B, {v: L3 for v in g.vertices}, {e: L3 for e in g.edges},
                     {(v, e): ident for e in g.edges for v in e},
                     {(e, v): ident for e in g.edges for v in e})
    x0 = {"p": rel(("x", "y")), "q": rel(("y", "z")), "r": rel(("z", "x"))}
    schedule = bounded_confidence_weighting(F, {v: B.unit for v in g.vertices})
    trace = harmonic_flow(F, Weighting(g, B), x0, weight_schedule=schedule)
    assert trace.status == "converged"
    assert trace.final == x0, "expected zero updates at every vertex"
    _conclude(10, "preference ops pass brute-force checks; transfer Galois "
                  "exhaustive at level 1; strict-threshold demo makes zero "
                  "updates", t0, 60.0)


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.monotonic()
    runs = [
        ("validate", "k3_circulant.json", []),
        ("flow", "k3_circulant.json", ["--max-iter", "25"]),
        ("sections", "sheaf_bool_edge.json", []),
        ("verify", "quantale_lukasiewicz.json", ["--grid", "500"]),
        ("des", "des_line.json", []),
        ("paths", "paths_small.json", ["--schedule", "dijkstra"]),
        ("paths", "paths_small.json", ["--schedule", "unweighted"]),
        ("prefs", "prefs_chain.json", []),
    ]
    for i, (command, fixture, extra) in enumerate(runs):
        outputs = []
        for attempt in range(2):
            target = tmp_path / f"{i}_{attempt}.jsonl"
            code = cli_main([command, "--input", fixture_path(fixture),
                             "--seed", "7", *extra, "--output", str(target)])
            assert code == 0, (command, fixture, code)
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], (command, fixture)
        assert outputs[0], (command, "produced no output")
    _conclude(11, "every CLI command is byte-identical across two seeded runs",
              t0, 30.0)
