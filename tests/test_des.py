"""Timing-network application: max-plus transports, closed form, perturbation."""
import math
from random import Random

import pytest

from corpora import corpus
from sheafflow.apps.des import (
    DesSystem, _sub_clipped, agreement_slacks, closed_form_crosscheck,
    des_laplacian_closed_form, des_sheaf, maxplus_apply,
    minplus_transpose_apply, perturbed_des_sheaf,
)
from sheafflow.sheaf import (
    Graph, SheafError, check_suffix_section_lemmas, harmonic_flow, laplacian,
)


def _line_system(bound=4.0):
    """The DES line a-b-c of the registry (every weight 4.0) with every weight `bound`."""
    line = corpus("des-line")[0].source
    return DesSystem(line.m, line.delays, line.graph, dict.fromkeys(line.weights, bound))


INITIAL = {"a": (9.0, 7.0), "b": (8.0, 8.0), "c": (6.0, 9.0)}


def test_matrix_actions_frozen_values():
    A = ((1.0, 3.0), (2.0, 1.0))
    assert maxplus_apply(A, (9.0, 7.0)) == (10.0, 12.0)
    assert minplus_transpose_apply(A, (9.0, 10.0)) == (7.0, 7.0)
    assert _sub_clipped(5.0, 7.0) == 0.0
    assert _sub_clipped(math.inf, 3.0) == math.inf
    assert _sub_clipped(5.0, math.inf) == 0.0


def test_system_validation():
    g = Graph.build(["a", "b"], [("a", "b")])
    with pytest.raises(ValueError):
        DesSystem(2, {"a": [[1, 2], [3, 4]]}, g)  # missing matrix at b
    with pytest.raises(ValueError):
        DesSystem(2, {"a": [[1, 2]], "b": [[1, 2], [3, 4]]}, g)  # wrong shape
    with pytest.raises(ValueError):
        DesSystem(2, {"a": [[1, -2], [3, 4]], "b": [[1, 2], [3, 4]]}, g)


def test_laplacian_hand_computed():
    sys_ = _line_system()
    F, W = des_sheaf(sys_)
    Lx = laplacian(F, W, INITIAL)
    # interior meet is a pointwise minimum over neighbor contributions,
    # each contribution = transpose(delay image) shifted by the bound
    assert Lx["a"] == (11.0, 11.0)
    assert Lx["b"] == (12.0, 12.0)
    assert Lx["c"] == (11.0, 13.0)


def test_adjunction_levels_crisp_on_base_sheaf():
    sys_ = _line_system()
    F, _W = des_sheaf(sys_)
    assert F.is_crisp()
    assert F.level() <= 1e-9
    assert all(lvl <= 1e-9 for lvl in F.adjunction_levels.values())


def test_flow_with_loose_bounds_fixes_initial_point():
    sys_ = _line_system(bound=4.0)
    F, W = des_sheaf(sys_)
    tr = harmonic_flow(F, W, INITIAL)
    assert tr.status == "converged"
    assert tr.final == INITIAL


def test_flow_with_tight_bounds_pulls_schedule_down():
    sys_ = _line_system(bound=0.5)
    F, W = des_sheaf(sys_)
    tr = harmonic_flow(F, W, INITIAL)
    assert tr.status == "converged"
    assert tr.final["a"] == (7.5, 7.0)
    assert tr.final["b"] == (8.0, 8.0)
    assert tr.final["c"] == (6.0, 9.0)


def test_agreement_slacks_nonnegative_at_fixed_point():
    sys_ = _line_system(bound=4.0)
    _F, W = des_sheaf(sys_)
    slacks = agreement_slacks(sys_, W, INITIAL)
    assert len(slacks) == 4  # two edges, both orientations
    for row in slacks:
        assert row["slack"] >= -1e-9
    by_pair = {(r["v"], r["w"]): r for r in slacks}
    assert by_pair[("a", "b")]["lhs"] == pytest.approx(0.0)
    assert by_pair[("b", "a")]["lhs"] == pytest.approx(1.0)


def _displayed_formula(sys_, W, x):
    """Erratum: the displayed one-shot formula for the timing Laplacian, verbatim,

        (L x)_v(i') = min_w [ W(v,w) + min_j ( A_v(i',j) - max_i (A_w(i,j) + x_w(i)) )_+ ],

    subtracts the far image from the delay.  The corestriction applies
    (y_j - A_v(i',j))_+ to y = A_w (x) x_w, the other way round, so the two
    differ on generic data; on the line system at a, coordinate 0, the
    transport meet gives 11.0 and this formula 4.0."""
    out = {}
    for v in sys_.graph.vertices:
        Av = sys_.delays[v]
        vals = [tuple(W(v, w) + min(_sub_clipped(Av[ip][j], max(sys_.delays[w][i][j] + x[w][i]
                                                                for i in range(sys_.m)))
                                    for j in range(sys_.m))
                      for ip in range(sys_.m))
                for w, _e in sys_.graph.neighbors(v)]
        out[v] = tuple(min(t[i] for t in vals) for i in range(sys_.m))
    return out


def test_closed_form_crosscheck_reports_mismatch_with_witness(monkeypatch):
    sys_ = _line_system(bound=4.0)
    F, W = des_sheaf(sys_)
    assert closed_form_crosscheck(sys_, F, W, [INITIAL]).ok
    assert des_laplacian_closed_form(sys_, W, INITIAL)["a"][0] == 11.0
    # the displayed formula (the erratum above) is caught with its witness
    monkeypatch.setattr("sheafflow.apps.des.des_laplacian_closed_form", _displayed_formula)
    rep = closed_form_crosscheck(sys_, F, W, [INITIAL])
    assert not rep.ok
    first = rep.violations[0]
    assert first.law == "closed-form-agrees"
    assert first.witness == ("a", 0, 11.0, 4.0)


def test_perturbed_levels_equal_max_noise():
    sys_ = _line_system()
    noise = {"a": (0.3, 0.1), "b": (0.2, 0.0), "c": (0.1, 0.3)}
    F, _W = perturbed_des_sheaf(sys_, noise)
    assert not F.is_crisp()
    assert F.level() == pytest.approx(0.3)
    by_vertex = {}
    for (v, _e), lvl in F.adjunction_levels.items():
        by_vertex[v] = max(by_vertex.get(v, 0.0), lvl)
    for v, eta in noise.items():
        assert by_vertex[v] == pytest.approx(max(eta))


def test_perturbed_noise_shape_checked():
    sys_ = _line_system()
    with pytest.raises(ValueError):
        perturbed_des_sheaf(sys_, {"a": (0.1,), "b": (0.0, 0.0), "c": (0.0, 0.0)})


def test_descent_lemmas_idempotent_level_on_base_sheaf():
    sys_ = _line_system()
    F, W = des_sheaf(sys_)
    rng = Random(7)
    # entries at or above the delay span keep the clipped transpose in its
    # exact-adjoint region, so the re-verified defect premise holds
    cochains = [
        {v: tuple(rng.uniform(3.0, 10.0) for _ in range(2)) for v in "abc"}
        for _ in range(6)
    ]
    rep = check_suffix_section_lemmas(F, W, 1.0, cochains)
    assert rep.ok, rep.violations[:3]
    assert rep.checks > 0


def test_descent_lemmas_one_sided_on_perturbed_sheaf():
    sys_ = _line_system()
    F, W = perturbed_des_sheaf(sys_, {"a": (0.3, 0.1), "b": (0.2, 0.0), "c": (0.1, 0.3)})
    rng = Random(8)
    cochains = [
        {v: tuple(rng.uniform(3.0, 10.0) for _ in range(2)) for v in "abc"}
        for _ in range(6)
    ]
    rep = check_suffix_section_lemmas(F, W, 1.0, cochains)
    assert rep.ok, rep.violations[:3]


def test_closed_form_crosscheck_checks_its_cochains():
    sys_ = _line_system()
    F, W = des_sheaf(sys_)
    assert closed_form_crosscheck(sys_, F, W, [INITIAL]).checks == 6
    with pytest.raises(SheafError, match="not in the stalk"):
        closed_form_crosscheck(sys_, F, W, [{**INITIAL, "b": (8.0,)}])
