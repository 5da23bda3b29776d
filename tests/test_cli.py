"""Command-line driver: outputs, determinism, and exit codes."""
import functools
import json
import operator
import os
import re
import subprocess
import sys

import pytest

from sheafflow.apps.des import DesSystem, des_sheaf
from sheafflow.cli import _parser, main
from sheafflow.sheaf import Graph, harmonic_flow


def _run(tmp_path, *argv):
    out = tmp_path / "out.jsonl"
    code = main([*argv, "--output", str(out)])
    lines = []
    if out.exists():
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
    return code, lines


def _records(lines, record):
    return [l for l in lines if l.get("record") == record]


def test_flow_on_circulant_sheaf(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "flow", "--input", fixture_path("k3_circulant.json"),
                       "--max-iter", "12", "--seed", "3")
    assert code == 0
    iters = _records(lines, "iteration")
    assert iters and all(set(r) >= {"t", "cochain", "suffix_level", "seed"} for r in iters)
    summary = _records(lines, "summary")[-1]
    assert summary["status"] == "max_iter_reached"
    # the circulant shift pumps every coordinate up by one per step
    assert iters[-1]["cochain"]["1"] == iters[-1]["t"] * 1.0


def test_validate_reports_adjunction_levels(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "validate", "--input", fixture_path("k3_circulant.json"))
    assert code == 0
    levels = _records(lines, "adjunction_level")
    assert len(levels) == 6  # three edges, both incidences
    assert all(r["crisp"] for r in levels)


def test_validate_des_with_an_infinite_delay(tmp_path, fixture_path):
    """inf - inf never reaches a level: b's incidences, whose transpose clips
    the infinite delay, get the bottom "inf" and the others stay crisp."""
    payload = json.loads(open(fixture_path("des_line.json")).read())
    payload["delays"]["b"][0][0] = "inf"
    p = tmp_path / "des_inf.json"
    p.write_text(json.dumps(payload))
    code, lines = _run(tmp_path, "validate", "--input", str(p))
    assert code == 0
    levels = {r["vertex"]: r["level"] for r in _records(lines, "adjunction_level")}
    assert levels == {"a": 0.0, "b": "inf", "c": 0.0}
    assert _records(lines, "summary")[-1]["level"] == "inf"


def test_validate_rejects_broken_category(tmp_path):
    bad = {
        "kind": "category",
        "quantale": {"kind": "boolean"},
        "category": {"objects": [0, 1], "hom": [[1, 1], [1, 0]]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    code, lines = _run(tmp_path, "validate", "--input", str(p))
    assert code == 1
    viols = _records(lines, "violation")
    assert viols and any("hom" in v["law"] for v in viols)


def test_wrong_kind_exits_two(tmp_path, fixture_path, capsys):
    code = main(["flow", "--input", fixture_path("quantale_chain4.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_missing_file_exits_two(tmp_path):
    code, _ = _run(tmp_path, "validate", "--input", str(tmp_path / "nope.json"))
    assert code == 2


def test_sections_enumerates_finite_sheaf(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "sections", "--input", fixture_path("sheaf_bool_edge.json"))
    assert code == 0
    secs = _records(lines, "section")
    assert len(secs) == 2
    got = {tuple(sorted(s["cochain"].items())) for s in secs}
    assert got == {(("u", 0), ("v", 0)), (("u", 1), ("v", 1))}


def test_sections_candidate_check_on_nonenumerable(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "sections", "--input", fixture_path("k3_circulant.json"))
    assert code == 0
    cand = _records(lines, "candidate")
    assert len(cand) == 1
    assert cand[0]["is_section"] is False  # all-zero cochain breaks on each edge


def test_verify_quantale_grid_residual(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "verify", "--input",
                       fixture_path("quantale_lukasiewicz.json"), "--grid", "400")
    assert code == 0
    res = _records(lines, "grid_residual")
    assert res and res[0]["ok"] and res[0]["resolution"] == 400
    reports = _records(lines, "report")
    assert reports and all(r["ok"] for r in reports)


def test_des_command_outputs_slacks_and_closed_form(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "des", "--input", fixture_path("des_line.json"))
    assert code == 0
    slacks = _records(lines, "slack")
    assert len(slacks) == 4
    assert all(r["slack"] >= -1e-9 for r in slacks)
    cf = _records(lines, "closed_form")[0]
    assert cf["matches"] is True and cf["mismatches"] == 0


def test_paths_both_schedules(tmp_path, fixture_path):
    want = {"s": 0.0, "a": 2.0, "b": 3.0, "t": 5.0}
    for sched in ("unweighted", "dijkstra"):
        code, lines = _run(tmp_path, "paths", "--input", fixture_path("paths_small.json"),
                           "--schedule", sched)
        assert code == 0
        dist = {r["vertex"]: r["cost"] for r in _records(lines, "distance")}
        assert dist == want


def test_prefs_zero_update_listed(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "prefs", "--input", fixture_path("prefs_chain.json"))
    assert code == 0
    summary = _records(lines, "summary")[-1]
    assert summary["zero_update"] == ["r"]
    rels = _records(lines, "relation")
    assert {r["vertex"] for r in rels} == {"p", "q", "r"}
    final_r = [r for r in rels if r["vertex"] == "r"][-1]
    assert final_r["updated"] is False


def test_verify_compares_lukasiewicz_relations_as_objects(tmp_path, fixture_path):
    # x -> y at 0.1 composed with the unit diagonal once read 0.10000000000000009,
    # which an exact comparison reported as a closure violation
    rel = [[1, 0.1, 0.1], [0, 1, 1], [0, 0.1, 1]]
    path = _variant(tmp_path, fixture_path, "prefs_chain.json", lambda payload: payload.update(
        quantale={"kind": "unit_interval", "tnorm": "lukasiewicz"},
        initial=dict.fromkeys(payload["vertices"], rel)))
    code, lines = _run(tmp_path, "verify", "--input", path)
    assert code == 0
    assert [r["ok"] for r in _records(lines, "closure_idempotent")] == [True] * 3


def test_table_corestriction_derived_on_a_non_skeletal_stalk(tmp_path, fixture_path):
    # a and a2 are isomorphic; the right adjoint of v's restriction sends both
    # to the lowest identifier, a
    def edit(payload):
        payload["stalk"] = {"kind": "finite", "objects": ["a", "a2", "t"],
                            "hom": [[1, 1, 1], [1, 1, 1], [0, 0, 1]]}
        payload["restrictions"] = {
            "u|u,v": {"kind": "table", "pairs": [["a", "a"], ["a2", "a2"], ["t", "t"]]},
            "v|u,v": {"kind": "table", "pairs": [["a", "a"], ["a2", "a"], ["t", "t"]]}}
    code, lines = _run(tmp_path, "validate", "--input",
                       _variant(tmp_path, fixture_path, "sheaf_bool_edge.json", edit))
    assert code == 0 and _records(lines, "summary")[-1]["crisp"] is True


def test_byte_identical_across_runs(tmp_path, fixture_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for target in (a, b):
        code = main(["verify", "--input", fixture_path("des_line.json"),
                     "--seed", "11", "--output", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes()  # nonempty


def test_seed_echoed_in_records(tmp_path, fixture_path):
    code, lines = _run(tmp_path, "flow", "--input", fixture_path("k3_circulant.json"),
                       "--max-iter", "3", "--seed", "42")
    assert code == 0
    assert all(r["seed"] == 42 for r in lines if "seed" in r)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _variant(tmp_path, fixture_path, name, edit):
    """The fixture edited in place by `edit`, or the text `edit` returns."""
    payload = json.loads(open(fixture_path(name)).read())
    text = edit(payload)
    p = tmp_path / f"variant-{name}"
    p.write_text(text if isinstance(text, str) else json.dumps(payload))
    return str(p)


def _set(path, value):
    def edit(payload):
        *outer, last = path
        node = payload
        for key in outer:
            node = node[key]
        node[last] = value
    return edit


def _raw(path, text):
    """Write `text(old value)` verbatim at `path`, for what json.dumps cannot
    write: a repeated name, a 5,000-digit number, deep nesting, Infinity."""
    def edit(payload):
        *outer, last = path
        node = functools.reduce(operator.getitem, outer, payload)
        old, node[last] = node.get(last), "\0raw"
        return json.dumps(payload).replace(json.dumps("\0raw"), text(old))
    return edit


def _maxplus_sheaf(**changes):
    """A two-vertex sheaf over timing stalks (presheaf_power, m = 2, op) with
    max_plus restrictions and derived corestrictions, then `changes`."""
    def edit(payload):
        payload.clear()
        payload.update({
            "kind": "sheaf", "quantale": {"kind": "lawvere_reals"},
            "vertices": ["a", "b"], "edges": [["a", "b"]],
            "stalk": {"kind": "presheaf_power", "m": 2, "op": True},
            "restrictions": {"a|a,b": {"kind": "max_plus", "delays": [[1, 3], [2, 1]]},
                             "b|a,b": {"kind": "max_plus", "delays": [[0, 2], [1, 0]]}},
            "initial": {"a": [9, 7], "b": [8, 8]}})
        for path, value in changes.items():
            _set(tuple(path.split("/")), value)(payload)
    return edit


# inputs that only per-operation carrier checks caught before values were
# checked once at the loaders: each must be rejected by the loader itself
PROBES = {
    "eps-above-carrier": ("prefs", "prefs_chain.json", _set(("eps", "p"), 5), "'eps'"),
    "eps-below-carrier": ("prefs", "prefs_chain.json", _set(("eps", "p"), -1), "'eps'"),
    "negative-shift": ("flow", "k3_circulant.json",
                       _set(("restrictions", "1|1,2", "c"), -5.0), "'restrictions'"),
    "shift-leaves-unit-interval": ("flow", "k3_circulant.json",
                                   _set(("quantale",), {"kind": "unit_interval"}),
                                   "'restrictions'"),
    "initial-off-stalk": ("validate", "sheaf_bool_edge.json",
                          _set(("initial",), {"u": 1, "v": 5}), "'initial'"),
    "table-target-off-stalk": ("validate", "sheaf_bool_edge.json",
                               _set(("restrictions", "u|u,v", "pairs", 1), [1, 7]),
                               "'restrictions'"),
    # inputs that crashed with a traceback, or were read wrongly, before every
    # field went through one typed reader
    "paths-length-negative": ("paths", "paths_small.json", _set(("edges", 0, 2), -1), "'edges'"),
    "paths-length-minus-inf": ("verify", "paths_small.json", _set(("edges", 0, 2), "-inf"),
                               "'edges'"),
    "paths-length-nan": ("paths", "paths_small.json", _set(("edges", 0, 2), "nan"), "'edges'"),
    "affine-c-not-a-number": ("flow", "k3_circulant.json",
                              _set(("restrictions", "1|1,2", "c"), "abc"), "'restrictions'"),
    "des-m-not-a-number": ("des", "des_line.json", _set(("m",), "x"), "'m'"),
    "des-m-fractional": ("des", "des_line.json", _set(("m",), 2.5), "'m'"),
    "des-m-zero": ("des", "des_line.json", _set(("m",), 0), "'m'"),
    "weighting-pair-not-a-triple": ("flow", "k3_circulant.json",
                                    _set(("weighting",), {"pairs": [["1", "2"]]}), "'weighting'"),
    "edge-with-three-ends": ("flow", "k3_circulant.json", _set(("edges", 0), ["1", "2", "3"]),
                             "'edges'"),
    "vertices-not-a-list": ("flow", "k3_circulant.json", _set(("vertices",), 5), "'vertices'"),
    "sheaf-initial-a-list": ("flow", "k3_circulant.json", _set(("initial",), [1, 2]), "'initial'"),
    "des-initial-a-number": ("des", "des_line.json", _set(("initial",), 3), "'initial'"),
    "prefs-edge-one-end": ("prefs", "prefs_chain.json", _set(("edges", 0), ["p"]), "'edges'"),
    "quantale-a-string": ("flow", "k3_circulant.json", _set(("quantale",), "lawvere_reals"),
                          "'quantale'"),
    # fields that no loader reads, which were silently ignored
    **{f"unknown-field-{name}": (command, name, _set(("bogus_field",), 1), "'bogus_field'")
       for command, name in [("validate", "category_chain3.json"), ("des", "des_line.json"),
                             ("flow", "k3_circulant.json"), ("paths", "paths_small.json"),
                             ("prefs", "prefs_chain.json"), ("verify", "quantale_chain4.json"),
                             ("validate", "quantale_lukasiewicz.json"),
                             ("sections", "sheaf_bool_edge.json")]},
    "paths-weighting": ("paths", "paths_small.json", _set(("weighting",), {"constant": 1}),
                        "'weighting'"),
    "des-stalk": ("des", "des_line.json", _set(("stalk",), {"kind": "underline"}), "'stalk'"),
    "identity-map-with-c": ("flow", "k3_circulant.json",
                            _set(("restrictions", "1|1,3"), {"kind": "identity", "c": 3}), "'c'"),
    "stalk-unknown-field": ("flow", "k3_circulant.json",
                            _set(("stalk",), {"kind": "underline", "m": 2}), "'m'"),
    "weighting-constant-and-pairs": ("flow", "k3_circulant.json",
                                     _set(("weighting",), {"constant": 0.0,
                                                           "pairs": [["1", "2", 1.0]]}),
                                     "'weighting'"),
    "weighting-unknown-field": ("flow", "k3_circulant.json",
                                _set(("weighting",), {"constant": 0.0, "scale": 2}), "'scale'"),
    "category-unknown-field": ("validate", "category_chain3.json", _set(("category", "n"), 3),
                               "'n'"),
    "finite-quantale-tolerance": ("validate", "quantale_chain4.json",
                                  _set(("quantale", "tolerance"), 0.1), "'tolerance'"),
    "power-op-a-string": ("flow", "k3_circulant.json", _maxplus_sheaf(**{"stalk/op": "yes"}),
                          "'op'"),
    "power-op-a-number": ("flow", "k3_circulant.json", _maxplus_sheaf(**{"stalk/op": 0}), "'op'"),
    "paths-duplicate-vertices": ("paths", "paths_small.json",
                                 _set(("vertices",), ["s", "s", "a", "zz"]), "'vertices'"),
    "prefs-duplicate-alternatives": ("prefs", "prefs_chain.json",
                                     _set(("alternatives",), ["x", "x", "z"]), "'alternatives'"),
    # keyed maps whose keys name no vertex, edge or incidence of the graph
    "restriction-off-graph": ("flow", "k3_circulant.json",
                              _set(("restrictions", "9|9,9"), {"kind": "identity"}),
                              "'restrictions'"),
    "corestriction-off-graph": ("flow", "k3_circulant.json",
                                _set(("corestrictions",), {"1|2,3": {"kind": "identity"}}),
                                "'corestrictions'"),
    "stalk-off-graph": ("flow", "k3_circulant.json",
                        _set(("stalks",), {"zz": {"kind": "underline"}}), "'stalks'"),
    # a delay matrix that does not map 2 events to 2 events
    "maxplus-delays-2x3": ("flow", "k3_circulant.json",
                           _maxplus_sheaf(**{"restrictions/a|a,b/delays": [[1, 3, 0], [2, 1, 0]]}),
                           "'restrictions'"),
    "maxplus-delays-3x2": ("flow", "k3_circulant.json",
                           _maxplus_sheaf(**{"restrictions/a|a,b/delays": [[1, 3], [2, 1], [0, 0]]}),
                           "'restrictions'"),
    # input read as I-JSON (RFC 7493): numbers that fit a double, no boolean
    # quantale values, no repeated names, a tolerance that cannot hide a step
    "c-of-400-digits": ("flow", "k3_circulant.json",
                        _set(("restrictions", "1|1,2", "c"), 10 ** 400), "'restrictions'"),
    "weight-of-400-digits": ("flow", "k3_circulant.json",
                             _set(("weighting",), {"constant": 10 ** 400}), "'weighting'"),
    "delay-of-400-digits": ("des", "des_line.json", _set(("delays", "a", 0, 0), 10 ** 400),
                            "'delays'"),
    "length-of-400-digits": ("paths", "paths_small.json", _set(("edges", 0, 2), 10 ** 400),
                             "'edges'"),
    "number-of-5000-digits": ("flow", "k3_circulant.json",
                              _raw(("initial", "1"), lambda old: "9" * 5000), "4300 digits"),
    "nested-100000-deep": ("flow", "k3_circulant.json",
                           _raw(("initial", "1"), lambda old: "[" * 100_000 + "]" * 100_000),
                           "nests too deeply"),
    "weighting-constant-true": ("flow", "k3_circulant.json", _set(("weighting",), {"constant": True}),
                                "'weighting'"),
    "initial-true": ("flow", "k3_circulant.json", _set(("initial", "1"), True), "'initial'"),
    "eps-true": ("prefs", "prefs_chain.json", _set(("eps", "p"), True), "'eps'"),
    "relation-entry-true": ("prefs", "prefs_chain.json", _set(("initial", "p", 0, 1), True),
                            "'initial'"),
    "tolerance-true": ("flow", "k3_circulant.json", _set(("quantale", "tolerance"), True),
                       "'tolerance'"),
    "tolerance-infinity": ("flow", "k3_circulant.json",
                           _raw(("quantale", "tolerance"), lambda old: "Infinity"), "tolerance"),
    "tolerance-1e308": ("flow", "k3_circulant.json", _set(("quantale", "tolerance"), 1e308),
                        "tolerance"),
    "initial-repeated-name": ("flow", "k3_circulant.json",
                              _raw(("initial",), lambda old: '{"1": 5.0, ' + json.dumps(old)[1:]),
                              "'initial'"),
    "restriction-repeated-name": ("flow", "k3_circulant.json",
                                  _raw(("restrictions",), lambda old: '{"1|1,2": {"kind": "identity"}, '
                                       + json.dumps(old)[1:]), "'restrictions'"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_boundary_rejects_out_of_carrier_input(tmp_path, fixture_path, capsys, probe):
    command, name, edit, field = PROBES[probe]
    path = _variant(tmp_path, fixture_path, name, edit)
    for cmd in (command, "flow" if command == "validate" else "validate"):
        assert main([cmd, "--input", path]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and field in err, err


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag this way
        return exc.code


# (subcommand, fixture, flags, the flag the message must name); "{missing}"
# stands for a path inside a directory that does not exist
FLAG_PROBES = [
    ("paths", "paths_small.json", ["--output", "{missing}"], "--output"),
    ("des", "des_line.json", ["--max-iter", "-1"], "--max-iter"),
    ("prefs", "prefs_chain.json", ["--max-iter", "-1"], "--max-iter"),
    ("flow", "k3_circulant.json", ["--max-iter", "-3"], "--max-iter"),
    ("verify", "quantale_chain4.json", ["--grid", "0"], "--grid"),
    # flags a subcommand never reads are no longer accepted; a tolerance is
    # set in the quantale descriptor, so no subcommand reads --tolerance
    ("flow", "k3_circulant.json", ["--tolerance", "-1"], "--tolerance"),
    ("flow", "k3_circulant.json", ["--tolerance", "nan"], "--tolerance"),
    ("sections", "sheaf_bool_edge.json", ["--max-iter", "5"], "--max-iter"),
    ("paths", "paths_small.json", ["--tolerance", "0.1"], "--tolerance"),
    ("flow", "k3_circulant.json", ["--grid", "10"], "--grid"),
    ("verify", "paths_small.json", ["--schedule", "dijkstra"], "--schedule"),
    # the extraction schedule makes |V| extractions whatever the cap
    ("paths", "paths_small.json", ["--schedule", "dijkstra", "--max-iter", "5"], "--max-iter"),
]


@pytest.mark.parametrize("command, name, flags, flag", FLAG_PROBES,
                         ids=[f"{c}{''.join(f)}" for c, _n, f, _g in FLAG_PROBES])
def test_bad_flag_exits_two_naming_it(tmp_path, fixture_path, capsys, command, name, flags, flag):
    flags = [f.format(missing=tmp_path / "no-such-dir" / "out.jsonl") for f in flags]
    assert _exit_code([command, "--input", fixture_path(name), *flags]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err, err


def test_verify_reports_a_start_schedule_out_of_sync_without_failing(tmp_path, fixture_path):
    # the start schedule's slacks are information: no law is violated
    path = _variant(tmp_path, fixture_path, "des_line.json", _set(("initial", "a"), [100, 100]))
    code, lines = _run(tmp_path, "verify", "--input", path)
    assert code == 0
    assert -89.0 in [r["slack"] for r in _records(lines, "slack")]
    assert _records(lines, "summary")[-1]["ok"] is True and not _records(lines, "violation")


def test_prefs_weighting_is_used_without_eps(tmp_path, fixture_path):
    def no_trust(payload):
        del payload["eps"]
        payload["weighting"] = {"constant": 0}
    code, lines = _run(tmp_path, "prefs", "--input",
                       _variant(tmp_path, fixture_path, "prefs_chain.json", no_trust))
    assert code == 0
    assert _records(lines, "summary")[-1]["zero_update"] == ["p", "q", "r"]


def test_prefs_weighting_with_eps_rejected(tmp_path, fixture_path, capsys):
    path = _variant(tmp_path, fixture_path, "prefs_chain.json",
                    _set(("weighting",), {"constant": 1}))
    assert main(["prefs", "--input", path]) == 2
    assert "'weighting'" in capsys.readouterr().err


def _product_prefs(weighting):
    """Two vertices over the product t-norm; p holds the transitive relation
    P(x,y) = P(y,z) = 0.4, P(x,z) = 0.16, whose cotensor by 0.5 is not."""
    def edit(payload):
        payload.clear()
        payload.update({
            "kind": "prefs", "quantale": {"kind": "unit_interval", "tnorm": "product"},
            "alternatives": ["x", "y", "z"], "vertices": ["p", "q"], "edges": [["p", "q"]],
            "initial": {"p": [[1, 0.4, 0.16], [0, 1, 0.4], [0, 0, 1]],
                        "q": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "weighting": weighting})
    return edit


@pytest.mark.parametrize("weighting, code", [({"constant": 0.5}, 2), ({"constant": 0}, 0),
                                             ({"constant": 1}, 0)])
def test_prefs_weighting_must_be_idempotent(tmp_path, fixture_path, capsys, weighting, code):
    path = _variant(tmp_path, fixture_path, "prefs_chain.json", _product_prefs(weighting))
    assert main(["prefs", "--input", path]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "'weighting'" in err


def test_verify_surfaces_generator_faults(monkeypatch, fixture_path):
    def broken(rng, F):
        raise RuntimeError("generator fault")
    monkeypatch.setattr("sheafflow.cli.random_cochain", broken)
    with pytest.raises(RuntimeError):
        main(["verify", "--input", fixture_path("sheaf_bool_edge.json")])


def test_maxplus_sheaf_input_flows_like_the_des_sheaf(tmp_path, fixture_path):
    # max_plus restrictions over op power stalks, min-plus corestrictions
    # derived: the DES sheaf of the same delays, with unit weights
    code, lines = _run(tmp_path, "flow", "--input",
                       _variant(tmp_path, fixture_path, "k3_circulant.json", _maxplus_sheaf()))
    assert code == 0 and _records(lines, "summary")[-1]["status"] == "converged"
    system = DesSystem(m=2, delays={"a": [[1, 3], [2, 1]], "b": [[0, 2], [1, 0]]},
                       graph=Graph.build(["a", "b"], [("a", "b")]))
    F, W = des_sheaf(system)
    want = [step.cochain for step in harmonic_flow(F, W, {"a": (9, 7), "b": (8, 8)}).iterations]
    assert [{v: tuple(x) for v, x in r["cochain"].items()}
            for r in _records(lines, "iteration")] == want


def test_closed_stdout_exits_one_without_a_traceback(fixture_path):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "sheafflow.cli", "des", "--input", fixture_path("des_line.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])})
    proc.stdout.close()  # long before the child writes its first record
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1, err
    assert "Traceback" not in err and "Error" not in err, err


def test_readme_flag_table_matches_the_parser():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    table = {m[1]: set(re.findall(r"`(--[a-z-]+)`", m[2]))
             for m in re.finditer(r"^\| `(\w+)` +\|[^|]*\|([^|]*)\|$", readme, re.M)}
    subparsers = next(a for a in _parser()._actions if a.choices and a.dest == "command")
    parser = {name: {o for a in sp._actions for o in a.option_strings if o.startswith("--")}
              - {"--help", "--input", "--output", "--seed"}
              for name, sp in subparsers.choices.items()}
    assert table == parser
