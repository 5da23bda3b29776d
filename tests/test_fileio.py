"""Input decoding, output encoding, and loader validation messages."""
import io
import json
import math

import pytest

from sheafflow.fileio import (
    InputFormatError, decode_value, emit, encode_value, load_input,
)
from sheafflow.quantale import LawvereRealsQuantale


def test_value_round_trip():
    cases = [
        math.inf, 0.0, 1.5,
        (1.0, math.inf, 3.0),
        frozenset({0, 2}),
        ((0.0, 1.0), (math.inf,)),
    ]
    for v in cases:
        assert decode_value(encode_value(v)) == v


def test_encoding_is_json_safe():
    enc = encode_value({"a": math.inf, "b": (1, 2), "c": frozenset({1})})
    text = json.dumps(enc, allow_nan=False)
    assert json.loads(text) == {"a": "inf", "b": [1, 2], "c": {"set": [1]}}


def test_nan_rejected():
    with pytest.raises(InputFormatError):
        encode_value(math.nan)


def test_tuple_keys_flatten_in_records():
    enc = encode_value({("a", "b"): 1.0})
    assert enc == {"a|b": 1.0}


def test_emit_sorted_and_newline_terminated():
    buf = io.StringIO()
    emit({"b": 1, "a": math.inf}, buf)
    assert buf.getvalue() == '{"a": "inf", "b": 1}\n'


def test_load_quantale_fixture(fixture_path):
    kind, Q = load_input(fixture_path("quantale_lukasiewicz.json"))
    assert kind == "quantale"
    assert Q.kind == "unit_interval"
    assert Q.mul(0.7, 0.7) == pytest.approx(0.4)
    kind, Q4 = load_input(fixture_path("quantale_chain4.json"))
    assert Q4.kind == "finite_chain"
    assert Q4.top == 3


def test_load_category_fixture(fixture_path):
    kind, cat = load_input(fixture_path("category_chain3.json"))
    assert kind == "category"
    assert sorted(cat.objects()) == [0, 1, 2]


def test_load_sheaf_fixture_derives_corestrictions(fixture_path):
    kind, (F, W, initial) = load_input(fixture_path("k3_circulant.json"))
    assert kind == "sheaf"
    assert isinstance(F.quantale, LawvereRealsQuantale)
    assert initial == {"1": 0.0, "2": 0.0, "3": 0.0}
    assert W.is_symmetric()
    # an affine shift restriction gets the clipped-subtract right adjoint
    e12 = next(e for e in F.graph.edges if set(e) == {"1", "2"})
    corest = F.corestrictions[(e12, "1")]
    assert corest(5.0) == 4.0
    assert corest(0.5) == 0.0
    assert corest(math.inf) == math.inf
    # identity restrictions keep identity corestrictions
    rest2 = F.restrictions[("2", e12)]
    assert rest2(3.25) == 3.25


def test_load_des_fixture(fixture_path):
    kind, sys_ = load_input(fixture_path("des_line.json"))
    assert kind == "des"
    assert sys_.m == 2
    assert sys_.graph.vertices == ("a", "b", "c")
    assert sys_.delays["a"] == ((1.0, 3.0), (2.0, 1.0))
    assert sys_.initial == {"a": (9.0, 7.0), "b": (8.0, 8.0), "c": (6.0, 9.0)}


def test_load_paths_fixture(fixture_path):
    kind, (edges, source, vertices) = load_input(fixture_path("paths_small.json"))
    assert kind == "paths"
    assert source == "s"
    assert all(len(e) == 3 for e in edges)


def test_load_prefs_fixture(fixture_path):
    kind, loaded = load_input(fixture_path("prefs_chain.json"))
    assert kind == "prefs"
    assert loaded["graph"].vertices == ("p", "q", "r")
    assert set(loaded["initial"]) == {"p", "q", "r"}
    assert loaded["eps"]["r"] == 1


def test_missing_kind_named(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{}")
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    assert "'kind'" in str(exc.value)


def test_unreadable_and_invalid_json(tmp_path):
    with pytest.raises(InputFormatError):
        load_input(str(tmp_path / "missing.json"))
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(InputFormatError):
        load_input(str(p))


def test_missing_restriction_incidence_named(tmp_path):
    payload = {
        "kind": "sheaf",
        "quantale": {"kind": "boolean"},
        "vertices": ["u", "v"],
        "edges": [["u", "v"]],
        "stalk": {"kind": "underline"},
        "restrictions": {"u|u,v": {"kind": "identity"}},
    }
    p = tmp_path / "sheaf.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    assert "v|u,v" in str(exc.value)


def test_unknown_incidence_message_is_short_and_names_the_swapped_key(tmp_path):
    n = 8000
    names = [f"v{i}" for i in range(n)]
    edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
    incidences = [f"{v}|{a},{b}" for a, b in (sorted(e) for e in edges) for v in (a, b)]
    restrictions = dict.fromkeys(incidences, {"kind": "identity"})
    del restrictions["v0|v0,v7999"]
    restrictions["v0|v7999,v0"] = {"kind": "identity"}
    p = tmp_path / "ring.json"
    p.write_text(json.dumps({"kind": "sheaf", "quantale": {"kind": "lawvere_reals"},
                             "vertices": names, "edges": edges, "stalk": {"kind": "underline"},
                             "restrictions": restrictions}))
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    message = str(exc.value)
    assert len(message) < 2000, len(message)
    assert "'v0|v7999,v0'" in message and "'v0|v0,v7999'" in message
    assert "16000 in all" in message


def test_bad_edge_triple_named(tmp_path):
    p = tmp_path / "paths.json"
    p.write_text(json.dumps({"kind": "paths", "edges": [["a", "b"]], "source": "a"}))
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    assert "edges" in str(exc.value)


def test_prefs_bad_initial_relation_named(tmp_path, fixture_path):
    payload = json.loads(open(fixture_path("prefs_chain.json")).read())
    payload["initial"]["p"] = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]  # not transitive
    p = tmp_path / "prefs.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    assert "initial" in str(exc.value) and "p" in str(exc.value)


def _set_path(payload, path, value):
    *outer, last = path
    for key in outer:
        payload = payload[key]
    payload[last] = value


@pytest.mark.parametrize("name, path, value, field", [
    ("quantale_chain4.json", ("quantale",), {"kind": "nope"}, "'quantale'"),
    ("quantale_lukasiewicz.json", ("quantale", "tolerance"), "x", "'quantale'"),
    ("category_chain3.json", ("category", "hom", 0, 1), 7, "'category'"),
    ("k3_circulant.json", ("weighting",), {"constant": -1.0}, "'weighting'"),
    ("k3_circulant.json", ("initial", "4"), 0.0, "'initial'"),
    ("des_line.json", ("initial", "a"), [-1.0, 7.0], "'initial'"),
    ("prefs_chain.json", ("initial", "p"), [[1]], "'initial'"),
    ("paths_small.json", ("source",), "nowhere", "'source'"),
])
def test_loader_rejects_values_outside_the_input(tmp_path, fixture_path, name, path, value, field):
    payload = json.loads(open(fixture_path(name)).read())
    _set_path(payload, path, value)
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    with pytest.raises(InputFormatError) as exc:
        load_input(str(p))
    assert field in str(exc.value)
