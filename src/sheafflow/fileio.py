"""JSON input loading and line-delimited JSON output.

Input files are a single JSON object with a "kind" field selecting the
payload shape: quantale, category, sheaf, des, paths, or prefs.  Infinite
costs serialize as the string "inf".  Output records are emitted one JSON
object per line with sorted keys so runs with the same seed are
byte-identical.
"""
from __future__ import annotations

import json
import math
from typing import Any, IO, Mapping

from .apps.des import DesSystem, minplus_transpose_apply, maxplus_apply, _sub_clipped
from .apps.prefs import PreferenceCategory, check_relation, relation_from_table
from .qcat import (FiniteQCategory, OppositeCategory, PresheafPower, QCategoryError, QFunctor,
                   UnderlineQ)
from .quantale import LawvereRealsQuantale, Quantale, QuantaleError, from_descriptor
from .sheaf import Graph, NetworkSheaf, SheafError, Weighting
from .wlattice import lattice_for
from .adjunction import synthesize_right_adjoint


class InputFormatError(ValueError):
    """Raised when an input file is malformed; the message names the field."""


INPUT_KINDS = ("quantale", "category", "sheaf", "des", "paths", "prefs")


def _need(payload: Mapping, field: str, where: str) -> Any:
    if field not in payload:
        raise InputFormatError(f"field {field!r} is required in {where}")
    return payload[field]


def decode_value(v: Any) -> Any:
    """Reverse the JSON encoding: "inf" -> math.inf, lists -> tuples."""
    if v == "inf":
        return math.inf
    if isinstance(v, list):
        return tuple(decode_value(c) for c in v)
    if isinstance(v, dict) and set(v) == {"set"}:
        return frozenset(decode_value(c) for c in v["set"])
    return v


def encode_value(v: Any) -> Any:
    """Make a structure JSON-safe: inf -> "inf", tuples -> lists,
    frozensets -> {"set": sorted list}."""
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if isinstance(v, float) and math.isnan(v):
        raise InputFormatError("NaN is not representable in output records")
    if isinstance(v, (list, tuple)):
        return [encode_value(c) for c in v]
    if isinstance(v, (set, frozenset)):
        return {"set": sorted((encode_value(c) for c in v), key=str)}
    if isinstance(v, Mapping):
        return {_key_str(k): encode_value(val) for k, val in v.items()}
    return v


def _key_str(k: Any) -> str:
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return "|".join(_key_str(c) for c in k)
    return str(k)


def emit(record: Mapping, stream: IO[str]) -> None:
    stream.write(json.dumps(encode_value(record), sort_keys=True, allow_nan=False))
    stream.write("\n")


def _check_carrier(Q: Quantale, values, where: str) -> None:
    """Reject input values outside the carrier; `where` names the field."""
    for p in values:
        if not Q.contains(p):
            raise InputFormatError(f"{where}: {p!r} is not an element of the {Q.kind} carrier")


def _finite_category(Q: Quantale, objects, hom, field: str) -> FiniteQCategory:
    try:
        return FiniteQCategory(Q, objects, hom)
    except (QCategoryError, QuantaleError) as exc:
        raise InputFormatError(f"field {field!r} is invalid: {exc}") from exc


def load_quantale(payload: Mapping) -> Quantale:
    try:
        return from_descriptor(dict(_need(payload, "quantale", "this input")))
    except QuantaleError as exc:
        raise InputFormatError(f"field 'quantale' is invalid: {exc}") from exc


def build_stalk(Q: Quantale, desc: Mapping):
    """Stalk descriptor -> lattice.  Kinds: underline, underline_op,
    presheaf_power (fields m, op), finite (fields objects, hom)."""
    kind = _need(desc, "kind", "stalk descriptor")
    if kind == "underline":
        return lattice_for(UnderlineQ(Q))
    if kind == "underline_op":
        return lattice_for(OppositeCategory(UnderlineQ(Q)))
    if kind == "presheaf_power":
        m = _need(desc, "m", "presheaf_power stalk")
        return lattice_for(PresheafPower(Q, m, op=bool(desc.get("op", False))))
    if kind == "finite":
        objects = [decode_value(x) for x in _need(desc, "objects", "finite stalk")]
        hom = [[decode_value(h) for h in row] for row in _need(desc, "hom", "finite stalk")]
        return lattice_for(_finite_category(Q, objects, hom, "stalks"), prefer="enumerable")
    raise InputFormatError(f"field 'kind' of a stalk descriptor has unknown value {kind!r}")


def _build_map(desc: Mapping, dom, cod, name: str, field: str) -> QFunctor:
    """Map descriptor -> functor; its constants must lie in the carrier and a
    table's targets in the target stalk."""
    kind = _need(desc, "kind", f"map descriptor {name}")
    where = f"field {field!r} at {name!r}"
    if kind == "identity":
        return QFunctor(dom.category, cod.category, lambda x: x, name=f"id[{name}]")
    if kind in ("affine_shift", "affine_unshift"):
        c = float(decode_value(_need(desc, "c", f"{kind} map")))
        _check_carrier(cod.quantale, [c], f"{where}, 'c'")
        if kind == "affine_shift":
            return QFunctor(dom.category, cod.category, lambda x, c=c: x + c, name=f"shift{c}[{name}]")
        return QFunctor(dom.category, cod.category, lambda y, c=c: _sub_clipped(y, c),
                        name=f"unshift{c}[{name}]")
    if kind in ("max_plus", "min_plus_transpose"):
        A = _decode_matrix(_need(desc, "delays", f"{kind} map"))
        _check_carrier(cod.quantale, [a for row in A for a in row], f"{where}, 'delays'")
        if kind == "max_plus":
            return QFunctor(dom.category, cod.category, lambda x, A=A: maxplus_apply(A, x),
                            name=f"maxplus[{name}]")
        return QFunctor(dom.category, cod.category,
                        lambda y, A=A: minplus_transpose_apply(A, y), name=f"minplusT[{name}]")
    if kind == "table":
        pairs = _need(desc, "pairs", "table map")
        mapping = {decode_value(a): decode_value(b) for a, b in pairs}
        for b in mapping.values():
            if not cod.category.has_object(b):
                raise InputFormatError(f"{where}: table target {b!r} is not an object of its stalk")
        return QFunctor(dom.category, cod.category, mapping, name=f"table[{name}]")
    raise InputFormatError(f"field 'kind' of map descriptor {name} has unknown value {kind!r}")


def _decode_matrix(rows) -> tuple:
    return tuple(tuple(float(decode_value(c)) for c in row) for row in rows)


_RIGHT_ADJOINT_KIND = {"identity": "identity", "affine_shift": "affine_unshift",
                       "max_plus": "min_plus_transpose"}


def derive_corestriction(desc: Mapping, rest: QFunctor, edge_lat, vertex_lat, name: str) -> QFunctor:
    """Right adjoint implied by a restriction descriptor."""
    kind = desc.get("kind")
    if kind in _RIGHT_ADJOINT_KIND:
        return _build_map({**desc, "kind": _RIGHT_ADJOINT_KIND[kind]}, edge_lat, vertex_lat,
                          name, "restrictions")
    if kind == "table":
        res = synthesize_right_adjoint(rest)
        return QFunctor(edge_lat.category, vertex_lat.category,
                        {y: res.right(y) for y in edge_lat.objects()}, name=f"radj[{name}]")
    raise InputFormatError(
        f"cannot derive a corestriction from map kind {kind!r} at {name}; "
        "give one under field 'corestrictions'")


def _edge_key(e: tuple) -> str:
    return f"{e[0]},{e[1]}"


def load_weighting(payload: Mapping, graph: Graph, Q: Quantale, where: str) -> Weighting:
    """Weighting field: {"constant": v} or {"pairs": [[v, w, value], ...]}
    (pairs are symmetrized unless both directions are given)."""
    desc = payload.get("weighting")
    if desc is None:
        return Weighting(graph, Q)
    try:
        if "constant" in desc:
            return Weighting(graph, Q, constant=decode_value(desc["constant"]))
        if "pairs" in desc:
            table = {}
            for v, w, val in desc["pairs"]:
                table[(v, w)] = decode_value(val)
            for v, w, _e in graph.adjacent_pairs():
                if (v, w) not in table and (w, v) in table:
                    table[(v, w)] = table[(w, v)]
            return Weighting(graph, Q, table=table)
    except (SheafError, QuantaleError) as exc:
        raise InputFormatError(f"field 'weighting' in {where} is invalid: {exc}") from exc
    raise InputFormatError(f"field 'weighting' in {where} needs 'constant' or 'pairs'")


def load_sheaf(payload: Mapping) -> tuple[NetworkSheaf, Weighting, dict | None]:
    """Sheaf input -> (sheaf, weighting, initial cochain or None)."""
    Q = load_quantale(payload)
    vertices = [str(v) for v in _need(payload, "vertices", "sheaf input")]
    edges = [tuple(e) for e in _need(payload, "edges", "sheaf input")]
    try:
        graph = Graph.build(vertices, edges)
    except SheafError as exc:
        raise InputFormatError(f"field 'edges' is invalid: {exc}") from exc

    default_stalk = payload.get("stalk")
    stalks = payload.get("stalks", {})
    vertex_lats, edge_lats = {}, {}
    for v in graph.vertices:
        desc = stalks.get(v, default_stalk)
        if desc is None:
            raise InputFormatError(f"field 'stalks' is missing vertex {v!r} and no 'stalk' default given")
        vertex_lats[v] = build_stalk(Q, desc)
    for e in graph.edges:
        desc = stalks.get(_edge_key(e), default_stalk)
        if desc is None:
            raise InputFormatError(f"field 'stalks' is missing edge {_edge_key(e)!r} and no 'stalk' default given")
        edge_lats[e] = build_stalk(Q, desc)

    rest_desc = _need(payload, "restrictions", "sheaf input")
    corest_desc = payload.get("corestrictions", {})
    restrictions, corestrictions = {}, {}
    for e in graph.edges:
        for v in e:
            key = f"{v}|{_edge_key(e)}"
            if key not in rest_desc:
                raise InputFormatError(f"field 'restrictions' is missing incidence {key!r}")
            restrictions[(v, e)] = _build_map(
                rest_desc[key], vertex_lats[v], edge_lats[e], key, "restrictions")
            if key in corest_desc:
                corestrictions[(e, v)] = _build_map(
                    corest_desc[key], edge_lats[e], vertex_lats[v], key, "corestrictions")
            else:
                corestrictions[(e, v)] = derive_corestriction(
                    rest_desc[key], restrictions[(v, e)], edge_lats[e], vertex_lats[v], key)

    try:
        F = NetworkSheaf(graph, Q, vertex_lats, edge_lats, restrictions, corestrictions)
    except SheafError as exc:
        raise InputFormatError(f"field 'restrictions' is invalid: {exc}") from exc
    W = load_weighting(payload, graph, Q, "sheaf input")
    initial = payload.get("initial")
    if initial is not None:
        initial = {v: decode_value(initial[v]) for v in initial}
        missing = set(graph.vertices) - set(initial)
        if missing:
            raise InputFormatError(f"field 'initial' is missing vertices {sorted(missing)}")
        unknown = set(initial) - set(graph.vertices)
        if unknown:
            raise InputFormatError(f"field 'initial' names unknown vertices {sorted(unknown)}")
        for v in graph.vertices:
            if not vertex_lats[v].category.has_object(initial[v]):
                raise InputFormatError(
                    f"field 'initial' at vertex {v!r}: {initial[v]!r} is not an object of its stalk")
    return F, W, initial


def load_des(payload: Mapping) -> DesSystem:
    m = int(_need(payload, "m", "des input"))
    vertices = [str(v) for v in _need(payload, "vertices", "des input")]
    edges = [tuple(e) for e in _need(payload, "edges", "des input")]
    try:
        graph = Graph.build(vertices, edges)
    except SheafError as exc:
        raise InputFormatError(f"field 'edges' is invalid: {exc}") from exc
    delays_raw = _need(payload, "delays", "des input")
    delays = {}
    for v in graph.vertices:
        if v not in delays_raw:
            raise InputFormatError(f"field 'delays' is missing vertex {v!r}")
        delays[v] = _decode_matrix(delays_raw[v])
    R = LawvereRealsQuantale()
    weights = None
    if "weighting" in payload:
        W = load_weighting(payload, graph, R, "des input")
        weights = dict(W.table)
    try:
        sys_ = DesSystem(m=m, delays=delays, graph=graph, weights=weights)
    except ValueError as exc:
        raise InputFormatError(f"field 'delays' is invalid: {exc}") from exc
    if "initial" in payload:
        initial = {}
        for v in graph.vertices:
            if v not in payload["initial"]:
                raise InputFormatError(f"field 'initial' is missing vertex {v!r}")
            vec = tuple(float(decode_value(c)) for c in payload["initial"][v])
            if len(vec) != m:
                raise InputFormatError(f"field 'initial' at {v!r} must have {m} entries")
            _check_carrier(R, vec, f"field 'initial' at {v!r}")
            initial[v] = vec
        sys_.initial = initial
    return sys_


def load_paths(payload: Mapping) -> tuple[list, Any, list | None]:
    edges = []
    for item in _need(payload, "edges", "paths input"):
        if len(item) != 3:
            raise InputFormatError("field 'edges' entries must be [u, v, weight] triples")
        u, v, w = item
        edges.append((str(u), str(v), float(decode_value(w))))
    source = str(_need(payload, "source", "paths input"))
    vertices = payload.get("vertices")
    if vertices is not None:
        vertices = [str(v) for v in vertices]
    if source not in {x for e in edges for x in e[:2]}.union(vertices or ()):
        raise InputFormatError(f"field 'source' names an unknown vertex {source!r}")
    return edges, source, vertices


def load_prefs(payload: Mapping) -> dict:
    Q = load_quantale(payload)
    alternatives = [str(a) for a in _need(payload, "alternatives", "prefs input")]
    cat = PreferenceCategory(Q, alternatives)
    vertices = [str(v) for v in _need(payload, "vertices", "prefs input")]
    edges = [tuple(e) for e in _need(payload, "edges", "prefs input")]
    try:
        graph = Graph.build(vertices, edges)
    except SheafError as exc:
        raise InputFormatError(f"field 'edges' is invalid: {exc}") from exc
    initial_raw = _need(payload, "initial", "prefs input")
    initial = {}
    for v in graph.vertices:
        if v not in initial_raw:
            raise InputFormatError(f"field 'initial' is missing vertex {v!r}")
        rel = relation_from_table(alternatives, [
            [decode_value(c) for c in row] for row in initial_raw[v]])
        if len(rel) != cat.n or any(len(row) != cat.n for row in rel):
            raise InputFormatError(f"field 'initial' at vertex {v!r} must be a {cat.n}x{cat.n} matrix")
        try:
            check_relation(Q, rel)
        except Exception as exc:
            raise InputFormatError(f"field 'initial' at vertex {v!r} is invalid: {exc}") from exc
        initial[v] = rel
    eps = None
    if "eps" in payload:
        if "weighting" in payload:
            raise InputFormatError(
                "field 'weighting' cannot be combined with 'eps': the bounded-confidence "
                "schedule replaces the weighting on every step")
        eps = {}
        for v in graph.vertices:
            if v not in payload["eps"]:
                raise InputFormatError(f"field 'eps' is missing vertex {v!r}")
            eps[v] = decode_value(payload["eps"][v])
            _check_carrier(Q, [eps[v]], f"field 'eps' at vertex {v!r}")
    return {
        "quantale": Q, "category": cat, "graph": graph, "initial": initial, "eps": eps,
        "weighting": load_weighting(payload, graph, Q, "prefs input"),
    }


def load_input(path: str) -> tuple[str, Any]:
    """Read and dispatch an input file; returns (kind, loaded payload)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read input file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError("input must be a JSON object with a 'kind' field")
    kind = _need(payload, "kind", "the input file")
    if kind == "quantale":
        return kind, load_quantale(payload)
    if kind == "category":
        Q = load_quantale(payload)
        cat_payload = _need(payload, "category", "category input")
        objects = [decode_value(x) for x in _need(cat_payload, "objects", "category input")]
        hom = [[decode_value(h) for h in row] for row in _need(cat_payload, "hom", "category input")]
        return kind, _finite_category(Q, objects, hom, "category")
    if kind == "sheaf":
        return kind, load_sheaf(payload)
    if kind == "des":
        return kind, load_des(payload)
    if kind == "paths":
        return kind, load_paths(payload)
    if kind == "prefs":
        return kind, load_prefs(payload)
    raise InputFormatError(f"field 'kind' has unknown value {kind!r}; expected one of {INPUT_KINDS}")
