"""JSON input loading and line-delimited JSON output.

Input files are a single JSON object with a "kind" field selecting the
payload shape: quantale, category, sheaf, des, paths, or prefs.  Input is
read as I-JSON (RFC 7493): no object repeats a name, every integer fits a
double, and a boolean stands only where a field asks for true or false.
Infinite costs serialize as the string "inf".  Each shape that recurs across
kinds (a graph, a per-vertex map, a finite category, a number) has one
reader, and every reader raises InputFormatError naming the field.  Output
records are emitted one JSON object per line with sorted keys so runs with
the same seed are byte-identical.
"""
from __future__ import annotations

import json
import math
import reprlib
import sys
from collections.abc import Mapping  # isinstance on it is three times as fast as on typing's
from typing import Any, Callable, IO, Iterable

from .apps.des import DesSystem
from .apps.prefs import PreferenceCategory
from .qcat import (FiniteQCategory, OppositeCategory, PresheafPower, QCategoryError, QFunctor,
                   UnderlineQ, transport)
from .quantale import LawvereRealsQuantale, Quantale, QuantaleError, from_descriptor
from .sheaf import Graph, NetworkSheaf, SheafError, Weighting
from .wlattice import lattice_for
from .adjunction import synthesize_right_adjoint


class InputFormatError(ValueError):
    """Raised when an input file is malformed; the message names the field."""


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
    if type(v) is dict or isinstance(v, Mapping):
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


# -- readers: `where` names the field, e.g. "field 'edges'" -------------------

def _need(payload: Mapping, field: str, where: str) -> Any:
    if field not in payload:
        raise InputFormatError(f"field {field!r} is required in {where}")
    return payload[field]


def _expect(ok: bool, v: Any, where: str, what: str) -> Any:
    if not ok:
        raise InputFormatError(f"{where} must be {what}, got {v!r}")
    return v


def _object(v: Any, where: str) -> dict:
    return _expect(isinstance(v, dict), v, where, "a JSON object")


def _fields(v: Any, known: Iterable[str], where: str) -> dict:
    """A JSON object whose every key is one of `known`.  The message for an
    unknown key names the known key with its edge endpoints swapped, if any,
    and lists at most ten known keys, so it stays short on large graphs."""
    known = list(known)
    unread = sorted(set(_object(v, where)) - set(known))
    if unread:
        head, bar, edge = unread[0].rpartition("|")
        swapped = head + bar + ",".join(reversed(edge.split(",")))
        hint = f" (did you mean {swapped!r}?)" if swapped in known else ""
        more = f" ... ({len(known)} in all)" if len(known) > 10 else ""
        raise InputFormatError(f"{where} has unknown field {unread[0]!r}{hint}; "
                               f"it reads: {' '.join(known[:10])}{more}")
    return v


def _kind(desc: Any, fields: Mapping[str, str], where: str) -> str:
    """The 'kind' of a JSON object that gives only 'kind' and fields[kind]."""
    kind = _need(_object(desc, where), "kind", where)
    _expect(kind in tuple(fields), kind, f"field 'kind' in {where}", f"one of {tuple(fields)}")
    _fields(desc, ["kind", *fields[kind].split()], where)
    return kind


def _list(v: Any, where: str) -> list:
    return _expect(isinstance(v, list), v, where, "a list")


_LARGEST = int(sys.float_info.max)


def _plain(x: Any) -> bool:
    """No boolean, and no integer beyond the range of a double, anywhere in x."""
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return abs(x) <= _LARGEST
    return not isinstance(x, (tuple, frozenset)) or all(map(_plain, x))


def _value(v: Any, where: str) -> Any:
    """A decoded value: hashable, so objects other than {"set": [...]} fail,
    and plain (see `_plain`)."""
    try:
        x = decode_value(v)
        hash(x)
    except TypeError:
        raise InputFormatError(f"{where} must hold numbers, strings, lists or sets, got {v!r}") from None
    if not _plain(x):
        raise InputFormatError(f"{where} must hold no boolean and no integer beyond the range "
                               f"of a double, got {reprlib.repr(v)}")
    return x


def _number(v: Any, where: str, minimum: float = -math.inf) -> float:
    """A JSON number or "inf", at least `minimum`; NaN fails every comparison."""
    x = _value(v, where)
    bound = "" if minimum == -math.inf else f" >= {minimum:g}"
    _expect(isinstance(x, (int, float)) and x >= minimum, v, where, f"a number{bound}")
    return float(x)


def _integer(v: Any, where: str, minimum: int) -> int:
    return _expect(isinstance(v, int) and _plain(v) and v >= minimum,
                   v, where, f"an integer >= {minimum}")


def _name(v: Any, where: str) -> str:
    return str(_expect(isinstance(v, (str, int, float)) and not isinstance(v, bool),
                       v, where, "a name"))


def _tuples(v: Any, where: str, shape: str) -> list[list]:
    """A list of fixed-length lists; `shape` documents the form, e.g. "[v, w]"."""
    arity = shape.count(",") + 1
    return [_expect(isinstance(t, list) and len(t) == arity, t, f"{where} entries", f"{shape} lists")
            for t in _list(v, where)]


def _matrix(v: Any, where: str, minimum: float = -math.inf) -> tuple:
    rows = tuple(tuple(_number(c, where, minimum) for c in _list(row, where))
                 for row in _list(v, where))
    _expect(rows and rows[0] and all(len(r) == len(rows[0]) for r in rows),
            v, where, "a nonempty rectangular matrix")
    return rows


def _in_carrier(Q: Quantale, values: list, where: str) -> list:
    for p in values:
        _expect(Q.contains(p), p, where, f"an element of the {Q.kind} carrier")
    return values


def _names(v: Any, field: str) -> list[str]:
    where = f"field {field!r}"
    names = [_name(x, where) for x in _list(v, where)]
    return _expect(len(set(names)) == len(names), names, where, "distinct names")


def _graph(payload: Mapping, where: str) -> Graph:
    vertices = _names(_need(payload, "vertices", where), "vertices")
    edges = [(_name(v, "field 'edges'"), _name(w, "field 'edges'"))
             for v, w in _tuples(_need(payload, "edges", where), "field 'edges'", "[v, w]")]
    try:
        return Graph.build(vertices, edges)
    except SheafError as exc:
        raise InputFormatError(f"field 'edges' is invalid: {exc}") from exc


def _per_vertex(raw: Any, field: str, vertices, read: Callable[[Any, str], Any]) -> dict:
    """An object with exactly one entry per vertex, each converted by read(value, where)."""
    raw = _object(raw, f"field {field!r}")
    _expect(set(raw) == set(vertices), sorted(raw), f"field {field!r}",
            f"keyed by exactly the vertices {list(vertices)}")
    return {v: read(raw[v], f"field {field!r} at vertex {v!r}") for v in vertices}


def _finite_category(Q: Quantale, desc: Any, field: str) -> FiniteQCategory:
    """{objects, hom}: an object list and a square hom matrix over it."""
    where = f"field {field!r}"
    desc = _object(desc, where)
    objects = [_value(x, where) for x in _list(_need(desc, "objects", where), where)]
    hom = [[_value(h, where) for h in _list(row, where)]
           for row in _list(_need(desc, "hom", where), where)]
    try:
        return FiniteQCategory(Q, objects, hom)
    except (QCategoryError, QuantaleError) as exc:
        raise InputFormatError(f"{where} is invalid: {exc}") from exc


# -- input kinds ---------------------------------------------------------------

def load_quantale(payload: Mapping) -> Quantale:
    desc = _object(_need(payload, "quantale", "this input"), "field 'quantale'")
    for key, v in desc.items():
        _value(v, f"field 'quantale' at {key!r}")
    try:
        return from_descriptor(desc)
    except (QuantaleError, TypeError) as exc:
        raise InputFormatError(f"field 'quantale' is invalid: {exc}") from exc


def build_stalk(Q: Quantale, desc: Any):
    """Stalk descriptor -> lattice."""
    kind = _kind(desc, {"underline": "", "underline_op": "", "presheaf_power": "m op",
                        "finite": "objects hom"}, "field 'stalks'")
    if kind == "underline":
        return lattice_for(UnderlineQ(Q))
    if kind == "underline_op":
        return lattice_for(OppositeCategory(UnderlineQ(Q)))
    if kind == "presheaf_power":
        m = _integer(_need(desc, "m", "presheaf_power stalk"), "field 'stalks', 'm'", 1)
        op = desc.get("op", False)
        _expect(isinstance(op, bool), op, "field 'stalks', 'op'", "true or false")
        power = PresheafPower(Q, m)
        return lattice_for(OppositeCategory(power) if op else power)
    return lattice_for(_finite_category(Q, desc, "stalks"))


def _build_map(desc: Any, dom, cod, name: str, field: str) -> QFunctor:
    """Map descriptor -> functor; its constants must lie in the carrier and a
    table's targets in the target stalk."""
    where = f"field {field!r} at {name!r}"
    kind = _kind(desc, {"identity": "", "affine_shift": "c", "affine_unshift": "c", "table": "pairs",
                        "max_plus": "delays", "min_plus_transpose": "delays"}, where)
    if kind == "table":
        pairs = _tuples(_need(desc, "pairs", "table map"), where, "[x, y]")
        mapping = {_value(a, where): _value(b, where) for a, b in pairs}
        for b in mapping.values():
            _expect(cod.category.has_object(b), b, f"{where}, a table target", "an object of its stalk")
        return QFunctor(dom.category, cod.category, mapping, name=f"table[{name}]")
    params = ()
    if kind in ("affine_shift", "affine_unshift"):
        c = _number(_need(desc, "c", f"{kind} map"), f"{where}, 'c'")
        _in_carrier(cod.quantale, [c], f"{where}, 'c'")
        params = (c,)
    elif kind != "identity":
        A = _matrix(_need(desc, "delays", f"{kind} map"), f"{where}, 'delays'")
        _in_carrier(cod.quantale, [a for row in A for a in row], f"{where}, 'delays'")
        params = (A,)
    return transport(kind, dom.category, cod.category, *params, name=f"{kind}[{name}]")


def derive_corestriction(rest: QFunctor, name: str) -> QFunctor:
    """Right adjoint of a restriction: its kind's own, or synthesized for a table."""
    if rest.kind == ("table",):
        try:
            return synthesize_right_adjoint(rest).right
        except QCategoryError as exc:
            raise InputFormatError(
                f"field 'restrictions' at {name!r}: cannot derive its right adjoint: {exc}") from exc
    right = rest.right_adjoint()
    if right is None:
        raise InputFormatError(
            f"cannot derive a corestriction from map kind {rest.kind[0]!r} at {name}; "
            "give one under field 'corestrictions'")
    return right


def _edge_key(e: tuple) -> str:
    return f"{e[0]},{e[1]}"


def load_weighting(payload: Mapping, graph: Graph, Q: Quantale, where: str) -> Weighting:
    """Weighting field: {"constant": v} or {"pairs": [[v, w, value], ...]}
    (pairs are symmetrized unless both directions are given)."""
    desc = payload.get("weighting")
    if desc is None:
        return Weighting(graph, Q)
    field = "field 'weighting'"
    _expect(len(_fields(desc, ["constant", "pairs"], field)) == 1, desc, field,
            "an object with one of 'constant' or 'pairs'")
    try:
        if "constant" in desc:
            return Weighting(graph, Q, constant=_value(desc["constant"], field))
        table = {(_name(v, field), _name(w, field)): _value(val, field)
                 for v, w, val in _tuples(desc["pairs"], field, "[v, w, value]")}
        for v, w, _e in graph.adjacent_pairs():
            if (v, w) not in table and (w, v) in table:
                table[(v, w)] = table[(w, v)]
        return Weighting(graph, Q, table=table)
    except (SheafError, QuantaleError) as exc:
        raise InputFormatError(f"field 'weighting' in {where} is invalid: {exc}") from exc


def load_sheaf(payload: Mapping) -> tuple[NetworkSheaf, Weighting, dict | None]:
    """Sheaf input -> (sheaf, weighting, initial cochain or None)."""
    Q = load_quantale(payload)
    graph = _graph(payload, "sheaf input")

    default_stalk = payload.get("stalk")
    stalks = _fields(payload.get("stalks", {}), [*graph.vertices, *map(_edge_key, graph.edges)],
                     "field 'stalks'")

    lattices = {}  # one lattice per distinct descriptor, so identity pairs certify

    def stalk(key):
        desc = stalks.get(key, default_stalk)
        if desc is None:
            raise InputFormatError(f"field 'stalks' is missing {key!r} and no 'stalk' default given")
        text = json.dumps(desc, sort_keys=True)
        if text not in lattices:
            lattices[text] = build_stalk(Q, desc)
        return lattices[text]

    vertex_lats = {v: stalk(v) for v in graph.vertices}
    edge_lats = {e: stalk(_edge_key(e)) for e in graph.edges}

    incidences = {f"{v}|{_edge_key(e)}": (v, e) for e in graph.edges for v in e}
    rest_desc = _fields(_need(payload, "restrictions", "sheaf input"), incidences,
                        "field 'restrictions'")
    corest_desc = _fields(payload.get("corestrictions", {}), incidences, "field 'corestrictions'")
    restrictions, corestrictions = {}, {}
    for key, (v, e) in incidences.items():
        restrictions[(v, e)] = _build_map(_need(rest_desc, key, "field 'restrictions'"),
                                          vertex_lats[v], edge_lats[e], key, "restrictions")
        if key in corest_desc:
            corestrictions[(e, v)] = _build_map(
                corest_desc[key], edge_lats[e], vertex_lats[v], key, "corestrictions")
        else:
            corestrictions[(e, v)] = derive_corestriction(restrictions[(v, e)], key)

    try:
        F = NetworkSheaf(graph, Q, vertex_lats, edge_lats, restrictions, corestrictions)
    except SheafError as exc:
        raise InputFormatError(f"field 'restrictions' is invalid: {exc}") from exc
    W = load_weighting(payload, graph, Q, "sheaf input")
    initial = payload.get("initial")
    if initial is not None:
        initial = _per_vertex(initial, "initial", graph.vertices, _value)
        for v, x in initial.items():
            _expect(vertex_lats[v].category.has_object(x), x, f"field 'initial' at vertex {v!r}",
                    "an object of its stalk")
    return F, W, initial


def load_des(payload: Mapping) -> DesSystem:
    m = _integer(_need(payload, "m", "des input"), "field 'm'", 1)
    graph = _graph(payload, "des input")
    delays = _per_vertex(_need(payload, "delays", "des input"), "delays", graph.vertices,
                         lambda raw, where: _matrix(raw, where, minimum=0))
    weights = (dict(load_weighting(payload, graph, LawvereRealsQuantale(), "des input").table)
               if "weighting" in payload else None)
    try:
        sys_ = DesSystem(m=m, delays=delays, graph=graph, weights=weights)
    except ValueError as exc:
        raise InputFormatError(f"field 'delays' is invalid: {exc}") from exc

    def timing(raw, where):
        vec = tuple(_number(c, where, minimum=0) for c in _list(raw, where))
        return _expect(len(vec) == m, vec, where, f"{m} times")

    sys_.initial = (_per_vertex(payload["initial"], "initial", graph.vertices, timing)
                    if "initial" in payload else {v: (0.0,) * m for v in graph.vertices})
    return sys_


def load_paths(payload: Mapping) -> tuple[list, Any, list | None]:
    where = "field 'edges'"
    edges = [(_name(u, where), _name(v, where), _number(w, where, minimum=0))
             for u, v, w in _tuples(_need(payload, "edges", "paths input"), where, "[u, v, length]")]
    pairs = [frozenset(e[:2]) for e in edges]
    _expect(all(len(p) == 2 for p in pairs) and len(set(pairs)) == len(pairs), edges, where,
            "edges between two distinct vertices, each given once")
    source = _name(_need(payload, "source", "paths input"), "field 'source'")
    vertices = _names(payload["vertices"], "vertices") if "vertices" in payload else None
    _expect(source in {x for e in edges for x in e[:2]}.union(vertices or ()), source,
            "field 'source'", "a vertex")
    return edges, source, vertices


def load_prefs(payload: Mapping) -> dict:
    Q = load_quantale(payload)
    alternatives = _names(_need(payload, "alternatives", "prefs input"), "alternatives")
    try:
        cat = PreferenceCategory(Q, alternatives)
    except QCategoryError as exc:
        raise InputFormatError(f"field 'alternatives' is invalid: {exc}") from exc
    graph = _graph(payload, "prefs input")

    def relation(raw, where):
        rel = tuple(tuple(_value(c, where) for c in _list(row, where)) for row in _list(raw, where))
        return _expect(cat.has_object(rel), rel, where,
                       f"a reflexive, transitive {cat.n}x{cat.n} {Q.kind} relation")

    initial = _per_vertex(_need(payload, "initial", "prefs input"), "initial", graph.vertices,
                          relation)
    eps = None
    if "eps" in payload:
        if "weighting" in payload:
            raise InputFormatError(
                "field 'weighting' cannot be combined with 'eps': the bounded-confidence "
                "schedule replaces the weighting on every step")
        eps = _per_vertex(payload["eps"], "eps", graph.vertices,
                          lambda raw, where: _in_carrier(Q, [_value(raw, where)], where)[0])
    weighting = load_weighting(payload, graph, Q, "prefs input")
    # The Laplacian cotensors by the weights, and a prefs cotensor needs q * q = q.
    # Boolean and min-t-norm values are all idempotent, and the bounded-confidence
    # schedule uses only unit and bottom.
    for q in weighting.table.values():
        _expect(Q.eq(Q.mul(q, q), q), q, "field 'weighting'", "an idempotent value (q * q = q)")
    return {"quantale": Q, "category": cat, "graph": graph, "initial": initial, "eps": eps,
            "weighting": weighting}


def load_category(payload: Mapping) -> FiniteQCategory:
    Q = load_quantale(payload)
    desc = _fields(_need(payload, "category", "category input"), ["objects", "hom"],
                   "field 'category'")
    return _finite_category(Q, desc, "category")


_LOADERS = {"quantale": load_quantale, "category": load_category, "sheaf": load_sheaf,
            "des": load_des, "paths": load_paths, "prefs": load_prefs}
# input kind -> the top-level fields its loader reads
_INPUT_FIELDS = {"quantale": "quantale", "category": "quantale category",
                 "sheaf": "quantale vertices edges stalk stalks restrictions corestrictions "
                          "weighting initial",
                 "des": "m vertices edges delays weighting initial",
                 "paths": "edges source vertices",
                 "prefs": "quantale alternatives vertices edges initial eps weighting"}


def _path_to(node: Any, target: dict, path: tuple = ()) -> tuple | None:
    """The keys that lead from `node` to the object `target`, or None."""
    if node is target:
        return path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        found = _path_to(child, target, path + (key,))
        if found is not None:
            return found
    return None


def _parse(path: str) -> Any:
    repeats = []  # (object, a name it gives twice), as the parser completes objects

    def unique_names(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            repeats.append((obj, next(k for k, _v in pairs if k in seen or seen.add(k))))
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, object_pairs_hook=unique_names)
    except OSError as exc:
        raise InputFormatError(f"cannot read input file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"input is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"input is not valid JSON: {exc}") from exc
    except ValueError:  # int() refuses to read a number this long
        raise InputFormatError(f"input has a number of more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    for obj, name in repeats:  # an object that a repeated name overwrote is not in the payload
        where = _path_to(payload, obj)
        if where == ():
            raise InputFormatError(f"the input file repeats field {name!r}")
        if where is not None:
            inner = f" at {'/'.join(map(str, where[1:]))!r}" if where[1:] else ""
            raise InputFormatError(f"field {where[0]!r}{inner} repeats the name {name!r}")
    return payload


def load_input(path: str) -> tuple[str, Any]:
    """Read and dispatch an input file; returns (kind, loaded payload)."""
    try:
        payload = _parse(path)
        if not isinstance(payload, dict):
            raise InputFormatError("input must be a JSON object with field 'kind'")
        kind = _kind(payload, _INPUT_FIELDS, "the input file")
        return kind, _LOADERS[kind](payload)
    except RecursionError:
        raise InputFormatError("input nests too deeply") from None
