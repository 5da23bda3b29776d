"""Command-line interface.

Subcommands: validate, flow, sections, verify, des, paths, prefs.  Every
command reads one JSON input file, writes line-delimited JSON records with
sorted keys, and echoes the seed, so a fixed seed gives byte-identical
output.  Exit status: 0 on success, 1 when a validation or verification
check fails, 2 when the input cannot be parsed.
"""
from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .apps import des as des_app
from .apps import paths as paths_app
from .apps import prefs as prefs_app
from .fileio import InputFormatError, emit, load_input
from .gen import random_cochain
from .oracle import classic_shortest_paths, grid_residual
from .qcat import NotEnumerableError, validate_category
from .quantale import check_quantale_laws
from .sheaf import (check_suffix_section_lemmas, constant_sheaf, global_sections,
                    harmonic_flow, is_fuzzy_global_section)
from .wlattice import AnalyticLattice


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sheafflow",
        description="Diffusion on network sheaves of weighted lattices.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, max_iter=200):
        sp.add_argument("--input", required=True, help="JSON input file")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
        sp.add_argument("--seed", type=int, default=0, help="random seed, echoed in output")
        sp.add_argument("--max-iter", type=int, default=max_iter, dest="max_iter")
        sp.add_argument("--tolerance", type=float, default=None,
                        help="override the quantale comparison tolerance")
        sp.add_argument("--grid", type=int, default=1000,
                        help="grid resolution for residual cross-checks")
        sp.add_argument("--schedule", choices=("unweighted", "dijkstra"),
                        default="unweighted", help="extraction schedule for paths")

    for name, help_ in [
        ("validate", "check the input against the laws of its kind"),
        ("flow", "run the harmonic flow from the input's initial cochain"),
        ("sections", "enumerate global sections of a sheaf"),
        ("verify", "run the verification battery for the input's kind"),
        ("des", "synchronize a timed event system"),
        ("paths", "single-source shortest paths via the cost sheaf"),
        ("prefs", "diffuse preference relations over a network"),
    ]:
        common(sub.add_parser(name, help=help_))
    return p


def _apply_tolerance(Q, tolerance):
    if tolerance is not None:
        Q.tolerance = tolerance


class _Failure(Exception):
    pass


def _report_lines(rep, out, seed, subject):
    emit({"record": "report", "subject": subject, "title": rep.title,
          "checks": rep.checks, "violations": len(rep.violations),
          "ok": rep.ok, "seed": seed}, out)
    for v in rep.violations[:20]:
        emit({"record": "violation", "subject": subject, "law": v.law,
              "witness": repr(v.witness), "detail": v.detail, "seed": seed}, out)


def _cmd_validate(kind, loaded, args, out, rng):
    ok = True
    if kind == "quantale":
        Q = loaded
        _apply_tolerance(Q, args.tolerance)
        samples = "exhaustive" if Q.is_enumerable else [Q.sample(rng) for _ in range(25)]
        rep = check_quantale_laws(Q, samples)
        _report_lines(rep, out, args.seed, Q.kind)
        ok = rep.ok
    elif kind == "category":
        C = loaded
        _apply_tolerance(C.quantale, args.tolerance)
        rep = validate_category(C)
        _report_lines(rep, out, args.seed, "category")
        ok = rep.ok
    elif kind in ("sheaf", "des"):
        if kind == "des":
            F, W = des_app.des_sheaf(loaded)
        else:
            F, W, _initial = loaded
        _apply_tolerance(F.quantale, args.tolerance)
        for (v, e), level in sorted(F.adjunction_levels.items(), key=lambda kv: str(kv[0])):
            emit({"record": "adjunction_level", "vertex": v, "edge": list(e),
                  "level": level, "crisp": F.quantale.eq(level, F.quantale.unit),
                  "seed": args.seed}, out)
        emit({"record": "summary", "crisp": F.is_crisp(),
              "symmetric_weights": W.is_symmetric(), "level": F.level(),
              "seed": args.seed}, out)
        ok = True
    elif kind == "paths":
        edges, source, vertices = loaded
        bad = [e for e in edges if e[2] < 0]
        for e in bad:
            emit({"record": "violation", "law": "nonnegative-weight",
                  "witness": list(e), "seed": args.seed}, out)
        emit({"record": "summary", "edges": len(edges), "source": source,
              "ok": not bad, "seed": args.seed}, out)
        ok = not bad
    elif kind == "prefs":
        data = loaded
        _apply_tolerance(data["quantale"], args.tolerance)
        for v in data["graph"].vertices:
            emit({"record": "relation_ok", "vertex": v, "seed": args.seed}, out)
        emit({"record": "summary", "vertices": len(data["graph"].vertices),
              "ok": True, "seed": args.seed}, out)
    if not ok:
        raise _Failure()


def _sheaf_from(kind, loaded):
    if kind == "des":
        F, W = des_app.des_sheaf(loaded)
        initial = getattr(loaded, "initial", None)
        if initial is None:
            initial = {v: (0.0,) * loaded.m for v in loaded.graph.vertices}
        return F, W, initial
    if kind == "sheaf":
        return loaded
    raise InputFormatError(f"field 'kind' must be 'sheaf' or 'des' for this command, got {kind!r}")


def _cmd_flow(kind, loaded, args, out, rng):
    F, W, initial = _sheaf_from(kind, loaded)
    _apply_tolerance(F.quantale, args.tolerance)
    if initial is None:
        raise InputFormatError("field 'initial' is required to run a flow")
    trace = harmonic_flow(F, W, initial, max_iter=args.max_iter)
    for step in trace.iterations:
        emit({"record": "iteration", "t": step.t,
              "cochain": {str(v): step.cochain[v] for v in F.graph.vertices},
              "suffix_level": step.suffix_level, "seed": args.seed}, out)
    emit({"record": "summary", "status": trace.status,
          "converged_at": trace.converged_at, "iterations": len(trace.iterations) - 1,
          "seed": args.seed}, out)


def _cmd_sections(kind, loaded, args, out, rng):
    F, W, initial = _sheaf_from(kind, loaded)
    _apply_tolerance(F.quantale, args.tolerance)
    try:
        secs, _cat = global_sections(F, W)
    except NotEnumerableError:
        if initial is None:
            raise InputFormatError(
                "stalks are not enumerable; give field 'initial' to check one candidate")
        chk = is_fuzzy_global_section(F, W, initial)
        emit({"record": "candidate",
              "cochain": {str(v): initial[v] for v in F.graph.vertices},
              "is_section": chk.ok, "slack": chk.slack, "seed": args.seed}, out)
        emit({"record": "summary", "sections": None, "enumerable": False,
              "seed": args.seed}, out)
        return
    for s in secs:
        emit({"record": "section",
              "cochain": {str(v): s[v] for v in F.graph.vertices},
              "seed": args.seed}, out)
    emit({"record": "summary", "sections": len(secs), "enumerable": True,
          "seed": args.seed}, out)


def _cmd_verify(kind, loaded, args, out, rng):
    ok = True
    if kind == "quantale":
        Q = loaded
        _apply_tolerance(Q, args.tolerance)
        samples = "exhaustive" if Q.is_enumerable else [Q.sample(rng) for _ in range(40)]
        rep = check_quantale_laws(Q, samples)
        _report_lines(rep, out, args.seed, Q.kind)
        ok = rep.ok
        worst = 0.0
        pairs = (Q.elements() if Q.is_enumerable
                 else [(Q.sample(rng)) for _ in range(12)])
        for p in pairs:
            for q in pairs:
                r = grid_residual(Q, p, q, resolution=args.grid)
                worst = max(worst, Q.gap(Q.hom(p, q), r))
        emit({"record": "grid_residual", "resolution": args.grid,
              "worst_gap": worst, "ok": worst <= max(1e-6, 2.0 / args.grid),
              "seed": args.seed}, out)
        ok = ok and worst <= max(1e-6, 2.0 / args.grid)
    elif kind == "category":
        C = loaded
        _apply_tolerance(C.quantale, args.tolerance)
        rep = validate_category(C)
        _report_lines(rep, out, args.seed, "category")
        ok = rep.ok
    elif kind in ("sheaf", "des"):
        F, W, initial = _sheaf_from(kind, loaded)
        _apply_tolerance(F.quantale, args.tolerance)
        level = F.level()
        cochains = [initial] if initial else []
        for _ in range(4 - len(cochains)):
            try:
                cochains.append(random_cochain(rng, F))
            except NotEnumerableError:
                break
        if cochains:
            rep = check_suffix_section_lemmas(F, W, q=F.quantale.unit, cochains=cochains)
            _report_lines(rep, out, args.seed, "descent-lemmas")
            ok = ok and rep.ok
        if kind == "des":
            slacks = des_app.agreement_slacks(loaded, W, initial) if initial else []
            for s in slacks:
                emit({"record": "slack", **{k: s[k] for k in ("v", "w", "lhs", "bound", "slack")},
                      "seed": args.seed}, out)
            ok = ok and all(s["slack"] >= -1e-9 for s in slacks)
        emit({"record": "summary", "level": level, "ok": ok, "seed": args.seed}, out)
    elif kind == "paths":
        edges, source, vertices = loaded
        want = classic_shortest_paths(edges, source, vertices)
        got = {}
        for mode in paths_app.MODES:
            r = paths_app.shortest_paths(edges, source, mode=mode, vertices=vertices)
            got[mode] = r.distances
            emit({"record": "mode", "mode": mode,
                  "matches_oracle": r.distances == want,
                  "extractions": r.extractions, "seed": args.seed}, out)
            ok = ok and r.distances == want
        emit({"record": "summary", "ok": ok, "seed": args.seed}, out)
    elif kind == "prefs":
        data = loaded
        Q = data["quantale"]
        _apply_tolerance(Q, args.tolerance)
        cat = data["category"]
        ops = cat.analytic_lattice_ops()
        for v in data["graph"].vertices:
            rel = data["initial"][v]
            joined = ops.crisp_join([rel, rel])
            emit({"record": "closure_idempotent", "vertex": v,
                  "ok": joined == rel, "seed": args.seed}, out)
            ok = ok and joined == rel
        emit({"record": "summary", "ok": ok, "seed": args.seed}, out)
    if not ok:
        raise _Failure()


def _cmd_des(kind, loaded, args, out, rng):
    if kind != "des":
        raise InputFormatError(f"field 'kind' must be 'des' for this command, got {kind!r}")
    sys_ = loaded
    F, W, x0 = _sheaf_from(kind, sys_)
    _apply_tolerance(F.quantale, args.tolerance)
    trace = harmonic_flow(F, W, x0, max_iter=args.max_iter)
    final = trace.final
    emit({"record": "summary", "status": trace.status,
          "converged_at": trace.converged_at, "crisp": F.is_crisp(),
          "seed": args.seed}, out)
    emit({"record": "final",
          "cochain": {str(v): final[v] for v in sys_.graph.vertices},
          "seed": args.seed}, out)
    for s in des_app.agreement_slacks(sys_, W, final):
        emit({"record": "slack", "v": s["v"], "w": s["w"], "lhs": s["lhs"],
              "bound": s["bound"], "slack": s["slack"], "seed": args.seed}, out)
    cf = des_app.closed_form_crosscheck(sys_, F, W, [x0, final])
    emit({"record": "closed_form", "matches": cf.ok,
          "mismatches": len(cf.violations), "seed": args.seed}, out)


def _cmd_paths(kind, loaded, args, out, rng):
    if kind != "paths":
        raise InputFormatError(f"field 'kind' must be 'paths' for this command, got {kind!r}")
    edges, source, vertices = loaded
    mode = "dijkstra_schedule" if args.schedule == "dijkstra" else "synchronous"
    r = paths_app.shortest_paths(edges, source, mode=mode, vertices=vertices,
                                 max_iter=args.max_iter)
    for v in sorted(r.distances, key=str):
        emit({"record": "distance", "vertex": v, "cost": r.distances[v],
              "seed": args.seed}, out)
    emit({"record": "summary", "mode": mode, "status": r.trace.status,
          "extractions": r.extractions, "source": source, "seed": args.seed}, out)


def _cmd_prefs(kind, loaded, args, out, rng):
    if kind != "prefs":
        raise InputFormatError(f"field 'kind' must be 'prefs' for this command, got {kind!r}")
    data = loaded
    Q = data["quantale"]
    _apply_tolerance(Q, args.tolerance)
    cat = data["category"]
    graph = data["graph"]
    F = constant_sheaf(graph, Q, AnalyticLattice(cat, cat.analytic_lattice_ops()))
    schedule = None
    if data["eps"] is not None:
        schedule = prefs_app.bounded_confidence_weighting(F, data["eps"])
    trace = harmonic_flow(F, data["weighting"], data["initial"], max_iter=args.max_iter,
                          weight_schedule=schedule)
    final = trace.final
    for v in graph.vertices:
        emit({"record": "relation", "vertex": v, "matrix": final[v],
              "updated": final[v] != data["initial"][v], "seed": args.seed}, out)
    emit({"record": "summary", "status": trace.status,
          "converged_at": trace.converged_at,
          "zero_update": sorted(v for v in graph.vertices
                                if final[v] == data["initial"][v]),
          "seed": args.seed}, out)


_COMMANDS = {
    "validate": _cmd_validate,
    "flow": _cmd_flow,
    "sections": _cmd_sections,
    "verify": _cmd_verify,
    "des": _cmd_des,
    "paths": _cmd_paths,
    "prefs": _cmd_prefs,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    rng = random.Random(args.seed)
    try:
        kind, loaded = load_input(args.input)
    except InputFormatError as exc:
        print(f"sheafflow: input error: {exc}", file=sys.stderr)
        return 2
    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        _COMMANDS[args.command](kind, loaded, args, out, rng)
    except InputFormatError as exc:
        print(f"sheafflow: input error: {exc}", file=sys.stderr)
        return 2
    except _Failure:
        return 1
    finally:
        if args.output:
            out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
