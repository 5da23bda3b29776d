"""Command-line interface.

Subcommands: validate, flow, sections, verify, des, paths, prefs.  Every
command reads one JSON input file (--input), writes line-delimited JSON
records with sorted keys (--output, default stdout), and echoes --seed, so a
fixed seed gives byte-identical output.  The other flags exist only on the
subcommands that read them: --max-iter (>= 0) on flow, des, prefs and paths
(where --schedule dijkstra rejects it); --grid (>= 1) on verify; --schedule
on paths.  A quantale's comparison tolerance is set in its input descriptor.
One table keyed by input kind says which subcommands take each kind and how
each is run.  Exit status: 0 on success, 1 when a validation or verification
check fails or stdout is closed before the output is written, 2 when the
input or a flag cannot be used.
"""
from __future__ import annotations

import argparse
import os
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
from .wlattice import NoSuchObject, lattice_for


def _at_least(low, convert):
    """argparse type: `convert` the text and require at least `low` (NaN fails)."""
    def check(text):
        value = convert(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
        return value
    check.__name__ = convert.__name__
    return check


_MAX_ITER = 200


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sheafflow",
        description="Diffusion on network sheaves of weighted lattices.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("validate", "check the input against the laws of its kind"),
        ("flow", "run the harmonic flow from the input's initial cochain"),
        ("sections", "enumerate global sections of a sheaf"),
        ("verify", "run the verification battery for the input's kind"),
        ("des", "synchronize a timed event system"),
        ("paths", "single-source shortest paths via the cost sheaf"),
        ("prefs", "diffuse preference relations over a network"),
    ]:
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--input", required=True, help="JSON input file")
        sp.add_argument("--output", default=None, help="output file (default stdout)")
        sp.add_argument("--seed", type=int, default=0, help="random seed, echoed in output")
        if name in ("flow", "des", "paths", "prefs"):
            # paths leaves it unset, so that --schedule dijkstra can reject it
            sp.add_argument("--max-iter", type=_at_least(0, int),
                            default=None if name == "paths" else _MAX_ITER,
                            help=f"flow iteration cap (>= 0, default {_MAX_ITER})")
        if name == "verify":
            sp.add_argument("--grid", type=_at_least(1, int), default=1000,
                            help="grid resolution for residual cross-checks (>= 1)")
        if name == "paths":
            sp.add_argument("--schedule", choices=("unweighted", "dijkstra"),
                            default="unweighted", help="extraction schedule")
    return p


def _report_lines(rep, out, seed, subject) -> bool:
    """Emit a law report and its first violations; True when it passed."""
    emit({"record": "report", "subject": subject, "title": rep.title,
          "checks": rep.checks, "violations": len(rep.violations),
          "ok": rep.ok, "seed": seed}, out)
    for v in rep.violations[:20]:
        emit({"record": "violation", "subject": subject, "law": v.law,
              "witness": repr(v.witness), "detail": v.detail, "seed": seed}, out)
    return rep.ok


# Every command takes (subject, args, out, rng) and returns False when a
# validation or verification check fails.

def _quantale_laws(Q, args, out, rng, samples: int = 25) -> bool:
    rep = check_quantale_laws(
        Q, "exhaustive" if Q.is_enumerable else [Q.sample(rng) for _ in range(samples)])
    return _report_lines(rep, out, args.seed, Q.kind)


def _verify_quantale(Q, args, out, rng) -> bool:
    ok = _quantale_laws(Q, args, out, rng, 40)
    worst = 0.0
    pairs = Q.elements() if Q.is_enumerable else [Q.sample(rng) for _ in range(12)]
    for p in pairs:
        for q in pairs:
            r = grid_residual(Q, p, q, resolution=args.grid)
            worst = max(worst, Q.gap(Q.hom(p, q), r))
    within = worst <= max(1e-6, 2.0 / args.grid)
    emit({"record": "grid_residual", "resolution": args.grid,
          "worst_gap": worst, "ok": within, "seed": args.seed}, out)
    return ok and within


def _category_laws(C, args, out, rng) -> bool:
    return _report_lines(validate_category(C), out, args.seed, "category")


# A sheaf subject is (sheaf, weighting, initial cochain or None, DesSystem of
# a des input or None).

def _validate_sheaf(s, args, out, rng) -> None:
    F, W, _initial, _system = s
    for (v, e), level in sorted(F.adjunction_levels.items(), key=lambda kv: str(kv[0])):
        emit({"record": "adjunction_level", "vertex": v, "edge": list(e),
              "level": level, "crisp": F.quantale.eq(level, F.quantale.unit),
              "seed": args.seed}, out)
    emit({"record": "summary", "crisp": F.is_crisp(),
          "symmetric_weights": W.is_symmetric(), "level": F.level(),
          "seed": args.seed}, out)


def _verify_sheaf(s, args, out, rng) -> bool:
    F, W, initial, system = s
    ok = True
    cochains = [initial] if initial else []
    for _ in range(4 - len(cochains)):
        try:
            cochains.append(random_cochain(rng, F))
        except NotEnumerableError:
            break
    if cochains:
        rep = check_suffix_section_lemmas(F, W, q=F.quantale.unit, cochains=cochains)
        ok = _report_lines(rep, out, args.seed, "descent-lemmas")
    if system is not None:  # the start schedule's agreement, for information
        for sl in des_app.agreement_slacks(system, W, initial):
            emit({"record": "slack", **{k: sl[k] for k in ("v", "w", "lhs", "bound", "slack")},
                  "seed": args.seed}, out)
    emit({"record": "summary", "level": F.level(), "ok": ok, "seed": args.seed}, out)
    return ok


def _flow(s, args, out, rng) -> None:
    F, W, initial, _system = s
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


def _sections(s, args, out, rng) -> None:
    F, W, initial, _system = s
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
    for sec in secs:
        emit({"record": "section",
              "cochain": {str(v): sec[v] for v in F.graph.vertices},
              "seed": args.seed}, out)
    emit({"record": "summary", "sections": len(secs), "enumerable": True,
          "seed": args.seed}, out)


def _des(s, args, out, rng) -> None:
    F, W, x0, system = s
    trace = harmonic_flow(F, W, x0, max_iter=args.max_iter)
    final = trace.final
    emit({"record": "summary", "status": trace.status,
          "converged_at": trace.converged_at, "crisp": F.is_crisp(),
          "seed": args.seed}, out)
    emit({"record": "final",
          "cochain": {str(v): final[v] for v in F.graph.vertices},
          "seed": args.seed}, out)
    for sl in des_app.agreement_slacks(system, W, final):
        emit({"record": "slack", "v": sl["v"], "w": sl["w"], "lhs": sl["lhs"],
              "bound": sl["bound"], "slack": sl["slack"], "seed": args.seed}, out)
    cf = des_app.closed_form_crosscheck(system, F, W, [x0, final])
    emit({"record": "closed_form", "matches": cf.ok,
          "mismatches": len(cf.violations), "seed": args.seed}, out)


def _validate_paths(loaded, args, out, rng) -> None:
    edges, source, _vertices = loaded
    emit({"record": "summary", "edges": len(edges), "source": source,
          "ok": True, "seed": args.seed}, out)


def _verify_paths(loaded, args, out, rng) -> bool:
    edges, source, vertices = loaded
    want = classic_shortest_paths(edges, source, vertices)
    ok = True
    for mode in paths_app.MODES:
        r = paths_app.shortest_paths(edges, source, mode=mode, vertices=vertices)
        emit({"record": "mode", "mode": mode,
              "matches_oracle": r.distances == want,
              "extractions": r.extractions, "seed": args.seed}, out)
        ok = ok and r.distances == want
    emit({"record": "summary", "ok": ok, "seed": args.seed}, out)
    return ok


def _paths(loaded, args, out, rng) -> None:
    edges, source, vertices = loaded
    mode = "dijkstra_schedule" if args.schedule == "dijkstra" else "synchronous"
    max_iter = args.max_iter  # None with dijkstra, which main() enforces
    if mode == "synchronous" and max_iter is None:
        max_iter = _MAX_ITER
    r = paths_app.shortest_paths(edges, source, mode=mode, vertices=vertices,
                                 max_iter=max_iter)
    for v in sorted(r.distances, key=str):
        emit({"record": "distance", "vertex": v, "cost": r.distances[v],
              "seed": args.seed}, out)
    emit({"record": "summary", "mode": mode, "status": r.trace.status,
          "extractions": r.extractions, "source": source, "seed": args.seed}, out)


def _validate_prefs(data, args, out, rng) -> None:
    for v in data["graph"].vertices:
        emit({"record": "relation_ok", "vertex": v, "seed": args.seed}, out)
    emit({"record": "summary", "vertices": len(data["graph"].vertices),
          "ok": True, "seed": args.seed}, out)


def _verify_prefs(data, args, out, rng) -> bool:
    lat = lattice_for(data["category"])
    ok = True
    for v in data["graph"].vertices:
        rel = data["initial"][v]
        idempotent = lat.iso(lat.ops.crisp_join([rel, rel]), rel)
        emit({"record": "closure_idempotent", "vertex": v,
              "ok": idempotent, "seed": args.seed}, out)
        ok = ok and idempotent
    emit({"record": "summary", "ok": ok, "seed": args.seed}, out)
    return ok


def _prefs(data, args, out, rng) -> None:
    Q, cat, graph = data["quantale"], data["category"], data["graph"]
    F = constant_sheaf(graph, Q, lattice_for(cat))
    schedule = None
    if data["eps"] is not None:
        schedule = prefs_app.bounded_confidence_weighting(F, data["eps"])
    trace = harmonic_flow(F, data["weighting"], data["initial"], max_iter=args.max_iter,
                          weight_schedule=schedule)
    final = trace.final
    # changed up to isomorphism, the rule by which the flow itself stops
    kept = {v for v in graph.vertices if cat.iso(final[v], data["initial"][v])}
    for v in graph.vertices:
        emit({"record": "relation", "vertex": v, "matrix": final[v],
              "updated": v not in kept, "seed": args.seed}, out)
    emit({"record": "summary", "status": trace.status,
          "converged_at": trace.converged_at, "zero_update": sorted(kept),
          "seed": args.seed}, out)


def _same(x):
    return x


_SHEAF_COMMANDS = {"validate": _validate_sheaf, "verify": _verify_sheaf,
                   "flow": _flow, "sections": _sections}

# input kind -> (loaded input -> the subject its commands take,
#                subcommand -> command)
_KINDS = {
    "quantale": (_same, {"validate": _quantale_laws, "verify": _verify_quantale}),
    "category": (_same, {"validate": _category_laws, "verify": _category_laws}),
    "sheaf": (lambda loaded: (*loaded, None), _SHEAF_COMMANDS),
    "des": (lambda system: (*des_app.des_sheaf(system), system.initial, system),
            {**_SHEAF_COMMANDS, "des": _des}),
    "paths": (_same, {"validate": _validate_paths, "verify": _verify_paths, "paths": _paths}),
    "prefs": (_same, {"validate": _validate_prefs, "verify": _verify_prefs, "prefs": _prefs}),
}


def _input_error(message) -> int:
    print(f"sheafflow: input error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "schedule", None) == "dijkstra" and args.max_iter is not None:
        parser.error("argument --max-iter: not allowed with --schedule dijkstra, "
                     "which makes exactly one extraction per vertex")
    rng = random.Random(args.seed)
    try:
        kind, loaded = load_input(args.input)
        prepare, commands = _KINDS[kind]
        if args.command not in commands:
            accepted = " or ".join(repr(k) for k, spec in _KINDS.items() if args.command in spec[1])
            raise InputFormatError(
                f"field 'kind' must be {accepted} for this command, got {kind!r}")
        subject = prepare(loaded)
    except InputFormatError as exc:
        return _input_error(exc)
    try:
        out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    except OSError as exc:
        print(f"sheafflow: cannot write --output: {exc}", file=sys.stderr)
        return 2
    try:
        passed = commands[args.command](subject, args, out, rng)
        out.flush()
    except BrokenPipeError:  # stdout's reader is gone; keep the flush at exit from raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputFormatError as exc:
        return _input_error(exc)
    except NoSuchObject as exc:
        return _input_error(f"field 'stalks' holds a stalk that is not a weighted lattice: {exc}")
    finally:
        if args.output:
            out.close()
    return 1 if passed is False else 0


if __name__ == "__main__":
    sys.exit(main())
