"""Per-layer tracing for the sheafflow benchmark.

The tracer wraps public functions and methods of each library layer from
outside the library.  A module-level function is replaced in every module
that holds a binding to it (``apps.paths.laplacian``, ``cli.harmonic_flow``
and so on), so calls that go through an imported name are seen too.

Three kinds of wrapper:

* counted: bumps a counter only; the call's time stays with its caller.
* micro: a frame with an aggregated counter and self time, for
  microsecond-scale calls (quantale ops, ``QCategory.hom``,
  ``QFunctor.__call__``, lattice ops) where a span per call would cost more
  than the call.  Its layer may be a function of the call's arguments, as
  for lattice ops, which land in ``wlattice.enum`` or ``wlattice.analytic``
  by the kind of lattice.
* coarse: a frame that also records a span (name, start, end, parent,
  request id).  Spans stay in memory until ``write_spans``.

A layer's self time is the time of its frames minus the time covered by
child frames.  Counters and self times are kept per phase (setup, solve,
check), so work done while checking outputs never lands in solve figures.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

from sheafflow import cli, fileio, gen, oracle, qcat, quantale, sheaf, wlattice
from sheafflow.apps import des, paths, prefs

QUANTALE_OPS = ("leq", "eq", "join", "meet", "join2", "meet2", "mul", "hom",
                "require", "elements", "sample")
QCAT_OPS = ("hom", "has_object", "objects", "iso", "approx", "hom_leq", "require_object")
LATTICE_OPS = ("tensor", "cotensor", "crisp_meet", "crisp_join", "top", "bottom",
               "weighted_meet", "weighted_join")
PHASES = ("setup", "solve", "check")


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _public_functions(module) -> list[str]:
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")]


def _changed_vertices(trace) -> int:
    its = trace.iterations
    return sum(1 for a, b in zip(its, its[1:]) for v in a.cochain if a.cochain[v] != b.cochain[v])


class Tracer:
    def __init__(self):
        self._phases = {p: (defaultdict(int), defaultdict(float)) for p in PHASES}
        self.calls, self.self_s = self._phases["setup"]
        self.request = None
        self.depth = defaultdict(int)  # layer -> open frames, for layers that nest counts
        self.stack = [0.0]             # child time of each open frame; [0] is a sentinel
        self.span_stack = []
        self.spans = []
        self.phase = "setup"
        self._patches = []

    def set_phase(self, phase):
        self.phase = phase
        self.calls, self.self_s = self._phases[phase]

    # -- wrappers -----------------------------------------------------------
    def counted(self, fn, counter, on_call=None):
        tr = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                tr.calls[counter] += 1
            if on_call is not None:
                on_call(tr, args)
            return fn(*args, **kwargs)

        return wrapper

    def micro(self, fn, layer, counter=None, on_call=None):
        """`layer` is a name or a function of the call's arguments giving
        one; `counter` defaults to "<layer>.ops"."""
        tr = self
        stack = self.stack
        depth = self.depth
        perf = time.perf_counter
        pick = layer if callable(layer) else (lambda args: layer)

        def wrapper(*args, **kwargs):
            name = pick(args)
            tr.calls[counter or name + ".ops"] += 1
            if on_call is not None:
                on_call(tr, args)
            depth[name] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                depth[name] -= 1
                tr.self_s[name] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def coarse(self, fn, layer, span, counter=None, on_call=None, on_return=None):
        tr = self
        stack = self.stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                tr.calls[counter] += 1
            if on_call is not None:
                on_call(tr, args)
            rec = [span, 0.0, 0.0, tr.span_stack[-1] if tr.span_stack else None,
                   tr.request, tr.phase]
            tr.span_stack.append(len(tr.spans))
            tr.spans.append(rec)
            tr.depth[layer] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                tr.depth[layer] -= 1
                tr.self_s[layer] += dt - stack.pop()
                stack[-1] += dt
                rec[1], rec[2] = t0, t1
                tr.span_stack.pop()
            if on_return is not None:
                on_return(tr, args, result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------
    def _patch_method(self, cls, name, make):
        if name in cls.__dict__:
            original = cls.__dict__[name]
            setattr(cls, name, make(original))
            self._patches.append((cls, name, original))

    def _patch_function(self, module, name, make):
        """Replace module.name and every other binding to the same function."""
        original = getattr(module, name)
        wrapper = make(original)
        holders = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").startswith("sheafflow")]
        for m in holders:
            for attr, val in list(vars(m).items()):
                if val is original:
                    setattr(m, attr, wrapper)
                    self._patches.append((m, attr, original))

    def install(self):
        """Wrap every traced entry point (a no-op when already installed)."""
        if self._patches:
            return
        method, fn = self._patch_method, self._patch_function

        for cls in _subclasses(quantale.Quantale):
            for op in QUANTALE_OPS:
                method(cls, op, lambda f, op=op: self.micro(f, "quantale", f"quantale.{op}.calls"))
        for cls in _subclasses(qcat.QCategory):
            for op in QCAT_OPS:
                method(cls, op, lambda f, op=op: self.micro(
                    f, "qcat", f"qcat.{op}.calls",
                    on_call=_count_enum_hom if op == "hom" else None))
        method(qcat.QFunctor, "__call__", lambda f: self.micro(f, "qcat", "qcat.functor.calls"))
        for cls in _subclasses(wlattice.WeightedLattice):
            for op in LATTICE_OPS:
                method(cls, op, lambda f: self.micro(f, _lattice_layer))

        method(sheaf.NetworkSheaf, "__init__", lambda f: self.coarse(
            f, "sheaf.construct", "sheaf.NetworkSheaf"))
        method(sheaf.NetworkSheaf, "check_cochain", lambda f: self.counted(
            f, "sheaf.check_cochain.calls"))
        method(sheaf.Graph, "neighbors", lambda f: self.counted(f, "sheaf.neighbors.calls"))
        method(sheaf.Weighting, "__init__", lambda f: self.counted(f, "sheaf.weighting.builds"))
        fn(sheaf, "adjunction_defect_on", lambda f: self.counted(f, None, on_call=_count_pairs))
        fn(sheaf, "laplacian", lambda f: self.coarse(
            f, "sheaf.laplacian", "sheaf.laplacian", "sheaf.laplacian.calls",
            on_call=_count_paths_laplacian))
        fn(sheaf, "flow_step", lambda f: self.micro(
            f, "sheaf.flow", "sheaf.flow.iterations", on_call=_count_vertex_updates))
        fn(sheaf, "harmonic_flow", lambda f: self.coarse(
            f, "sheaf.flow", "sheaf.harmonic_flow", on_return=_count_flow_changes))
        fn(sheaf, "global_sections", lambda f: self.coarse(
            f, "sheaf.sections", "sheaf.global_sections"))
        fn(sheaf, "is_fuzzy_global_section", lambda f: self.micro(
            f, "sheaf.sections", "sheaf.section_checks"))

        fn(paths, "shortest_paths", lambda f: self.coarse(
            f, "apps.paths", "apps.paths.shortest_paths", "apps.paths.queries",
            on_return=_count_extractions))
        fn(des, "des_sheaf", lambda f: self.coarse(f, "apps.des", "apps.des.des_sheaf"))
        for name in ("maxplus_apply", "minplus_transpose_apply"):
            fn(des, name, lambda f: self.micro(f, "apps.des", "apps.des.transport.calls"))
        fn(prefs, "compose_closure", lambda f: self.micro(
            f, "apps.prefs", "apps.prefs.closure.calls"))
        fn(prefs, "check_relation", lambda f: self.micro(
            f, "apps.prefs", "apps.prefs.check_relation.calls"))
        fn(prefs, "bounded_confidence_weighting", self._confidence)

        fn(fileio, "load_input", lambda f: self.coarse(f, "fileio.load", "fileio.load_input"))
        fn(cli, "main", lambda f: self.coarse(f, "cli", "cli.main"))
        for name in _public_functions(gen):
            fn(gen, name, lambda f, name=name: self.coarse(f, "gen", f"gen.{name}"))
        for name in _public_functions(oracle):
            fn(oracle, name, lambda f, name=name: self.coarse(f, "oracle", f"oracle.{name}"))

    def _confidence(self, factory):
        """The bounded-confidence schedule is a closure; wrap each one returned."""
        def wrapper(*args, **kwargs):
            return self.micro(factory(*args, **kwargs), "apps.prefs", "apps.prefs.schedule.calls")
        return wrapper

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- results ------------------------------------------------------------
    def count(self, phase, name) -> int:
        return self._phases[phase][0].get(name, 0)

    def total(self, phase, prefix) -> int:
        return sum(v for k, v in self._phases[phase][0].items() if k.startswith(prefix))

    def seconds(self, phase, layer) -> float:
        return self._phases[phase][1].get(layer, 0.0)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, request, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "phase": phase}) + "\n")


def _lattice_layer(args) -> str:
    return "wlattice.enum" if isinstance(args[0], wlattice.EnumerableLattice) else "wlattice.analytic"


def _count_enum_hom(tr, args):
    if tr.depth["wlattice.enum"]:
        tr.calls["wlattice.enum.homs"] += 1


def _count_paths_laplacian(tr, args):
    if tr.depth["apps.paths"]:
        tr.calls["apps.paths.laplacians"] += 1


def _count_pairs(tr, args):
    xs, ys = args[5], args[6]
    tr.calls["sheaf.level.pairs"] += len(xs) * len(ys)


def _count_vertex_updates(tr, args):
    tr.calls["sheaf.vertex_updates"] += len(args[0].graph.vertices)


def _count_flow_changes(tr, args, trace):
    tr.calls["sheaf.changed_vertices"] += _changed_vertices(trace)


def _count_extractions(tr, args, result):
    tr.calls["apps.paths.extractions"] += result.extractions
    if result.mode != "synchronous":  # synchronous traces come from harmonic_flow
        tr.calls["sheaf.changed_vertices"] += _changed_vertices(result.trace)
