"""The benchmark tracer still finds the library names it wraps.

perfbench/tracer.py patches library functions and methods by name.  When a
refactor unbinds one of them, the traced run silently reports a zero.  This
installs the tracer, runs one tiny DES flow, one `global_sections` call and
short flows on `sheaf_bool_edge.json` with its closed-form stalks and with
searched ones, and checks that each count read from a patched name moved;
the lattice ops of each lattice kind and the functor calls must move during
the flows themselves, and the max-plus kernels during the DES flow, which
its transports reach through `qcat.transport`.  Level pairs move when the
enumerable stalks of `sheaf_bool_edge.json` are scanned, and not when a DES
sheaf, whose levels are read off its transport kinds, is built.
"""
import os
import sys
from contextlib import contextmanager

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer as tracer_module
    finally:
        sys.path.remove(PERFBENCH)
    tr = tracer_module.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


@contextmanager
def _moves(tracer, *counters):
    before = {c: tracer.count("setup", c) for c in counters}
    yield
    for c in counters:
        assert tracer.count("setup", c) > before[c], c


def test_tracer_counts_through_library_bindings(tracer, fixture_path):
    from sheafflow import fileio, sheaf, wlattice
    from sheafflow.apps import des

    g = sheaf.Graph.build(["a", "b"], [("a", "b")])
    system = des.DesSystem(m=2, delays={"a": ((1.0, 3.0), (2.0, 1.0)),
                                        "b": ((0.0, 2.0), (1.0, 0.0))}, graph=g)
    pairs = tracer.count("setup", "sheaf.level.pairs")
    F, W = des.des_sheaf(system)
    assert tracer.count("setup", "sheaf.level.pairs") == pairs
    with _moves(tracer, "wlattice.analytic.ops", "qcat.functor.calls", "apps.des.transport.calls"):
        sheaf.harmonic_flow(F, W, {"a": (9.0, 7.0), "b": (8.0, 8.0)}, max_iter=5)
    with _moves(tracer, "sheaf.level.pairs"):
        _kind, (F2, W2, _initial) = fileio.load_input(fixture_path("sheaf_bool_edge.json"))
    sections, _cat = sheaf.global_sections(F2, W2)
    assert sections
    with _moves(tracer, "wlattice.analytic.ops", "qcat.functor.calls"):
        sheaf.harmonic_flow(F2, W2, sections[0], max_iter=3)
    searched = wlattice.EnumerableLattice(F2.vertex_lattices["u"].category)
    F3 = sheaf.NetworkSheaf(F2.graph, F2.quantale, dict.fromkeys(F2.graph.vertices, searched),
                            dict.fromkeys(F2.graph.edges, searched),
                            F2.restrictions, F2.corestrictions)
    with _moves(tracer, "wlattice.enum.ops", "qcat.functor.calls"):
        sheaf.harmonic_flow(F3, W2, sections[0], max_iter=3)
    for counter in ("sheaf.neighbors.calls", "sheaf.check_cochain.calls",
                    "sheaf.weighting.builds"):
        assert tracer.count("setup", counter) > 0, counter
