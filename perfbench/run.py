#!/usr/bin/env python3
"""Run one sheafflow benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload des-sync --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; each is a closed loop with one
client in one process and one thread.  Before set-up, and again every
REPIN_S seconds of the timed phase, the process pins itself to the CPU
that runs a probe loop fastest (see ``CpuPicker``).  The run has three
phases:

1. set-up: a fresh import of the library and the workloads, seeded
   generation of the request pool and one warm-up request.  It runs once
   before the timed phase and SETUP_REPS - 1 more times spread evenly
   through it, each in a fresh copy of the library that is thrown away
   afterwards; ``setup_s`` is the median repetition.  Spreading the
   repetitions over the run exposes them to the same drift in machine
   speed as the solves, instead of to one moment of it.
2. timed phase: a fixed number of whole passes over the pool, in order,
   set by ``--seconds`` and the workload's nominal rate (see
   ``workloads.py``), so the request count and the tail percentile are the
   same on every commit.  Each request is timed alone; the set-up
   repetitions between requests count in no solve figure.  A pass starts
   only while less than GUARD times ``--seconds`` has gone by, so a much
   slower commit still ends in time; the output then shows fewer requests.
3. checks, untimed: every pool item's output is compared with an
   independent reference, and every repeat of a request must reproduce the
   item's first output.  A request that raised, failed its check or did not
   reproduce counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run makes one untraced and
one traced pass over the pool, both in order (``--seconds`` does not
apply, so counts repeat exactly for a seed), and reports the per-layer
metrics of the traced pass (see ``tracer.py`` and ``layers.json``); the
spans are written to ``.perfbench_out/`` at exit.  Human-readable lines
before the JSON give the tail percentile, the error rate with the failing
instances, and a digest of all outputs.

``--size small`` shrinks every pool for the smoke test.  The exit status is
0 when the run completed (failures are reported, not raised) and 2 when the
library sources are missing.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 5
GUARD = 4
REPIN_S = 1.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s_p50": "s", "solve_s_tail": "s",
                    "solves_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full")
    return p.parse_args(argv)


def canonical(x):
    """JSON-safe, order-independent form of an output, for the digest."""
    if isinstance(x, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((canonical(v) for v in x), key=repr)
    if isinstance(x, float):
        return repr(x)
    return x


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    That is the 11th slowest sample, at percentile 100 * (n - 10) / n.  With
    ten samples or fewer no such percentile exists; the maximum (p100) is
    reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Outcomes:
    """First output per pool item, and which requests failed."""

    def __init__(self, pool):
        self.pool = pool
        self.first = {}
        self.errors = {}       # item index -> exception text
        self.mismatch = set()  # items whose repeat differed from the first output
        self.per_item = [0] * len(pool)

    def record(self, k, out, err):
        self.per_item[k] += 1
        if err is not None:
            self.errors.setdefault(k, err)
        elif k not in self.first:
            self.first[k] = out
        elif out != self.first[k]:
            self.mismatch.add(k)

    def check(self, wl) -> dict[int, list[str]]:
        fails = {}
        for k in range(len(self.pool)):
            reasons = []
            if k in self.errors:
                reasons.append(f"raised {self.errors[k]}")
            if k in self.mismatch:
                reasons.append("a repeated request gave a different output")
            if k in self.first:
                reasons += wl.check(self.pool[k], self.first[k])
            if reasons:
                fails[k] = reasons
        return fails

    def digest(self) -> str:
        h = hashlib.sha256()
        for k, item in enumerate(self.pool):
            body = canonical(self.first.get(k, {"error": self.errors.get(k)}))
            h.update(json.dumps([item["id"], body]).encode())
        return h.hexdigest()


def solve_timed(solve, item):
    t0 = time.perf_counter()
    try:
        out, err = solve(item), None
    except Exception as exc:  # a failing request is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def _ours(module_name: str) -> bool:
    return module_name == "workloads" or module_name.split(".")[0] == "sheafflow"


def setup_once(args, workdir):
    """One set-up repetition: a fresh import of the library and the
    workloads, seeded generation of the pool and one warm-up request.
    Returns the workload, the pool and the time taken."""
    for name in [m for m in sys.modules if _ours(m)]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    wl = importlib.import_module("workloads").make(args.workload, workdir)
    pool = wl.generate(args.seed, args.size)
    wl.solve(pool[0])
    return wl, pool, time.perf_counter() - t0


def setup_again(args, workdir) -> float:
    """A set-up repetition whose library copy is discarded afterwards, so
    the timed phase goes on with its own modules; returns its time."""
    kept = {name: mod for name, mod in sys.modules.items() if _ours(name)}
    try:
        return setup_once(args, workdir)[2]
    finally:
        for name in [m for m in sys.modules if _ours(m)]:
            del sys.modules[name]
        sys.modules.update(kept)
        gc.collect()


def timed_loop(wl, pool, passes, seconds, setup_rep, cpus):
    """`passes` whole passes over the pool, so every pool item weighs the
    same; no pass starts after GUARD * `seconds`.  After every
    1/SETUP_REPS-th of the requests `setup_rep()` runs once more, and
    every REPIN_S seconds `cpus` picks the fastest CPU again; both are kept
    out of the solve figures.  Returns the outcomes, the request times,
    the elapsed solve time and the set-up repetition times."""
    outcomes = Outcomes(pool)
    times = []
    setups = []
    total = passes * len(pool)
    marks = {total * i // SETUP_REPS for i in range(1, SETUP_REPS)}
    gc.collect()
    start = repin_at = time.perf_counter()
    for p in range(passes):
        if p and time.perf_counter() - start >= GUARD * seconds:
            break
        for k, item in enumerate(pool):
            out, err, dt = solve_timed(wl.solve, item)
            times.append(dt)
            outcomes.record(k, out, err)
            t0 = time.perf_counter()
            if len(times) in marks:
                setups.append(setup_rep())
            if t0 - repin_at >= REPIN_S:
                cpus.pick()
                repin_at = t0
            start += time.perf_counter() - t0
    return outcomes, times, time.perf_counter() - start, setups


def report(lines, fails, outcomes):
    failed = sum(outcomes.per_item[k] for k in fails)
    attempted = sum(outcomes.per_item)
    lines.append(f"error_rate {failed / attempted:.6f} ratio "
                 f"({failed} of {attempted} requests failed, {len(fails)} failing instances)")
    for k in sorted(fails):
        for reason in fails[k]:
            lines.append(f"failing instance {outcomes.pool[k]['id']}: {reason}")
    lines.append(f"output_digest sha256:{outcomes.digest()} ({len(outcomes.pool)} pool items)")
    return attempted, failed


def run_plain(args, workdir, cpus):
    wl, pool, first_setup = setup_once(args, workdir)
    passes = wl.passes(args.seconds, args.size, len(pool))
    again = os.path.join(workdir, "setup")
    outcomes, times, elapsed, setups = timed_loop(
        wl, pool, passes, args.seconds, lambda: setup_again(args, again), cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    fails = outcomes.check(wl)
    pct, tail_s = tail(times)
    setups.append(first_setup)
    metrics = {
        "setup_s": statistics.median(setups),
        "solve_s_p50": statistics.median(times),
        "solve_s_tail": tail_s,
        "solves_per_s": len(times) / elapsed,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [f"setup_s {metrics['setup_s']:.6f} s (median of {len(setups)} repetitions of import, "
             f"generation and warm-up, spread through the run)",
             f"solve_s_p50 {metrics['solve_s_p50']:.6f} s (median of {len(times)} solves)",
             f"solve_s_tail {tail_s:.6f} s (p{pct:.2f}, the "
             f"{'11th slowest' if len(times) > 10 else 'slowest'} of {len(times)} solves)",
             f"solves_per_s {metrics['solves_per_s']:.6f} 1/s ({len(times)} solves in {elapsed:.3f} s, "
             f"{len(times) // len(pool)} of {passes} passes over {len(pool)} pool items)",
             f"peak_rss_mb {metrics['peak_rss_mb']:.3f} MB"]
    attempted, failed = report(lines, fails, outcomes)
    return lines, attempted, failed, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(args, workdir, workloads):
    import tracer as tracing  # binds to the library that `workloads` loaded

    wl = workloads.make(args.workload, workdir)
    tr = tracing.Tracer()
    tr.install()
    pool = wl.generate(args.seed, args.size)
    wl.solve(pool[0])
    tr.uninstall()

    untraced = [solve_timed(wl.solve, item)[2] for item in pool]

    tr.install()
    tr.set_phase("solve")
    root = tr.coarse(wl.solve, "bench", "request")
    outcomes = Outcomes(pool)
    traced = []
    for k, item in enumerate(pool):
        tr.request = item["id"]
        out, err, dt = solve_timed(root, item)
        traced.append(dt)
        outcomes.record(k, out, err)
    tr.request = None
    tr.set_phase("check")
    fails = outcomes.check(wl)
    tr.uninstall()

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write_spans(spans_path)

    metrics = layer_metrics(tr, len(pool))
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    lines = [f"{name} {value} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"tracing overhead {overhead:.6f} s = traced solve_s_p50 "
                 f"{statistics.median(traced):.6f} s - untraced {statistics.median(untraced):.6f} s")
    lines.append(f"spans: {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")
    attempted, failed = report(lines, fails, outcomes)
    return lines, attempted, failed, metrics


def layer_metrics(tr, requests: int) -> dict:
    """Per-layer figures of the traced pass; counts are totals over the pass."""
    c = lambda name: tr.count("solve", name)
    s = lambda layer: tr.seconds("solve", layer)
    ratio = lambda a, b: a / b if b else 0.0
    enum_ops = c("wlattice.enum.ops")
    updates = c("sheaf.vertex_updates")
    return {
        "quantale.ops": (tr.total("solve", "quantale."), "count"),
        "quantale.hom.calls": (c("quantale.hom.calls"), "count"),
        "quantale.require.calls": (c("quantale.require.calls"), "count"),
        "quantale.self_s": (s("quantale"), "s"),
        "qcat.hom.calls": (c("qcat.hom.calls"), "count"),
        "qcat.functor.calls": (c("qcat.functor.calls"), "count"),
        "qcat.self_s": (s("qcat"), "s"),
        "wlattice.enum.ops": (enum_ops, "count"),
        "wlattice.enum.homs_per_op": (ratio(c("wlattice.enum.homs"), enum_ops), "ratio"),
        "wlattice.enum.self_s": (s("wlattice.enum"), "s"),
        "wlattice.analytic.ops": (c("wlattice.analytic.ops"), "count"),
        "wlattice.analytic.self_s": (s("wlattice.analytic"), "s"),
        "sheaf.construct.self_s": (s("sheaf.construct"), "s"),
        "sheaf.level.pairs": (c("sheaf.level.pairs"), "count"),
        "sheaf.laplacian.calls": (c("sheaf.laplacian.calls"), "count"),
        "sheaf.laplacian.self_s": (s("sheaf.laplacian"), "s"),
        "sheaf.neighbors.calls": (c("sheaf.neighbors.calls"), "count"),
        "sheaf.check_cochain.calls": (c("sheaf.check_cochain.calls"), "count"),
        "sheaf.flow.iterations": (c("sheaf.flow.iterations"), "count"),
        "sheaf.flow.self_s": (s("sheaf.flow"), "s"),
        "sheaf.vertex_updates": (updates, "count"),
        "sheaf.useful_update_ratio": (ratio(c("sheaf.changed_vertices"), updates), "ratio"),
        "sheaf.weighting.builds": (c("sheaf.weighting.builds"), "count"),
        "sheaf.sections.self_s": (s("sheaf.sections"), "s"),
        "apps.paths.extractions": (c("apps.paths.extractions"), "count"),
        "apps.paths.laplacians_per_query": (
            ratio(c("apps.paths.laplacians"), c("apps.paths.queries")), "ratio"),
        "apps.paths.self_s": (s("apps.paths"), "s"),
        "apps.des.transport.calls": (c("apps.des.transport.calls"), "count"),
        "apps.des.self_s": (s("apps.des"), "s"),
        "apps.prefs.closure.calls": (c("apps.prefs.closure.calls"), "count"),
        "apps.prefs.check_relation.calls": (c("apps.prefs.check_relation.calls"), "count"),
        "apps.prefs.self_s": (s("apps.prefs"), "s"),
        "fileio.load.self_s": (s("fileio.load"), "s"),
        "cli.self_s": (s("cli"), "s"),
        "gen.self_s": (tr.seconds("setup", "gen"), "s"),
        "oracle.self_s": (tr.seconds("check", "oracle"), "s"),
        "trace.requests": (requests, "count"),
    }


class CpuPicker:
    """Keeps the process pinned to the allowed CPU that runs a fixed probe
    loop fastest.

    On a shared VM the speed of each vCPU drifts by a third and more over
    tens of seconds (its host core is busy), and the two vCPUs drift
    largely apart; the scheduler also moves a busy thread between them now
    and then, so unpinned runs give two clusters of timings.  ``pick()``
    probes every allowed CPU and pins to the fastest; the timed phase
    calls it again every REPIN_S seconds, outside any timed request.
    Where affinity cannot be set it does nothing and ``cpu`` stays None.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.cpu = None
        self.moves = 0

    @staticmethod
    def _probe() -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        return time.perf_counter() - t0

    def pick(self, probes: int = 2):
        if not self.cpus:
            return
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(self._probe() for _ in range(probes))
        best = min(speed, key=speed.get)
        os.sched_setaffinity(0, {best})
        self.moves += self.cpu is not None and best != self.cpu
        self.cpu = best


def main(argv=None) -> int:
    if not (ROOT / "src" / "sheafflow" / "__init__.py").is_file():
        print(f"perfbench: no sheafflow package under {ROOT / 'src'}; nothing to run",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # the first, cold import stays out of setup_s
    args = parse_args(argv, list(workloads.WORKLOADS))
    cpus = CpuPicker()
    cpus.pick(probes=5)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            lines, attempted, failed, metrics = run_traced(args, str(workdir), workloads)
        else:
            lines, attempted, failed, metrics = run_plain(args, str(workdir), cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size} cpu {cpus.cpu} "
          f"(moved {cpus.moves} times)")
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
