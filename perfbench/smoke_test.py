"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with

    python3 -m pytest -q perfbench/smoke_test.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a full-size run would make
enough requests for a tail at p90 or above, that a traced run prints every
per-layer metric, that two traced runs with one seed give exactly the same
counts and output digest, and that the command fails without printing a
result when the library sources are absent.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=3, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"]
    assert out["correct"] == (out["failed"] == 0)
    return out, lines[:-1]


def digest(lines):
    return next(line.split()[1] for line in lines if line.startswith("output_digest "))


def check_names(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload):
    plain, lines = result(run(workload, 0))
    check_names(plain["metrics"], SPEC["end_to_end"])
    assert all(plain["metrics"][m]["value"] > 0 for m in plain["metrics"])
    for prefix in ("setup_s ", "solve_s_p50 ", "solve_s_tail ", "solves_per_s ",
                   "peak_rss_mb ", "error_rate ", "output_digest sha256:"):
        assert any(line.startswith(prefix) for line in lines), prefix
    tail_line = next(line for line in lines if line.startswith("solve_s_tail "))
    assert "(p" in tail_line

    first, first_lines = result(run(workload, 1))
    second, second_lines = result(run(workload, 1))
    check_names(first["metrics"], SPEC["per_layer"])
    counts = lambda out: {k: v["value"] for k, v in out["metrics"].items() if v["unit"] != "s"}
    assert counts(first) == counts(second)
    assert digest(first_lines) == digest(second_lines) == digest(lines)
    assert any(line.startswith("tracing overhead ") for line in first_lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_tail_is_p90(workload):
    """At full size and the benchmark's run_seconds the request count is at
    least 100, so the tail (ten samples beyond it) is p90 or above."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            wl = workloads.make(workload, tmp)
            pool = wl.generate(1, "full")
    finally:
        del sys.path[:2]
    requests = len(pool) * wl.passes(SPEC["run_seconds"], "full", len(pool))
    assert 100.0 * (requests - 10) / requests >= 90


def test_fails_without_sources():
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=tmp)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
