"""Self-test of the benchmark harness on tiny (d <= 40) instances.

    python3 -m pytest -q perfbench/selftest.py
"""

import importlib
import json
import shutil
import subprocess
import sys

import run  # first: pins BLAS threads and puts src/ on the path

import numpy as np
import pytest

import harness
import qnpe
from tracing import PATCHES, Tracer
from workloads import WORKLOADS

TINY = {name: w.tiny() for name, w in WORKLOADS.items()}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _solve(workload, problem):
    z0 = workload.initial_point(problem, 0, 0)
    z, _, trace = qnpe.solve(problem, workload.solver_config(), z0=z0)
    return z, qnpe.trace_to_csv(trace)


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrappers_are_transparent_and_restored(name):
    workload = TINY[name]
    problem = workload.build(0, 0)
    originals = [getattr(importlib.import_module(f"qnpe.{m}"), a) for m, a, _, _ in PATCHES]
    original_eval = problem.eval
    global_rng = np.random.get_state()[1].copy()

    z_plain, csv_plain = _solve(workload, problem)
    tracer = Tracer()
    with tracer.installed(problem):
        z_traced, csv_traced = _solve(workload, problem)

    assert np.array_equal(z_plain, z_traced)
    assert csv_plain == csv_traced
    assert {s.name for s in tracer.spans} >= {"problems.eval", "line_search", "linear_solver"}
    restored = [getattr(importlib.import_module(f"qnpe.{m}"), a) for m, a, _, _ in PATCHES]
    assert all(a is b for a, b in zip(originals, restored))
    assert problem.eval is original_eval
    assert np.array_equal(np.random.get_state()[1], global_rng)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_result_line_matches_benchmark_json(name, trace):
    result = run.run(TINY[name], seed=3, seconds=0.2, trace=trace)
    assert result["failed"] == 0, result["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [m["unit"] for m in result["metrics"].values()] == [m["unit"] for m in declared]
    report_only = set(result["report"]) - set(result["metrics"])
    if trace:
        assert report_only == {"spectral.max_svec_s", "certificates.gap_s"}
    else:
        gap = {"avg_gap"} if name == "minimax-monotone" else set()
        assert report_only == set(harness.REPORT_ONLY) - {"avg_gap"} | gap


def test_benchmark_json_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tampered_trace_is_a_failed_operation(name):
    bench = harness.set_up(TINY[name], seed=0)
    inst = bench.instances[0]
    bench.operation(inst)

    def shrink_eta(trace):
        trace.rows[len(trace.rows) // 2].eta *= 1e-3

    bench.operation(inst, tamper=shrink_eta)
    assert bench.attempted == 2
    assert len(bench.failures) == 1
    assert "step-size-floor" in bench.failures[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
