"""The benchmark's tracer against the solver: perfbench/tracing.py rebuilds
per-layer counts by wrapping module attributes, and checks them against the
trace's totals.  None of the benchmark's workloads reaches Lanczos, so these
runs, which do, keep its oracle-matvec identity exercised."""

import conftest  # noqa: F401  first: pins BLAS to one thread before numpy loads

import importlib.util
import sys
from pathlib import Path

import pytest

from qnpe import Mode, SolverConfig, make_quadratic_min, solve
from test_golden import ITERATIONS, PROBLEMS, QNPE_CASES, _z0

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its slotted dataclass looks its module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _case(name):
    if name == "quadratic_rho2":  # Symmetric: ext_evec alone, one matvec per step
        return make_quadratic_min(30, 0.1, 1.0, seed=4), SolverConfig(Mode.STRONGLY_MONOTONE, rho=2)
    family, mode, kwargs = QNPE_CASES[name]
    return PROBLEMS[family](), SolverConfig(mode=mode, **{"max_iterations": ITERATIONS, **kwargs})


@pytest.mark.parametrize("name", ["sparse_d100_rho", "bilinear_monotone_rho", "quadratic_rho2"])
def test_tracer_count_identities_hold_on_case_ii_runs(name):
    problem, config = _case(name)
    tracer = tracing.Tracer()
    with tracer.installed(problem):
        _, _, trace = solve(problem, config, z0=_z0(problem))
    metrics, broken = tracing.layer_metrics(tracer.spans, 0, trace)
    assert broken == []
    assert metrics["spectral.oracle_matvecs"] > 0
    assert metrics["separation.case2_ratio"] > 0
