"""Golden traces: fixed-seed runs whose trace CSVs must stay byte-identical.

Each case is regenerated and its CSV compared, byte for byte, with the file in
tests/golden/.  tests/golden/totals.csv pins what the CSV does not carry: the
end-of-run totals, digests of the final and averaged iterates, and the number
of Case II separation-oracle results.  A change that is meant to alter
behaviour regenerates the fixtures with

    PYTHONPATH=src python3 tests/test_golden.py --regenerate

and records the regeneration in CHANGES.md.  Floating-point results depend on
the numpy/BLAS build, so the fixtures belong to the environment that wrote
them.
"""

import functools
import hashlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import qnpe.learner
from qnpe import (
    Mode,
    RunTrace,
    SepCase,
    SolverConfig,
    extragradient_baseline,
    make_bilinear_minimax,
    make_logsumexp_min,
    make_quadratic_min,
    make_sparse_equation,
    solve,
    trace_to_csv,
)

GOLDEN = Path(__file__).parent / "golden"
ITERATIONS = 120
C09 = {"alpha2": 0.45, "beta": 0.9, "rho": 0.5}  # criterion-09 preset

PROBLEMS = {
    "quadratic": lambda: make_quadratic_min(30, 0.1, 1.0, seed=4),
    "logsumexp": lambda: make_logsumexp_min(20, 200, mu=0.05, smoothing=0.5, seed=3),
    "sparse": lambda: make_sparse_equation(40, 3, 0.1, 1.5, seed=9),
    "bilinear": lambda: make_bilinear_minimax(15, 15, 0.0, 1.0, seed=5),
}

# case -> (problem, mode, extra SolverConfig keyword arguments)
QNPE_CASES = {
    "quadratic_theory": ("quadratic", Mode.STRONGLY_MONOTONE, {}),
    "quadratic_c09": ("quadratic", Mode.STRONGLY_MONOTONE, C09),
    "logsumexp_c09": ("logsumexp", Mode.STRONGLY_MONOTONE, C09),
    "sparse_debug": ("sparse", Mode.STRONGLY_MONOTONE, {"debug_certificates": True}),
    "bilinear_monotone": ("bilinear", Mode.MONOTONE, {}),
    "bilinear_monotone_rho": ("bilinear", Mode.MONOTONE, {"rho": 0.5}),
}
CASES = list(QNPE_CASES) + [f"eg_{family}" for family in PROBLEMS]

TOTALS_HEADER = (
    "case,iterations,case_ii,final_norm_F,final_dist,eta_sum,"
    "total_evals,total_matvecs,z_final,z_bar"
)


def _z0(problem):
    return problem.known_root + np.random.default_rng(2024).standard_normal(problem.dim)


@contextmanager
def _count_case_ii():
    """Count the Case II results of the learner's separation oracle."""
    original = qnpe.learner.sep_feasible
    count = [0]

    def counting(*args, **kwargs):
        res = original(*args, **kwargs)
        count[0] += res.case is SepCase.CASE_II
        return res

    qnpe.learner.sep_feasible = counting
    try:
        yield count
    finally:
        qnpe.learner.sep_feasible = original


@functools.lru_cache(maxsize=None)
def run_case(name: str) -> tuple[RunTrace, int]:
    """The case's trace and its number of Case II oracle results."""
    if name.startswith("eg_"):
        problem = PROBLEMS[name[3:]]()
        _, _, trace = extragradient_baseline(problem, 1.0 / problem.l1, ITERATIONS, z0=_z0(problem))
        return trace, 0
    family, mode, kwargs = QNPE_CASES[name]
    problem = PROBLEMS[family]()
    config = SolverConfig(mode=mode, max_iterations=ITERATIONS, **kwargs)
    with _count_case_ii() as count:
        _, _, trace = solve(problem, config, z0=_z0(problem))
    return trace, count[0]


def _digest(a) -> str:
    return "none" if a is None else hashlib.sha256(a.tobytes()).hexdigest()[:16]


def totals_csv() -> str:
    lines = [TOTALS_HEADER]
    for name in CASES:
        t, case_ii = run_case(name)
        fields = [name, t.iterations, case_ii, repr(t.final_norm_F), repr(t.final_dist),
                  repr(t.eta_sum), t.total_evals, t.total_matvecs,
                  _digest(t.z_final), _digest(t.z_bar)]
        lines.append(",".join(str(f) for f in fields))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", CASES)
def test_trace_matches_golden(name):
    trace, _ = run_case(name)
    assert trace_to_csv(trace).encode() == (GOLDEN / f"{name}.csv").read_bytes()


def test_totals_match_golden():
    assert totals_csv().encode() == (GOLDEN / "totals.csv").read_bytes()


def test_fixtures_exercise_case_ii_on_both_structures():
    rows = [ln.split(",") for ln in (GOLDEN / "totals.csv").read_text().splitlines()[1:]]
    case_ii = {r[0]: int(r[2]) for r in rows}
    assert case_ii["quadratic_c09"] > 0  # Symmetric: ext_evec's S as returned
    assert case_ii["bilinear_monotone_rho"] > 0  # JSymmetric: S projected into the subspace


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --regenerate")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.csv").write_text(trace_to_csv(run_case(case)[0]))
    (GOLDEN / "totals.csv").write_text(totals_csv())
