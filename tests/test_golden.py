"""Golden traces: fixed-seed runs whose trace CSVs must stay byte-identical.

Each case is regenerated and its CSV compared, byte for byte, with the file in
tests/golden/.  tests/golden/totals.csv pins what the CSV does not carry: the
end-of-run totals, digests of the final and averaged iterates, and the number
of Case II separation-oracle results.  A change that is meant to alter
behaviour regenerates the fixtures with

    PYTHONPATH=src python3 tests/test_golden.py --regenerate

which prints a line per fixture before it rewrites it: the first difference
and the largest ULP distance against the old file, and any integer column (an
iteration count, flag, trial or cost counter) whose values moved.  CHANGES.md
records the regeneration and quotes that report.  Floating-point results
depend on the numpy/BLAS build and on its thread count, so the fixtures belong
to the environment that wrote them, and they are written and checked with BLAS
pinned to one thread (tests/conftest.py).  A mismatch names the first
differing line and column and the largest distance in units in the last place
(ULPs) over the float fields.
"""

import conftest  # noqa: F401  first: pins BLAS to one thread before numpy loads

import functools
import hashlib
import math
import struct
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import qnpe.learner
from qnpe import (
    Mode,
    Problem,
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
    verify_iteration_certificates,
)

GOLDEN = Path(__file__).parent / "golden"
ITERATIONS = 120
C09 = {"alpha2": 0.45, "beta": 0.9, "rho": 0.5}  # criterion-09 preset

PROBLEMS = {
    "quadratic": lambda: make_quadratic_min(30, 0.1, 1.0, seed=4),
    "logsumexp": lambda: make_logsumexp_min(20, 200, mu=0.05, smoothing=0.5, seed=3),
    "sparse": lambda: make_sparse_equation(40, 3, 0.1, 1.5, seed=9),
    "bilinear": lambda: make_bilinear_minimax(15, 15, 0.0, 1.0, seed=5),
    "sparse100": lambda: make_sparse_equation(100, 3, 0.1, 1.5, seed=9),
    "quadratic100": lambda: make_quadratic_min(100, 0.1, 1.0, seed=4),
}
EG_FAMILIES = ["quadratic", "logsumexp", "sparse", "bilinear"]

# case -> (problem, mode, extra SolverConfig keyword arguments)
QNPE_CASES = {
    "quadratic_theory": ("quadratic", Mode.STRONGLY_MONOTONE, {}),
    "quadratic_c09": ("quadratic", Mode.STRONGLY_MONOTONE, C09),
    "logsumexp_c09": ("logsumexp", Mode.STRONGLY_MONOTONE, C09),
    "sparse_debug": ("sparse", Mode.STRONGLY_MONOTONE, {}),
    "bilinear_monotone": ("bilinear", Mode.MONOTONE, {}),
    "bilinear_monotone_rho": ("bilinear", Mode.MONOTONE, {"rho": 0.5}),
    # above d = 64, where learner_init used to skip every b0 check
    "sparse_d100": ("sparse100", Mode.STRONGLY_MONOTONE, {"max_iterations": 60}),
    "quadratic_d100": ("quadratic100", Mode.STRONGLY_MONOTONE, {"rho": 0.5, "max_iterations": 60}),
    # Sparse with Case II results: S from the fused-CSR oracle, projected on the pattern
    "sparse_d100_rho": ("sparse100", Mode.STRONGLY_MONOTONE, {"rho": 5, "max_iterations": 60}),
}
CASES = list(QNPE_CASES) + [f"eg_{family}" for family in EG_FAMILIES]

# the trace and totals columns that hold iteration counts, flags and cost counters
INT_COLUMNS = {"k", "backtracked", "trials", "cum_evals", "cum_matvecs",
               "iterations", "case_ii", "total_evals", "total_matvecs"}
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


def qnpe_case(name: str) -> tuple[Problem, SolverConfig]:
    """A qnpe case's problem and solver config."""
    family, mode, kwargs = QNPE_CASES[name]
    return PROBLEMS[family](), SolverConfig(mode=mode, **{"max_iterations": ITERATIONS, **kwargs})


@functools.lru_cache(maxsize=None)
def run_case(name: str) -> tuple[RunTrace, int]:
    """The case's trace and its number of Case II oracle results."""
    if name.startswith("eg_"):
        problem = PROBLEMS[name[3:]]()
        _, _, trace = extragradient_baseline(problem, 1.0 / problem.l1, ITERATIONS, z0=_z0(problem))
        return trace, 0
    problem, config = qnpe_case(name)
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


def _ordinal(x: float) -> int:
    """Position of x on the ordered line of doubles: neighbours differ by 1."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _finite_float(text: str) -> float | None:
    """The value of a finite float field; None for integers, flags and text."""
    if not any(c in text for c in ".eE"):
        return None
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def describe_mismatch(got: str, want: str) -> str:
    """The first differing line and column of two CSV texts, and the largest
    ULP distance over the fields where both sides are finite floats."""
    got_rows = [ln.split(",") for ln in got.splitlines()]
    want_rows = [ln.split(",") for ln in want.splitlines()]
    header = next((r for r in want_rows if not r[0].startswith("#")), [])
    first, worst, worst_at = None, 0, None
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows), start=1):
        for j, (g, w) in enumerate(zip(g_row, w_row)):
            if g == w:
                continue
            column = header[j] if j < len(header) else f"field {j}"
            where = f"line {i} ({w_row[0]}), column {column}"
            first = first or f"first difference at {where}: got {g}, golden {w}"
            g_num, w_num = _finite_float(g), _finite_float(w)
            if g_num is not None and w_num is not None:
                ulps = abs(_ordinal(g_num) - _ordinal(w_num))
                if ulps > worst:
                    worst, worst_at = ulps, where
        if len(g_row) != len(w_row):
            first = first or f"line {i} has {len(g_row)} fields, golden {len(w_row)}"
    if len(got_rows) != len(want_rows):
        first = first or f"{len(got_rows)} lines, golden {len(want_rows)}"
    largest = f"largest ULP distance {worst} at {worst_at}" if worst_at else "no float differs"
    return f"{first}; {largest}"


def moved_int_columns(got: str, want: str) -> list[str]:
    """The INT_COLUMNS of want's header whose values differ between the two
    CSV texts, including by a differing number of rows."""
    got_rows, want_rows = ([ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
                           for text in (got, want))
    header = want_rows[0] if want_rows else []
    return [name for j, name in enumerate(header) if name in INT_COLUMNS
            and [r[j:j + 1] for r in got_rows] != [r[j:j + 1] for r in want_rows]]


def regeneration_report(got: str, path: Path) -> str:
    """One line on how the regenerated text differs from the fixture at path."""
    if not path.exists():
        return f"{path.name}: new"
    want = path.read_text()
    if got == want:
        return f"{path.name}: unchanged"
    moved = ", ".join(moved_int_columns(got, want)) or "none"
    return f"{path.name}: {describe_mismatch(got, want)}; integer columns moved: {moved}"


def assert_matches_golden(got: str, path: Path) -> None:
    want = path.read_bytes()
    assert got.encode() == want, f"{path.name}: {describe_mismatch(got, want.decode())}"


@pytest.mark.parametrize("name", CASES)
def test_trace_matches_golden(name):
    trace, _ = run_case(name)
    assert_matches_golden(trace_to_csv(trace), GOLDEN / f"{name}.csv")


@pytest.mark.parametrize("name", QNPE_CASES)
def test_golden_trace_certifies(name):
    # every certificate holds on the golden run, the backtracking lower bound
    # on every case, and the averaged gap, on the default unit box, in monotone mode
    problem, config = qnpe_case(name)
    report = verify_iteration_certificates(run_case(name)[0], problem, config)
    assert report.all_passed, "\n".join(report.lines())
    names = {c.name for c in report.checks}
    assert "backtracking-lower-bound" in names
    assert ("averaged-gap-bound" in names) == (config.mode is Mode.MONOTONE)


def test_totals_match_golden():
    assert_matches_golden(totals_csv(), GOLDEN / "totals.csv")


def test_mismatch_names_line_column_and_ulps():
    want = "k,eta,flag\n0,1.0,a\n1,0.5,b\n"
    got = "k,eta,flag\n0,1.0,a\n1,0.5000000000000002,c\n"
    assert describe_mismatch(got, want) == (
        "first difference at line 3 (1), column eta: got 0.5000000000000002, golden 0.5; "
        "largest ULP distance 2 at line 3 (1), column eta"
    )
    assert describe_mismatch(want.replace("1,0.5,b", "2,0.5,b"), want) == (
        "first difference at line 3 (1), column k: got 2, golden 1; no float differs"
    )
    assert describe_mismatch(want + "2,0.25,c\n", want) == "4 lines, golden 3; no float differs"


def test_regeneration_report_names_moved_integer_columns(tmp_path):
    want = "k,eta,trials,cum_evals\n0,1.0,1,2\n1,0.5,2,4\n"
    assert moved_int_columns(want.replace("0.5,2,4", "0.5,3,5"), want) == ["trials", "cum_evals"]
    assert moved_int_columns(want + "2,0.25,1,5\n", want) == ["k", "trials", "cum_evals"]
    assert moved_int_columns(want.replace("0.5,", "0.5000000000000002,"), want) == []
    path = tmp_path / "case.csv"
    assert regeneration_report(want, path) == "case.csv: new"
    path.write_text(want)
    assert regeneration_report(want, path) == "case.csv: unchanged"
    assert regeneration_report(want.replace("1,0.5,2", "1,0.5,3"), path) == (
        "case.csv: first difference at line 3 (1), column trials: got 3, golden 2; "
        "no float differs; integer columns moved: trials"
    )


def test_fixtures_exercise_case_ii_on_both_structures():
    rows = [ln.split(",") for ln in (GOLDEN / "totals.csv").read_text().splitlines()[1:]]
    case_ii = {r[0]: int(r[2]) for r in rows}
    assert case_ii["quadratic_c09"] > 0  # Symmetric: ext_evec's S as returned
    assert case_ii["bilinear_monotone_rho"] > 0  # JSymmetric: S projected into the subspace
    assert case_ii["sparse_d100_rho"] > 0  # Sparse: S projected onto the pattern


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --regenerate")
    GOLDEN.mkdir(exist_ok=True)
    texts = {f"{case}.csv": trace_to_csv(run_case(case)[0]) for case in CASES}
    texts["totals.csv"] = totals_csv()
    for name, text in texts.items():
        print(regeneration_report(text, GOLDEN / name))
        (GOLDEN / name).write_text(text)
