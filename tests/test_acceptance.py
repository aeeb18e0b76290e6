"""Acceptance gate: twelve end-to-end guarantees, one test (and one printed
PASS/FAIL line) each.

Independent oracles throughout: dense eigen/singular decompositions classify
the randomized oracles, finite differences check gradients, and all residuals
and distances are recomputed outside the solver.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qnpe import (
    CglsStart,
    JSymmetric,
    KrylovBasis,
    Learner,
    Mode,
    PrimalDualBox,
    SepCase,
    SolverConfig,
    Sparse,
    Symmetric,
    evaluate_gap,
    ext_evec,
    extragradient_baseline,
    linear_solve,
    make_bilinear_minimax,
    make_logsumexp_min,
    make_quadratic_min,
    max_svec,
    observe_loss,
    solve,
)
from qnpe.learner import current_matrix

from dense import dense_w, loss_gradient, loss_value, played_matrix


def report(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# ---------------------------------------------------------------------------
# shared strongly monotone benchmark suite


def logsumexp_with_ratio(d, n_terms, smoothing, ratio, seed):
    """Pick mu so that mu / L1 hits the requested ratio (ratio 1 is approached
    by making the regularizer dominate)."""
    probe = make_logsumexp_min(d, n_terms, mu=1.0, smoothing=smoothing, seed=seed)
    c = probe.l1 - 1.0
    mu = 1000.0 * c if ratio >= 1.0 else ratio * c / (1.0 - ratio)
    return make_logsumexp_min(d, n_terms, mu=mu, smoothing=smoothing, seed=seed)


@pytest.fixture(scope="module")
def sm_suite():
    """(problem, config, trace) for every dimension / conditioning / seed."""
    runs = []
    config = SolverConfig(
        mode=Mode.STRONGLY_MONOTONE, max_iterations=200, stop_tolerance=1e-10
    )
    for d in (10, 50, 200):
        for ratio in (1.0, 0.1, 0.01):
            for seed in (0, 1, 2):
                for problem in (
                    make_quadratic_min(d, ratio, 1.0, seed=seed),
                    logsumexp_with_ratio(d, 2 * d, 1.0, ratio, seed),
                ):
                    rng = np.random.default_rng(1000 + seed)
                    z0 = problem.known_root + rng.standard_normal(d)
                    _, _, trace = solve(problem, config, z0=z0)
                    assert trace.iterations > 0
                    runs.append((problem, config, trace))
    return runs


@pytest.fixture(scope="module")
def monotone_run():
    problem = make_bilinear_minimax(10, 10, mu=0.0, l1=1.0, seed=0)
    rng = np.random.default_rng(1)
    z0 = 0.5 * rng.standard_normal(20)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=80, stop_tolerance=1e-12)
    z, z_bar, trace = solve(problem, config, z0=z0)
    return problem, config, trace, z_bar


def test_criterion_01_per_iteration_contraction(sm_suite):
    ok = True
    for problem, _, trace in sm_suite:
        dists = trace.dists()
        for i, row in enumerate(trace.rows):
            bound = dists[i] ** 2 / (1.0 + 2.0 * row.eta * problem.mu) * (1.0 + 1e-8)
            ok = ok and dists[i + 1] ** 2 <= bound
    report(1, "per-iteration linear contraction", ok)


def test_criterion_02_step_size_floor(sm_suite, monotone_run):
    ok = True
    for problem, config, trace in sm_suite:
        floor = config.alpha2 * config.beta / (7.5 * problem.l1)
        ok = ok and min(r.eta for r in trace.rows) >= floor - 1e-12
    problem, config, trace, _ = monotone_run
    floor = config.alpha2 * config.beta / (5.0 * problem.l1)
    ok = ok and min(r.eta for r in trace.rows) >= floor - 1e-12
    report(2, "step-size floor", ok)


def test_criterion_03_operator_eval_budget(sm_suite):
    ok = True
    for problem, config, trace in sm_suite:
        n = trace.iterations
        sigma0 = trace.meta["sigma0"]
        budget = 3 * n + math.log(7.5 * sigma0 * problem.l1 / config.alpha2) / math.log(
            1.0 / config.beta
        )
        ok = ok and trace.total_evals <= budget
    report(3, "operator-evaluation budget", ok)


def test_criterion_04_monotone_nonexpansion_and_gap(monotone_run):
    problem, _, trace, z_bar = monotone_run
    dists = trace.dists()
    ok = bool(np.all(np.diff(dists) <= 1e-10))
    box = PrimalDualBox(-np.ones(10), np.ones(10), -np.ones(10), np.ones(10))
    gap = evaluate_gap(problem, z_bar, box)
    lo, hi = -np.ones(20), np.ones(20)
    max_sq = float(np.maximum((trace.z0 - lo) ** 2, (trace.z0 - hi) ** 2).sum())
    bound = max_sq / (2.0 * trace.eta_sum) * (1.0 + 1e-6)
    ok = ok and 0.0 <= gap <= bound
    report(4, "monotone nonexpansion and gap decay", ok)


# ---------------------------------------------------------------------------
# learner feasibility (dense verification at small dimension)


def drive_learner(structure, d, mu, l1, seed, rounds=60):
    """Run the learner standalone against a fixed target Jacobian (Option I
    when mu > 0, Option II when mu = 0); returns the dense-classified oracle
    failure count and the list of played matrices."""
    rng = np.random.default_rng(seed)
    learner = Learner(structure, d, mu, l1, rng)
    if isinstance(structure, Symmetric):
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        target = (q * rng.uniform(mu, l1, size=d)) @ q.T
    elif isinstance(structure, JSymmetric):
        m = structure.m
        c = rng.standard_normal((m, d - m))
        c *= 0.8 * l1 / np.linalg.svd(c, compute_uv=False)[0]
        target = np.block([[np.zeros((m, m)), c], [-c.T, np.zeros((d - m, d - m))]])
    else:
        target = mu * np.eye(d)
        for (i, j) in structure.pattern:
            target[i, j] = rng.standard_normal()
        target *= 0.8 * l1 / np.linalg.norm(target, 2)
        target += mu * np.eye(d)
    failures = 0
    played = []
    for _ in range(rounds):
        s = rng.standard_normal(d)
        w_apply, _, c1, c0 = current_matrix(learner)
        observe_loss(learner, s, target @ s, c1 * w_apply(s) + c0 * s)
        sep, delta, w = learner.last_sep, learner.delta(learner.t), dense_w(learner)
        gamma_true = max(
            np.max(np.abs(np.linalg.eigvalsh(0.5 * (w + w.T)))),
            np.linalg.svd(w, compute_uv=False)[0] / 3.0,
        )
        if sep.case is SepCase.CASE_I:
            if gamma_true > 1.0 + delta:
                failures += 1
        elif gamma_true > sep.gamma * (1.0 + delta) * (1.0 + 1e-9):
            failures += 1
        played.append(played_matrix(learner))
    return failures, played


def test_criterion_05_learner_feasibility():
    mu, l1 = 0.3, 1.0
    fails_1, played_1 = drive_learner(Symmetric(), 20, mu, l1, 2)
    ok = fails_1 == 0
    for b in played_1:
        ok = ok and np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= mu / 2 - 1e-9
        ok = ok and np.linalg.norm(b, 2) <= 6.5 * l1 + 1e-9
    fails_2, played_2 = drive_learner(JSymmetric(15, 15), 30, 0.0, l1, 3)
    ok = ok and fails_2 == 0
    for b in played_2:
        ok = ok and np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= -1e-8 * l1
        ok = ok and np.linalg.norm(b, 2) <= 4.0 * l1 + 1e-9
    report(5, "learner feasibility (dense spectral verification)", ok)


def test_criterion_06_oracle_statistical_contracts():
    d, delta, q, n_calls = 30, 0.25, 0.1, 1000
    threshold = q + 3.0 * math.sqrt(q * (1 - q) / n_calls)
    rng = np.random.default_rng(42)

    fails_ext = 0
    for _ in range(n_calls):
        w = rng.standard_normal((d, d))
        w = 0.5 * (w + w.T)
        gamma_true = rng.uniform(0.5, 2.0)
        w *= gamma_true / np.max(np.abs(np.linalg.eigvalsh(w)))
        res = ext_evec(lambda v: w @ v, d, delta, q, rng, symmetric=True)
        if res.case is SepCase.CASE_I:
            if gamma_true > 1.0 + delta:
                fails_ext += 1
        elif gamma_true > res.gamma * (1.0 + delta) * (1.0 + 1e-9):
            fails_ext += 1

    fails_max = 0
    for _ in range(n_calls):
        w = rng.standard_normal((d, d))
        gamma_true = rng.uniform(0.5, 2.0)
        w *= 3.0 * gamma_true / np.linalg.svd(w, compute_uv=False)[0]
        res = max_svec(lambda x: np.concatenate([w @ x[d:], w.T @ x[:d]]), d, delta, q, rng)
        if res.case is SepCase.CASE_I:
            if gamma_true > 1.0 + delta:
                fails_max += 1
        elif gamma_true > res.gamma * (1.0 + delta) * (1.0 + 1e-9):
            fails_max += 1

    ok = fails_ext / n_calls <= threshold and fails_max / n_calls <= threshold
    report(6, "oracle statistical contracts", ok)


def start_on(a, b, symmetric):
    """The line search's start on a, for right-hand sides parallel to b."""
    if symmetric:
        return KrylovBasis(lambda v: a @ v, b)
    return CglsStart(lambda v: a @ v, lambda v: a.T @ v, b)


def test_criterion_07_linear_solver_contract():
    d = 40
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(500):
        r = rng.standard_normal((d, d))
        symmetric = trial % 2 == 0
        if symmetric:
            r = 0.5 * (r + r.T)
        lam_min = np.linalg.eigvalsh(0.5 * (r + r.T))[0]
        a = 0.5 * r + (1.0 + max(0.0, -0.5 * lam_min)) * np.eye(d)
        b = rng.standard_normal(d)
        rho = rng.uniform(0.05, 0.5)
        rep = linear_solve(start_on(a, b, symmetric), 0.0, 1.0, b, rho)
        ok = ok and rep.converged
        ok = ok and np.linalg.norm(a @ rep.solution - b) <= rho * np.linalg.norm(rep.solution)
        # iterate-norm monotonicity, recovering each Krylov iterate by rerun
        prev = 0.0
        for k in range(1, rep.iterations + 1):
            sk = linear_solve(
                start_on(a, b, symmetric), 0.0, 1.0, b, 1e-300, max_iters=k
            ).solution
            nrm = np.linalg.norm(sk)
            ok = ok and nrm >= prev * (1.0 - 1e-10)
            prev = nrm
    report(7, "inexact linear solver contract", ok)


def test_criterion_08_loss_gradient_correctness():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 8))
        b = rng.standard_normal((d, d))
        u = rng.standard_normal(d)
        s = rng.standard_normal(d)
        g = loss_gradient(b, s, u)
        h = 1e-6
        fd = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = h
                fd[i, j] = (loss_value(b + e, s, u) - loss_value(b - e, s, u)) / (2 * h)
        ok = ok and np.linalg.norm(fd - g) <= 1e-5 * max(1.0, np.linalg.norm(g))
        ok = ok and np.linalg.norm(g) <= 2.0 * math.sqrt(loss_value(b, s, u)) + 1e-10
    report(8, "loss-gradient correctness", ok)


def test_criterion_09_superlinear_trend():
    problem = make_quadratic_min(50, 0.1, 1.0, seed=4)
    config = SolverConfig(
        mode=Mode.STRONGLY_MONOTONE,
        alpha2=0.45,
        beta=0.9,
        rho=0.5,
        stop_tolerance=1e-12,
        max_iterations=800,
    )
    _, _, trace = solve(problem, config)
    dists = trace.dists()
    n = trace.iterations
    ok = n >= 25

    def geom_mean_ratio(lo, hi):
        ratios = dists[lo + 1 : hi + 1] / dists[lo:hi]
        return float(np.exp(np.mean(np.log(ratios))))

    lead = geom_mean_ratio(0, 10)
    trail = geom_mean_ratio(n - 10, n)
    ok = ok and trail <= lead / 2.0

    # cost to 1e-8 distance versus the fixed-step baseline at step 1/(2 L1)
    qn_iters = next(i for i, r in enumerate(trace.rows) if r.dist <= 1e-8)
    qn_evals = trace.rows[qn_iters].cum_evals
    _, _, eg_trace = extragradient_baseline(problem, 0.5 / problem.l1, 800)
    eg_dists = eg_trace.dists()
    eg_iters = int(np.argmax(eg_dists <= 1e-8))
    ok = ok and eg_dists[eg_iters] <= 1e-8
    eg_evals = eg_trace.rows[eg_iters - 1].cum_evals if eg_iters else 0
    ok = ok and qn_iters < eg_iters and qn_evals < eg_evals
    report(9, "superlinear trend vs fixed-step baseline", ok)


def test_criterion_10_structure_preservation():
    _, sym_played = drive_learner(Symmetric(), 20, 0.3, 1.0, 2)
    ok = all(np.array_equal(b, b.T) for b in sym_played)

    _, j_played = drive_learner(JSymmetric(15, 15), 30, 0.0, 1.0, 3)
    sgn = np.concatenate([np.ones(15), -np.ones(15)])
    ok = ok and all(
        np.array_equal(b, sgn[:, None] * b.T * sgn[None, :]) for b in j_played
    )

    pattern = frozenset({(0, 5), (3, 17), (8, 2), (12, 30), (39, 1), (20, 21)})
    _, sp_played = drive_learner(Sparse(pattern), 40, 0.3, 1.0, 5)
    allowed = np.eye(40, dtype=bool)
    for (i, j) in pattern:
        allowed[i, j] = True
    ok = ok and all(np.all(b[~allowed] == 0.0) for b in sp_played)
    report(10, "structure preservation (exact residuals)", ok)


def test_criterion_11_cumulative_displacement(sm_suite, monotone_run):
    ok = True
    runs = list(sm_suite) + [monotone_run[:3]]
    for problem, config, trace in runs:
        total_sq = sum(r.step_norm**2 for r in trace.rows)
        d0_sq = float(np.linalg.norm(trace.z0 - problem.known_root) ** 2)
        bound = d0_sq / (1.0 - config.alpha1 - config.alpha2) * (1.0 + 1e-6)
        ok = ok and total_sq <= bound
    report(11, "cumulative displacement bound", ok)


def test_criterion_12_run_determinism(tmp_path):
    cfg = {
        "problems": [
            {"family": "quadratic_min", "d": 12, "mu": 0.2, "l1": 1.0, "seed": 6},
            {"family": "sparse_equation", "d": 10, "avg_degree": 3, "mu": 0.1,
             "l1": 1.5, "seed": 7},
        ],
        "solvers": [
            {"name": "qnpe", "mode": "strongly_monotone", "max_iterations": 150,
             "z0_scale": 1.0}
        ],
        "repetitions": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    cmd = [sys.executable, "-c", "import sys; from qnpe.cli import main; sys.exit(main())"]
    ok = True
    for out in ("a", "b"):
        proc = subprocess.run(
            cmd + ["run", str(cfg_path), "--out", str(tmp_path / out)],
            capture_output=True, text=True,
        )
        ok = ok and proc.returncode == 0
    csvs_a = sorted((tmp_path / "a").glob("run_*.csv"))
    ok = ok and len(csvs_a) == 4
    for p in csvs_a:
        ok = ok and p.read_bytes() == (tmp_path / "b" / p.name).read_bytes()
    report(12, "byte-identical determinism", ok)
