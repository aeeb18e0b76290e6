"""Outer solver loop, the fixed-step baseline, and offline certificate
re-verification."""

import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import qnpe.driver
import qnpe.learner
from qnpe import (
    General,
    JSymmetric,
    Mode,
    PrimalDualBox,
    Problem,
    SepCase,
    SolverConfig,
    Symmetric,
    extragradient_baseline,
    make_bilinear_minimax,
    make_quadratic_min,
    make_sparse_equation,
    solve,
    verify_iteration_certificates,
)


def identity_problem():
    return Problem(
        dim=1,
        eval=lambda z: z.copy(),
        mu=1.0,
        l1=1.0,
        structure=Symmetric(),
        known_root=np.zeros(1),
    )


def sm_config(**kw):
    base = dict(mode=Mode.STRONGLY_MONOTONE, max_iterations=200, stop_tolerance=1e-10)
    base.update(kw)
    return SolverConfig(**base)


def test_starting_at_root_stops_immediately():
    p = make_quadratic_min(6, 0.3, 1.0, seed=0)
    z, z_bar, trace = solve(p, sm_config(), z0=p.known_root)
    assert trace.iterations == 0
    assert trace.final_norm_F <= 1e-10
    assert np.array_equal(z, p.known_root)
    assert z_bar is None


@pytest.mark.parametrize(
    "bad", [{"alpha2": 0.0}, {"beta": 1.5}, {"max_iterations": -1}, {"stop_tolerance": -1.0},
            {"rho": 0.0}, {"rng_seed": -3}, {"rng_seed": 1.5}]
)
def test_invalid_constants_rejected_before_any_step(bad):
    # the config is checked when built, so also at the root, where no step is taken
    p = make_quadratic_min(5, 0.1, 1.0, seed=0)
    for z0 in (p.known_root, p.known_root + 1.0):
        with pytest.raises(ValueError, match=next(iter(bad))):
            solve(p, sm_config(**bad), z0=z0)


def test_quadratic_contracts_every_iteration():
    p = make_quadratic_min(20, 0.2, 1.0, seed=1)
    z, _, trace = solve(p, sm_config(), z0=p.known_root + 3.0)
    assert trace.final_norm_F <= 1e-10
    dists = trace.dists()
    for i, row in enumerate(trace.rows):
        bound = dists[i] ** 2 / (1.0 + 2.0 * row.eta * p.mu) * (1.0 + 1e-8)
        assert dists[i + 1] ** 2 <= bound
    # sigma update: next trial step is the accepted one divided by beta
    for prev, nxt in zip(trace.rows, trace.rows[1:]):
        assert nxt.eta <= prev.eta / trace.meta["beta"] * (1 + 1e-12)


def test_strongly_monotone_mode_requires_positive_mu():
    p = make_bilinear_minimax(3, 3, mu=0.0, l1=1.0, seed=2)
    with pytest.raises(ValueError):
        solve(p, sm_config())


def test_monotone_mode_nonexpansive_and_returns_average():
    p = make_bilinear_minimax(5, 5, mu=0.0, l1=1.0, seed=3)
    rng = np.random.default_rng(4)
    z0 = rng.standard_normal(10)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=60, stop_tolerance=1e-12)
    z, z_bar, trace = solve(p, config, z0=z0)
    assert z_bar is not None
    dists = trace.dists()
    assert np.all(np.diff(dists) <= 1e-10)
    assert trace.eta_sum > 0
    # z_bar is the eta-weighted average of the accepted iterates
    assert np.isfinite(z_bar).all()


BOOKKEEPING_RUNS = {  # both solvers' traces follow one rule
    "qnpe": lambda p, z0: solve(p, sm_config(), z0=z0),
    "extragradient": lambda p, z0: extragradient_baseline(p, 0.5 / p.l1, 30, z0=z0),
}


@pytest.mark.parametrize("solver", list(BOOKKEEPING_RUNS))
def test_trace_bookkeeping_consistency(solver):
    p = make_quadratic_min(10, 0.1, 1.0, seed=5)
    _, _, trace = BOOKKEEPING_RUNS[solver](p, p.known_root + 1.0)
    rows = trace.rows
    assert [r.k for r in rows] == list(range(len(rows)))
    assert all(r.trials >= 1 for r in rows)
    assert all((r.trials > 1) == r.backtracked for r in rows)
    assert all(math.isnan(r.loss) != r.backtracked for r in rows)
    assert trace.total_evals == rows[-1].cum_evals + 1
    # eval accounting: 1 base eval + one per line-search trial, each iteration
    expected = np.cumsum([1 + r.trials for r in rows])
    assert [r.cum_evals for r in rows] == list(expected)


@pytest.mark.parametrize("start, max_iterations, stop_tolerance",
                         [(1.0, 200, 1e-6), (1.0, 3, 1e-10), (0.0, 200, 1e-10)],
                         ids=["stop-tolerance", "max-iterations", "at-root"])
def test_no_operator_evaluation_is_repeated(start, max_iterations, stop_tolerance):
    """Every call of F is counted once in total_evals, which is the last row's
    count plus the one evaluation at the final point (1 with no rows)."""
    p = make_quadratic_min(10, 0.1, 1.0, seed=5)
    calls = [0]

    def f(z):
        calls[0] += 1
        return p.eval(z)

    config = sm_config(max_iterations=max_iterations, stop_tolerance=stop_tolerance)
    _, _, trace = solve(dataclasses.replace(p, eval=f), config, z0=p.known_root + start)
    rows = trace.rows
    assert (trace.final_norm_F <= config.stop_tolerance) == (len(rows) < max_iterations)
    assert (len(rows) == 0) == (start == 0.0)
    assert calls[0] == trace.total_evals
    assert trace.total_evals == (rows[-1].cum_evals + 1 if rows else 1)


B_PRODUCT_CASES = {  # theory-default solves, one per structure
    "symmetric": (lambda: make_quadratic_min(20, 0.1, 1.0, seed=5), Mode.STRONGLY_MONOTONE),
    "sparse": (lambda: make_sparse_equation(40, 3, 0.1, 1.5, seed=9), Mode.STRONGLY_MONOTONE),
    "jsymmetric": (lambda: make_bilinear_minimax(15, 15, 0.0, 1.0, seed=5), Mode.MONOTONE),
    "general": (lambda: dataclasses.replace(make_sparse_equation(30, 3, 0.1, 1.5, seed=2),
                                            structure=General()), Mode.STRONGLY_MONOTONE),
}


@pytest.mark.parametrize("name", list(B_PRODUCT_CASES))
def test_every_b_product_is_counted(monkeypatch, name):
    """Every call of the W products that current_matrix hands the line search
    is in total_matvecs: the inner solves' W and W^T products are
    total_matvecs less the oracles' W-products."""
    make, mode = B_PRODUCT_CASES[name]
    p = make()
    products, oracle = [0], [0]
    played, observe = qnpe.driver.current_matrix, qnpe.driver.observe_loss

    def counted(f):
        return lambda v: products.__setitem__(0, products[0] + 1) or f(v)

    def observe_counted(state, *args, **kwargs):
        out = observe(state, *args, **kwargs)
        oracle[0] += state.last_sep.matvecs
        return out

    def played_counted(*args):
        w_apply, w_apply_t, c1, c0 = played(*args)
        return counted(w_apply), w_apply_t and counted(w_apply_t), c1, c0

    monkeypatch.setattr(qnpe.driver, "current_matrix", played_counted)
    monkeypatch.setattr(qnpe.driver, "observe_loss", observe_counted)
    z0 = p.known_root + np.random.default_rng(0).standard_normal(p.dim)
    _, _, trace = solve(p, SolverConfig(mode=mode, max_iterations=60), z0=z0)
    assert any(r.backtracked for r in trace.rows)
    assert products[0] == trace.total_matvecs - oracle[0] > 0

def test_a_case_ii_round_makes_no_uncounted_product(monkeypatch):
    """A learner round after a Case II oracle answer takes W s from resid, so
    every product with the Symmetric learner's W, the line search's and the
    oracle's, is in total_matvecs."""
    p = make_quadratic_min(30, 0.1, 1.0, seed=4)
    products, cases = [0], []
    matvec, separate = qnpe.learner.LowRank.matvec, qnpe.learner.sep_feasible

    def matvec_counted(self, *args, **kwargs):
        products[0] += 1
        return matvec(self, *args, **kwargs)

    def separate_recorded(*args, **kwargs):
        res = separate(*args, **kwargs)
        cases.append(res.case)
        return res

    monkeypatch.setattr(qnpe.learner.LowRank, "matvec", matvec_counted)
    monkeypatch.setattr(qnpe.learner, "sep_feasible", separate_recorded)
    z0 = p.known_root + np.random.default_rng(0).standard_normal(p.dim)
    _, _, trace = solve(p, SolverConfig(mode=Mode.STRONGLY_MONOTONE, rho=2, max_iterations=120),
                        z0=z0)
    assert SepCase.CASE_II in cases
    assert products[0] == trace.total_matvecs


def test_the_centre_start_forms_no_dense_array():
    """The learner starts at W_0 = 0, and the factored learner stores W as its
    factors: the solve's traced peak stays below one d x d array."""
    d = 1500
    p = make_quadratic_min(d, 0.01, 1.0, seed=1)
    tracemalloc.start()
    try:
        solve(p, sm_config(max_iterations=30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8


def test_non_finite_rejected_trial_is_not_observed():
    # F is NaN (or Inf) on the last rejected trial of the first backtracked
    # iteration: that trial is rejected and the learner gets no observation from it
    p = make_quadratic_min(20, 0.2, 1.0, seed=1)
    z0 = p.known_root + np.random.default_rng(0).standard_normal(20)
    row = next(r for r in solve(p, sm_config(), z0=z0)[2].rows if r.backtracked)
    assert math.isfinite(row.loss)
    for bad in (math.nan, math.inf):
        calls = [0]

        def f(z):
            calls[0] += 1
            return np.full_like(z, bad) if calls[0] == row.cum_evals - 1 else p.eval(z)

        config = sm_config()
        _, _, trace = solve(dataclasses.replace(p, eval=f), config, z0=z0)
        poisoned = trace.rows[row.k]
        assert poisoned.backtracked and poisoned.trials == row.trials
        assert math.isnan(poisoned.loss)
        assert verify_iteration_certificates(trace, p, config).all_passed


# ---------------------------------------------------------------------------
# extragradient baseline


def test_eg_hand_computed_step():
    p = identity_problem()
    z, _, trace = extragradient_baseline(p, step_size=0.5, n_iters=1, z0=np.array([1.0]))
    # z_hat = 1 - 0.5 = 0.5; z1 = 1 - 0.5 * 0.5 = 0.75
    assert z[0] == pytest.approx(0.75, abs=1e-15)
    assert trace.rows[0].step_norm == pytest.approx(0.5, abs=1e-15)


def test_eg_contraction_band_on_quadratic():
    p = make_quadratic_min(10, 0.2, 1.0, seed=7)
    eta = 0.5
    _, _, trace = extragradient_baseline(p, eta, 50, z0=p.known_root + 2.0)
    dists = trace.dists()
    for i in range(len(dists) - 1):
        assert dists[i + 1] <= dists[i] * (1 + 1e-12)
        assert dists[i + 1] >= dists[i] * (1 - 4 * p.mu * eta) - 1e-12


def test_eg_fixed_point_and_step_validation():
    # F is exactly 0 at this root, so EG stops there, as qnpe does at stop_tolerance = 0
    p = make_quadratic_min(4, 0.5, 1.0, seed=8)
    assert not p.eval(p.known_root).any()
    z, _, trace = extragradient_baseline(p, 0.5, 10, z0=p.known_root)
    assert trace.iterations == 0 and trace.total_evals == 1
    assert np.array_equal(z, p.known_root)
    with pytest.raises(ValueError):
        extragradient_baseline(p, 1.5 / p.l1, 5)
    with pytest.raises(ValueError):
        extragradient_baseline(p, 0.0, 5)


# ---------------------------------------------------------------------------
# certificates


def healthy_run():
    p = make_quadratic_min(10, 0.2, 1.0, seed=9)
    config = sm_config()
    _, _, trace = solve(p, config, z0=p.known_root + 2.0)
    return p, config, trace


def test_certificates_pass_on_healthy_run():
    p, config, trace = healthy_run()
    report = verify_iteration_certificates(trace, p, config)
    assert report.all_passed, "\n".join(report.lines())
    names = {c.name for c in report.checks}
    assert {"per-iteration-contraction", "cumulative-displacement",
            "step-size-floor", "operator-eval-budget"} <= names


def test_certificates_catch_tampered_steps():
    p, config, trace = healthy_run()
    bad = copy.deepcopy(trace)
    floor = config.step_size_floor(p.l1)
    bad.rows[3].eta = floor / 10.0
    report = verify_iteration_certificates(bad, p, config)
    failing = {c.name for c in report.checks if not c.passed}
    assert "step-size-floor" in failing


@pytest.mark.parametrize("column, row, value, check", [
    ("cond_a_margin", 3, -math.inf, "inexact-solve-condition"),
    ("cond_a_margin", 0, math.nan, "inexact-solve-condition"),
    ("eta", 4, math.nan, "step-size-floor"),
    ("dist", 4, math.nan, "per-iteration-contraction"),
    ("loss", 7, -math.inf, "backtracking-lower-bound"),  # row 7: the first backtracked row
    ("loss", 7, -1.0, "backtracking-lower-bound"),
], ids=["cond_a-minus-inf", "cond_a-nan-first", "eta-nan", "dist-nan", "loss-minus-inf",
        "loss-negative"])
def test_a_non_finite_value_fails_the_certificate_that_reads_it(column, row, value, check):
    """A NaN or -inf in one row, or a negative loss, fails each check that
    reads that column; only a column that is NaN throughout (an EG trace, an
    unknown root) skips it."""
    p = make_quadratic_min(20, 0.1, 1, seed=1)
    config = sm_config(max_iterations=30)
    _, _, trace = solve(p, config)
    assert trace.iterations == 30
    assert verify_iteration_certificates(trace, p, config).all_passed
    tampered = copy.deepcopy(trace)
    setattr(tampered.rows[row], column, value)
    report = verify_iteration_certificates(tampered, p, config)
    assert check in {c.name for c in report.checks if not c.passed}
    for r in tampered.rows:
        setattr(r, column, math.nan)
    tampered.final_dist = math.nan
    report = verify_iteration_certificates(tampered, p, config)
    if column != "eta":  # no trace has an all-NaN eta column, and its check always runs
        assert check not in {c.name for c in report.checks}


def test_certificates_catch_expansion():
    p, config, trace = healthy_run()
    bad = copy.deepcopy(trace)
    bad.rows[2].dist = bad.rows[1].dist * 10.0
    report = verify_iteration_certificates(bad, p, config)
    assert not report.all_passed


def test_empty_trace_requires_convergence():
    p = make_quadratic_min(4, 0.5, 1.0, seed=10)
    config = sm_config()
    _, _, trace = solve(p, config, z0=p.known_root)
    report = verify_iteration_certificates(trace, p, config)
    assert report.all_passed
    assert report.checks[0].name == "converged-at-start"


def test_monotone_gap_certificate():
    p = make_bilinear_minimax(5, 5, mu=0.0, l1=1.0, seed=11)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=40, stop_tolerance=1e-12)
    z0 = 0.4 * np.ones(10)
    _, _, trace = solve(p, config, z0=z0)
    box = PrimalDualBox(-np.ones(5), np.ones(5), -np.ones(5), np.ones(5))
    report = verify_iteration_certificates(trace, p, config, gap_spec=box)
    assert report.all_passed, "\n".join(report.lines())
    assert "averaged-gap-bound" in {c.name for c in report.checks}


def test_default_gap_certificate_is_the_unit_box():
    # without gap_spec, a monotone run on a minimax problem certifies its
    # averaged gap on the unit box
    p = make_bilinear_minimax(5, 5, mu=0.0, l1=1.0, seed=11)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=40, stop_tolerance=1e-12)
    _, _, trace = solve(p, config, z0=0.4 * np.ones(10))
    box = PrimalDualBox(-np.ones(5), np.ones(5), -np.ones(5), np.ones(5))
    default = verify_iteration_certificates(trace, p, config)
    assert default.all_passed, "\n".join(default.lines())
    assert "averaged-gap-bound" in {c.name for c in default.checks}
    assert default.lines() == verify_iteration_certificates(trace, p, config, gap_spec=box).lines()


def test_default_gap_certificate_needs_the_bilinear_family():
    # evaluate_gap reads the closed form a generator supplies: a J-symmetric
    # problem without one gets no default gap check, and an explicit box raises
    p = dataclasses.replace(make_bilinear_minimax(5, 5, 0.0, 1.0, seed=1), gap=None)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=40, stop_tolerance=1e-12)
    _, _, trace = solve(p, config, z0=0.4 * np.ones(10))
    report = verify_iteration_certificates(trace, p, config)
    assert report.all_passed, "\n".join(report.lines())
    assert "averaged-gap-bound" not in {c.name for c in report.checks}
    box = PrimalDualBox(-np.ones(5), np.ones(5), -np.ones(5), np.ones(5))
    with pytest.raises(ValueError, match="no closed-form box gap"):
        verify_iteration_certificates(trace, p, config, gap_spec=box)


def test_a_problem_that_supplies_its_own_gap_gets_the_default_gap_certificate():
    # a hand-built bilinear saddle f(x, y) = x^T C y, no generator involved:
    # its gap on a box is max_{y'} (C^T x).y' - min_{x'} x'.(C y), coordinate-wise
    m, n = 3, 4
    c = np.random.default_rng(21).standard_normal((m, n))
    c /= np.linalg.norm(c, 2)

    def gap(z, box):
        cx, cy = c.T @ z[:m], c @ z[m:]
        return float(np.maximum(cx * box.y_lo, cx * box.y_hi).sum()
                     - np.minimum(cy * box.x_lo, cy * box.x_hi).sum())

    p = Problem(dim=m + n, eval=lambda z: np.concatenate([c @ z[m:], -c.T @ z[:m]]), mu=0.0,
                l1=1.0, structure=JSymmetric(m, n), known_root=np.zeros(m + n), gap=gap)
    config = SolverConfig(mode=Mode.MONOTONE, max_iterations=40, stop_tolerance=1e-12)
    _, z_bar, trace = solve(p, config, z0=0.4 * np.ones(m + n))
    report = verify_iteration_certificates(trace, p, config)
    assert report.all_passed, "\n".join(report.lines())
    gap_check = next(ch for ch in report.checks if ch.name == "averaged-gap-bound")
    unit = PrimalDualBox(-np.ones(m), np.ones(m), -np.ones(n), np.ones(n))
    assert gap_check.detail == f"gap {gap(z_bar, unit):.3e}"


def test_certificates_catch_a_step_below_the_backtracking_bound():
    p, config, trace = healthy_run()
    observed = [r for r in trace.rows if r.loss > 0]
    assert observed
    bound = config.alpha2 * config.beta / math.sqrt(observed[0].loss)
    for factor, passes in ((1 + 1e-9, True), (1 - 1e-9, False)):
        tampered = copy.deepcopy(trace)
        tampered.rows[observed[0].k].eta = bound * factor
        report = verify_iteration_certificates(tampered, p, config)
        check = next(c for c in report.checks if c.name == "backtracking-lower-bound")
        assert check.passed is passes


def test_certificates_scale_the_condition_tolerance_per_row():
    # a small step's rounding slack does not grow with another row's long step
    p, config, trace = healthy_run()
    small = next(r.k for r in trace.rows if r.step_norm < 1.0)
    long_step = next(r.k for r in trace.rows if r.k != small)
    for margin, passes in ((-5e-10, True), (-2e-9, False)):
        tampered = copy.deepcopy(trace)
        tampered.rows[small].cond_b_margin = margin
        tampered.rows[long_step].step_norm = 10.0
        report = verify_iteration_certificates(tampered, p, config)
        check = next(c for c in report.checks if c.name == "proximal-condition")
        assert check.passed is passes and check.worst_margin == margin
