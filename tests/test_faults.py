"""Fault injection: each injected fault ends in a typed error or in a trace
whose certificates pass, except a non-monotone operator, whose report must
fail.  Most faults are injected into make_quadratic_min(20, 0.05, 1, seed=1)
over 60 iterations."""

import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest

from qnpe import (
    Mode,
    SolverConfig,
    SolverError,
    extragradient_baseline,
    make_bilinear_minimax,
    make_logsumexp_min,
    make_quadratic_min,
    make_sparse_equation,
    solve,
    verify_iteration_certificates,
)

FAMILIES = {  # problem and the mode it is solved in
    "quadratic": (lambda: make_quadratic_min(20, 0.05, 1.0, seed=1), Mode.STRONGLY_MONOTONE),
    "logsumexp": (lambda: make_logsumexp_min(20, 200, mu=0.05, smoothing=0.5, seed=1),
                  Mode.STRONGLY_MONOTONE),
    "sparse": (lambda: make_sparse_equation(20, 3, 0.1, 1.0, seed=1), Mode.STRONGLY_MONOTONE),
    "bilinear": (lambda: make_bilinear_minimax(10, 10, 0.0, 1.0, seed=1), Mode.MONOTONE),
}


def _z0(problem):
    return problem.known_root + np.random.default_rng(0).standard_normal(problem.dim)


def _certified_run(problem, mode, **config):
    """Solve and verify against the problem the solver saw; returns the trace
    and the report's failing checks."""
    config = SolverConfig(mode=mode, **{"max_iterations": 60, **config})
    _, _, trace = solve(problem, config, z0=_z0(problem))
    report = verify_iteration_certificates(trace, problem, config)
    return trace, [c.name for c in report.checks if not c.passed]


def _poisoned(problem, bad, poisoned):
    """The problem with F = bad at every operator call whose number (from 1)
    satisfies poisoned(number)."""
    calls = [0]

    def f(z):
        calls[0] += 1
        return np.full_like(z, bad) if poisoned(calls[0]) else problem.eval(z)

    return dataclasses.replace(problem, eval=f)


def _run_quadratic(solver="qnpe", start=lambda z0: z0, operator=None):
    """Run a solver 60 iterations on FAMILIES["quadratic"] from start(z0), with
    the problem replaced by operator(problem, a clean qnpe run's rows) if given."""
    p, mode = FAMILIES["quadratic"]
    problem = p()
    z0 = start(_z0(problem))
    if operator is not None:
        problem = operator(problem, _certified_run(problem, mode)[0].rows)
    if solver == "eg":
        return extragradient_baseline(problem, 0.5 / problem.l1, 60, z0=z0)
    return solve(problem, SolverConfig(mode=mode, max_iterations=60), z0=z0)


def _nan_entry(z0):
    z0[3] = math.nan
    return z0


def _overflowing(z0):
    return 1e200 * z0  # finite F(z0), whose squares overflow ||F(z0)||


def _nan_from_call(first):
    """Every operator call from number first(rows) on is NaN."""
    return lambda problem, rows: _poisoned(problem, math.nan, lambda c: c >= first(rows))


BASE_POINT = "non-finite operator value at the base point"
# case: (run, the raising layer, the iteration k, what the message says)
FAILURES = {
    "nan_start": (partial(_run_quadratic, start=_nan_entry), "driver", 0, BASE_POINT),
    "overflowing_start": (partial(_run_quadratic, start=_overflowing), "driver", 0, BASE_POINT),
    "runaway_operator": (  # exp(exp(z)) - 1
        partial(_run_quadratic, operator=lambda problem, rows: dataclasses.replace(
            problem, eval=lambda z: np.expm1(np.exp(z)))),
        "line_search", 0, "no acceptable step size within 9 trials"),
    "step_size_floor": (  # the trial that iteration 0 accepts, at the floor, is NaN
        partial(_run_quadratic, operator=lambda problem, rows: _poisoned(
            problem, math.nan, lambda c: c == rows[0].cum_evals)),
        "driver", 0, "below the step-size floor"),
    "nan_from_iteration_12": (  # from F(z_12) on
        partial(_run_quadratic, operator=_nan_from_call(lambda rows: rows[11].cum_evals + 1)),
        "driver", 12, BASE_POINT),
    "nan_trials_at_iteration_12": (  # from iteration 12's first trial on
        partial(_run_quadratic, operator=_nan_from_call(lambda rows: rows[11].cum_evals + 2)),
        "line_search", 12, "no acceptable step size"),
    "eg_nan_start": (partial(_run_quadratic, "eg", _nan_entry), "driver", 0, BASE_POINT),
    "eg_overflowing_start": (partial(_run_quadratic, "eg", _overflowing), "driver", 0,
                             BASE_POINT),
}


@pytest.mark.parametrize("case", FAILURES)
def test_every_failure_is_a_solver_error_naming_iteration_and_layer(case):
    run, layer, k, message = FAILURES[case]
    with warnings.catch_warnings(), pytest.raises(SolverError, match=message) as info:
        warnings.simplefilter("error")  # an overflow the solver handles must not warn
        run()
    assert (info.value.layer, info.value.k) == (layer, k)
    assert str(info.value).startswith(f"iteration {k}, {layer}: ")


def test_nan_start_is_a_line_search_error():
    # a NaN entry of F(z0), and finite entries whose squares overflow ||F(z0)||
    p, mode = FAMILIES["quadratic"]
    problem = p()
    nan_start = _z0(problem)
    nan_start[3] = math.nan
    overflowing_start = 1e200 * _z0(problem)
    assert np.all(np.isfinite(problem.eval(overflowing_start)))
    for z0 in (nan_start, overflowing_start):
        with warnings.catch_warnings(), \
                pytest.raises(SolverError, match="non-finite operator value at the base point"):
            warnings.simplefilter("error")
            solve(problem, SolverConfig(mode=mode, max_iterations=60), z0=z0)


@pytest.mark.parametrize("family", list(FAMILIES))
def test_a_start_of_the_wrong_shape_is_rejected_before_any_evaluation(family):
    """Both solvers name z0 when it is not a vector of shape (dim,), on every
    family, before F is evaluated; a finite z0 of the right shape runs."""
    p, mode = FAMILIES[family]
    problem = p()
    calls = [0]
    counted = dataclasses.replace(
        problem, eval=lambda z: calls.__setitem__(0, calls[0] + 1) or problem.eval(z))
    d = problem.dim
    runs = (lambda z0: solve(counted, SolverConfig(mode=mode, max_iterations=2), z0=z0),
            lambda z0: extragradient_baseline(counted, 0.5 / problem.l1, 2, z0=z0))
    for z0 in (np.zeros(d + 1), np.zeros(d - 1), np.zeros((1, d)), np.zeros((d, 1)), 0.0):
        for run in runs:
            with pytest.raises(ValueError, match=rf"^z0 must be a vector of shape \({d},\)"):
                run(z0)
    assert calls[0] == 0
    for run in runs:
        assert run(_z0(problem))[2].iterations == 2


def test_runaway_operator_exhausts_the_trials():
    p, mode = FAMILIES["quadratic"]
    problem = dataclasses.replace(p(), eval=lambda z: np.expm1(np.exp(z)))  # exp(exp(z)) - 1
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="no acceptable step size"):
        solve(problem, SolverConfig(mode=mode, max_iterations=60), z0=_z0(problem))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_accepted_trial_is_rejected(bad):
    # F is poisoned at the trial that a clean run accepts: that trial is
    # rejected, the next one is accepted, and the poisoned trial yields no loss
    # observation.  Iteration 0 starts at sigma0 = the step-size floor, so one
    # more backtrack there takes eta below the floor, which is a typed error.
    p, mode = FAMILIES["quadratic"]
    problem = p()
    config = SolverConfig(mode=mode, max_iterations=60)
    clean, failing = _certified_run(problem, mode)
    assert not failing
    floor = config.step_size_floor(problem.l1)
    above = next(r for r in clean.rows if r.eta * config.beta >= floor)

    def poisoned_at(row):
        return _poisoned(problem, bad, lambda call: call == row.cum_evals)

    with pytest.raises(SolverError, match="iteration 0, driver: accepted eta=.* is below the "
                                          "step-size floor"):
        _certified_run(poisoned_at(clean.rows[0]), mode)
    trace, failing = _certified_run(poisoned_at(above), mode)
    poisoned = trace.rows[above.k]
    assert poisoned.backtracked and poisoned.trials == above.trials + 1
    assert math.isnan(poisoned.loss)
    assert not failing


@pytest.mark.parametrize("family, factor", [("quadratic", 0.1), ("quadratic", 0.5),
                                            ("bilinear", 0.2), ("sparse", 0.3)])
def test_understated_lipschitz_constant_still_certifies(family, factor):
    p, mode = FAMILIES[family]
    problem = p()
    trace, failing = _certified_run(dataclasses.replace(problem, l1=factor * problem.l1), mode)
    assert trace.iterations > 0 and not failing


@pytest.mark.parametrize("family", FAMILIES)
def test_huge_learner_step_still_certifies(family):
    p, mode = FAMILIES[family]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace, failing = _certified_run(p(), mode, rho=1e300)
    assert trace.iterations > 0 and not failing


def test_non_monotone_operator_fails_its_certificates():
    p, mode = FAMILIES["quadratic"]
    diag = np.linspace(-1.0, 1.0, 20)
    problem = dataclasses.replace(p(), eval=lambda z: diag * z, known_root=np.zeros(20))
    _, failing = _certified_run(problem, mode)
    assert {"per-iteration-contraction", "cumulative-displacement"} <= set(failing)


def test_underflowing_residual_norm_still_certifies():
    # run to ||F|| = 0: near ||F|| = 3.5e-155 the squared norm of an inner
    # right-hand side F(z) underflows, which broke CGLS down while the solves
    # ran at F's own scale; they run for F(z) / ||F(z)|| instead
    problem = make_bilinear_minimax(10, 10, 0.1, 1.0, seed=1)
    trace, failing = _certified_run(problem, Mode.STRONGLY_MONOTONE, rho=0.5, stop_tolerance=0.0,
                                    max_iterations=2000)
    assert trace.final_norm_F == 0.0 and trace.iterations > 884
    assert not failing


def test_a_rejected_trial_that_does_not_move_z_is_not_observed():
    # at the rounding floor a rejected trial can round to z itself: it gives
    # no loss observation (its direction z_tilde - z is 0), and the run goes on
    problem = make_quadratic_min(20, 0.1, 1.0, seed=1)
    config = SolverConfig(mode=Mode.STRONGLY_MONOTONE, stop_tolerance=0.0, max_iterations=920)
    _, _, trace = solve(problem, config, z0=_z0(problem))
    assert trace.iterations == 920
    assert any(r.backtracked and math.isnan(r.loss) for r in trace.rows[870:])
