"""Outer solver loop, shared by the solver and the fixed-step extragradient baseline.

Each iteration of `_outer_loop` evaluates the operator at the current point,
takes the solver's step to obtain (eta, theta, z_hat), applies the
extragradient mixing step z+ = theta (z - eta F(z_hat)) + (1 - theta) z_hat,
keeps the eta-weighted average of the z_hat iterates and records one trace
row, by one counting rule for both solvers.  The solver's step runs the
backtracking line search, takes theta = 1 / (1 + 2 eta mu), and — only when
the line search backtracked and its last rejected trial is finite and moved z
— feeds the model-mismatch loss at that rejected iterate to the online
learner.  The baseline's step is z_hat = z - eta F(z) with theta = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .learner import LearnerParams, LossObservation, current_matrix, learner_init, observe_loss
from .line_search import backtrack, default_max_backtracks
from .problems import Problem, SolverError, require
from .trace import RunTrace, TraceRow


class Mode(Enum):
    STRONGLY_MONOTONE = "strongly_monotone"
    MONOTONE = "monotone"


# the c of the step-size floor alpha2 * beta / (c * L1), per mode
FLOOR_DENOMINATOR = {Mode.STRONGLY_MONOTONE: 7.5, Mode.MONOTONE: 5.0}


@dataclass
class SolverConfig:
    """The settings a caller chooses.  The theory fixes the rest: alpha1, the
    first trial step (the step-size floor) and the trials per line search."""

    mode: Mode  # or its value, e.g. "monotone"
    alpha2: float = 0.25
    beta: float = 0.5
    max_iterations: int = 100
    stop_tolerance: float = 1e-10
    rng_seed: int = 0
    rho: float | None = None  # learner step size override
    alpha1: ClassVar[float] = 0.25  # the inexact-solve tolerance, fixed by the theory

    def __post_init__(self) -> None:
        """Every constant's type and range, checked once when the config is built."""
        self.mode = Mode(self.mode)
        require("alpha2", self.alpha2, lambda x: 0 < x < 0.5, "in (0, 1/2)")
        require("beta", self.beta, lambda x: 0 < x < 1, "in (0, 1)")
        require("stop_tolerance", self.stop_tolerance, lambda x: x >= 0, ">= 0")
        require("max_iterations", self.max_iterations, lambda x: x >= 0, ">= 0", integer=True)
        if self.rho is not None:  # None selects the theory default
            require("rho", self.rho, lambda x: x > 0, "> 0")

    def step_size_floor(self, l1: float) -> float:
        return self.alpha2 * self.beta / (FLOOR_DENOMINATOR[self.mode] * l1)

    def eval_budget(self, n_iters: int) -> float:
        """Theory bound on total operator evaluations over n_iters iterations,
        3 n + log(c sigma0 L1 / alpha2) / log(1 / beta) = 3 n - 1 at sigma0 = the floor."""
        return 3.0 * n_iters - 1.0


def check_mode(problem: Problem, config: SolverConfig) -> None:
    """The strongly monotone mode needs a problem with mu > 0."""
    if config.mode is Mode.STRONGLY_MONOTONE and problem.mu <= 0:
        raise ValueError(f"strongly_monotone mode requires mu > 0; the problem has mu = {problem.mu}")


def check_extragradient(problem: Problem, step_size: float, n_iters: int) -> None:
    """The extragradient baseline takes a step in (0, 1/L1] for n_iters >= 1 iterations."""
    top = 1.0 / problem.l1
    require("step_size", step_size, lambda x: 0 < x <= top, f"in (0, 1/L1] = (0, {top}]")
    require("n_iters", n_iters, lambda x: x >= 1, ">= 1", integer=True)


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm's own formula for a 1-D float vector, without its wrapper."""
    return math.sqrt(x.dot(x))


def _dist(z: np.ndarray, root: np.ndarray | None) -> float:
    return _norm(z - root) if root is not None else math.nan


class _Step(NamedTuple):
    """One iteration's step, as the outer loop records it."""

    eta: float
    theta: float
    z_hat: np.ndarray
    f_zhat: np.ndarray
    trials: int  # operator evaluations after F(z)
    step_norm: float  # ||z_hat - z||
    matvecs: int = 0
    loss: float = math.nan
    cond_a_margin: float = math.nan
    cond_b_margin: float = math.nan


def _outer_loop(problem: Problem, z0: np.ndarray | None, n_iters: int, stop_tolerance: float,
                trace: RunTrace, step: Callable[[np.ndarray, np.ndarray], _Step]) -> None:
    """Run up to n_iters iterations from z0 (None: the origin) into trace.

    Iteration k evaluates F(z), stops once ||F(z)|| <= stop_tolerance, and
    takes step(z, F(z)).  Then z+ = theta (z - eta F(z_hat)) + (1 - theta)
    z_hat, z_hat joins the eta-weighted average, and one row records the
    iteration: cum_evals adds 1 + trials and cum_matvecs the step's matvecs.
    The end-of-run totals count F at the final point once, so total_evals is
    the last row's cum_evals + 1.  This loop alone checks that ||F(z)|| is
    finite, for both solvers, and sets k on every SolverError of its iteration."""
    z = np.zeros(problem.dim) if z0 is None else np.asarray(z0, dtype=float).copy()
    trace.z0 = z.copy()
    cum_evals = cum_matvecs = 0
    eta_sum = 0.0
    zbar_acc = np.zeros(problem.dim)
    for k in range(n_iters + 1):  # the last pass only evaluates F at the final point
        g = problem.eval(z)
        cum_evals += 1
        with np.errstate(over="ignore"):  # squares that overflow give inf, caught below
            norm_g = _norm(g)
        if k == n_iters or norm_g <= stop_tolerance:
            break
        try:
            if not math.isfinite(norm_g):
                raise SolverError("driver", f"non-finite operator value at the base point "
                                            f"(||F|| = {norm_g})")
            st = step(z, g)
        except SolverError as exc:
            exc.k = k
            raise
        cum_evals += st.trials
        cum_matvecs += st.matvecs
        z_next = st.theta * (z - st.eta * st.f_zhat) + (1.0 - st.theta) * st.z_hat
        eta_sum += st.eta
        zbar_acc += st.eta * st.z_hat
        trace.rows.append(TraceRow(
            k=k, eta=st.eta, theta=st.theta, norm_F=norm_g, dist=_dist(z, problem.known_root),
            step_norm=st.step_norm, backtracked=st.trials > 1, trials=st.trials, loss=st.loss,
            cond_a_margin=st.cond_a_margin, cond_b_margin=st.cond_b_margin,
            cum_evals=cum_evals, cum_matvecs=cum_matvecs,
        ))
        z = z_next
    trace.z_final = z
    trace.z_bar = zbar_acc / eta_sum if eta_sum > 0 else None
    trace.eta_sum = eta_sum
    trace.final_norm_F = norm_g
    trace.final_dist = _dist(z, problem.known_root)
    trace.total_evals = cum_evals
    trace.total_matvecs = cum_matvecs


def solve(
    problem: Problem,
    config: SolverConfig,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, RunTrace]:
    """Run the solver; returns (z_final, averaged iterate or None, trace)."""
    check_mode(problem, config)
    mu = problem.mu if config.mode is Mode.STRONGLY_MONOTONE else 0.0
    l1 = problem.l1
    # mu > 0 (strongly monotone mode) is the learner's Option I, mu = 0 its Option II
    lparams = LearnerParams(problem.structure, problem.dim, mu, l1, rho=config.rho)
    rng = np.random.default_rng(config.rng_seed)
    state = learner_init(lparams, rng)
    floor = config.step_size_floor(l1)
    sigma = floor  # the first trial step

    def step(z: np.ndarray, g: np.ndarray) -> _Step:
        nonlocal sigma
        out = backtrack(  # W's products and B = c1 W + c0 I's coefficients
            z, g, *current_matrix(state, lparams), sigma, problem.eval, alpha1=config.alpha1,
            alpha2=config.alpha2, beta=config.beta, mu=mu,
            max_backtracks=default_max_backtracks(sigma, l1, config.alpha2, config.beta),
        )
        eta = out.eta
        if eta < floor - 1e-12:  # the step-size-floor certificate's own threshold
            raise SolverError("driver", f"accepted eta={eta:.3e} is below the step-size floor "
                                        f"{floor:.3e}; check F's values and L1")
        sigma = eta / config.beta

        s = out.z_hat - z
        step_norm = _norm(s)
        sq = math.sqrt(1.0 + eta * mu)
        cond_a_lhs = _norm(s + eta * (g + out.b_s))
        cond_a_margin = config.alpha1 * sq * step_norm - cond_a_lhs
        cond_b_lhs = _norm(s + eta * out.f_zhat)
        cond_b_margin = (config.alpha1 + config.alpha2) * sq * step_norm - cond_b_lhs

        loss, matvecs = math.nan, out.matvecs
        if out.z_tilde is not None:
            obs = LossObservation(u=out.f_ztilde - g, s=out.z_tilde - z)
            resid = obs.u - out.b_s_tilde
            loss = float(resid.dot(resid)) / float(obs.s.dot(obs.s))
            observe_loss(state, obs, lparams, resid)
            matvecs += state.last_sep.matvecs
        return _Step(eta, 1.0 / (1.0 + 2.0 * eta * mu), out.z_hat, out.f_zhat, out.trial_count,
                     step_norm, matvecs, loss, cond_a_margin, cond_b_margin)

    trace = RunTrace(solver="qnpe", meta={
        "mode": config.mode.value, "alpha1": config.alpha1, "alpha2": config.alpha2,
        "beta": config.beta, "sigma0": floor, "mu": mu, "l1": l1, "p": lparams.p,
        "rng_seed": config.rng_seed,
    })
    _outer_loop(problem, z0, config.max_iterations, config.stop_tolerance, trace, step)
    return trace.z_final, (trace.z_bar if config.mode is Mode.MONOTONE else None), trace


def extragradient_baseline(
    problem: Problem,
    step_size: float,
    n_iters: int,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, RunTrace]:
    """Classical fixed-step extragradient through the solver's outer loop:
    z_hat = z - eta F(z), then z+ = z - eta F(z_hat) (theta = 1, one trial).
    It stops early only where F(z) is exactly 0."""
    check_extragradient(problem, step_size, n_iters)

    def step(z: np.ndarray, g: np.ndarray) -> _Step:
        z_hat = z - step_size * g
        return _Step(step_size, 1.0, z_hat, problem.eval(z_hat), 1, _norm(z_hat - z))

    trace = RunTrace(solver="eg", meta={"step_size": step_size})
    _outer_loop(problem, z0, n_iters, 0.0, trace, step)
    return trace.z_final, trace.z_bar, trace
