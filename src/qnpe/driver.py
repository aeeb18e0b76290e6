"""Outer solver loop and the fixed-step extragradient baseline.

Each iteration evaluates the operator at the current point, runs the
backtracking line search to obtain (eta, z_hat), applies the extragradient
mixing step z+ = theta (z - eta F(z_hat)) + (1 - theta) z_hat with
theta = 1 / (1 + 2 eta mu), and — only when the line search backtracked and
its last rejected trial is finite and moved z — feeds the
model-mismatch loss at that rejected iterate to the online learner.  The
monotone mode additionally maintains the eta-weighted average of the z_hat
iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .learner import LearnerParams, LossObservation, current_matrix, learner_init, observe_loss
from .line_search import LineSearchError, backtrack, default_max_backtracks
from .problems import Problem, Symmetric, require
from .trace import RunTrace, TraceRow


class Mode(Enum):
    STRONGLY_MONOTONE = "strongly_monotone"
    MONOTONE = "monotone"


# the c of the step-size floor alpha2 * beta / (c * L1), per mode
FLOOR_DENOMINATOR = {Mode.STRONGLY_MONOTONE: 7.5, Mode.MONOTONE: 5.0}


@dataclass
class SolverConfig:
    mode: Mode  # or its value, e.g. "monotone"
    alpha1: float = 0.25
    alpha2: float = 0.25
    beta: float = 0.5
    sigma0: float = 0.0  # floored to the theory-backed minimum
    p: float = 0.1  # overall oracle failure budget
    max_iterations: int = 100
    stop_tolerance: float = 1e-10
    rng_seed: int = 0
    rho: float | None = None  # learner step size override
    radius: float | None = None  # learner ball radius override
    max_backtracks: int | None = None

    def __post_init__(self) -> None:
        """Every constant's type and range, checked once when the config is built."""
        self.mode = Mode(self.mode)
        require("alpha1", self.alpha1, lambda x: 0 <= x < 0.5, "in [0, 1/2)")
        require("alpha2", self.alpha2, lambda x: 0 < x < 0.5, "in (0, 1/2)")
        require("beta", self.beta, lambda x: 0 < x < 1, "in (0, 1)")
        require("p", self.p, lambda x: 0 < x < 1, "in (0, 1)")
        require("sigma0", self.sigma0, lambda x: x >= 0, ">= 0")
        require("stop_tolerance", self.stop_tolerance, lambda x: x >= 0, ">= 0")
        require("max_iterations", self.max_iterations, lambda x: x >= 0, ">= 0", integer=True)
        for name in ("rho", "radius"):  # None selects the theory default
            if getattr(self, name) is not None:
                require(name, getattr(self, name), lambda x: x > 0, "> 0")
        if self.max_backtracks is not None:
            require("max_backtracks", self.max_backtracks, lambda x: x >= 1, ">= 1", integer=True)

    def step_size_floor(self, l1: float) -> float:
        return self.alpha2 * self.beta / (FLOOR_DENOMINATOR[self.mode] * l1)

    def effective_sigma0(self, l1: float) -> float:
        return max(self.sigma0, self.step_size_floor(l1))

    def eval_budget(self, n_iters: int, sigma0: float, l1: float) -> float:
        """Theory bound on total operator evaluations over n_iters iterations."""
        denom = FLOOR_DENOMINATOR[self.mode]
        return 3 * n_iters + math.log(denom * sigma0 * l1 / self.alpha2) / math.log(1 / self.beta)


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


def _finish_trace(
    trace: RunTrace,
    problem: Problem,
    z: np.ndarray,
    zbar_acc: np.ndarray,
    eta_sum: float,
    cum_evals: int,
    matvecs: int,
    g: np.ndarray | None = None,
) -> np.ndarray | None:
    """Record the end of a run; returns z_bar.  g is F(z) if the caller has
    already evaluated and counted it, else F(z) is evaluated and counted here."""
    if g is None:
        g = problem.eval(z)
        cum_evals += 1
    trace.z_final = z
    trace.z_bar = zbar_acc / eta_sum if eta_sum > 0 else None
    trace.eta_sum = eta_sum
    trace.final_norm_F = _norm(g)
    trace.final_dist = _dist(z, problem.known_root)
    trace.total_evals = cum_evals
    trace.total_matvecs = matvecs
    return trace.z_bar


def solve(
    problem: Problem,
    config: SolverConfig,
    z0: np.ndarray | None = None,
    b0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, RunTrace]:
    """Run the solver; returns (z_final, averaged iterate or None, trace)."""
    check_mode(problem, config)
    d = problem.dim
    mu = problem.mu if config.mode is Mode.STRONGLY_MONOTONE else 0.0
    l1 = problem.l1
    z = np.zeros(d) if z0 is None else np.asarray(z0, dtype=float).copy()

    sigma0 = config.effective_sigma0(l1)
    # mu > 0 (strongly monotone mode) is the learner's Option I, mu = 0 its Option II
    lparams = LearnerParams(problem.structure, d, mu, l1, config.p,
                            rho=config.rho, radius=config.radius)
    rng = np.random.default_rng(config.rng_seed)
    state = learner_init(b0, lparams, rng)  # b0 = None: the center (L1 + mu) I

    sym_structure = isinstance(problem.structure, Symmetric)

    trace = RunTrace(
        solver="qnpe",
        z0=z.copy(),
        meta={
            "mode": config.mode.value,
            "alpha1": config.alpha1,
            "alpha2": config.alpha2,
            "beta": config.beta,
            "sigma0": sigma0,
            "mu": mu,
            "l1": l1,
            "p": config.p,
            "rng_seed": config.rng_seed,
        },
    )

    floor = config.step_size_floor(l1)
    sigma = sigma0
    cum_evals = 0
    cum_matvecs = 0  # W-products of the inner solves and of the oracles
    eta_sum = 0.0
    zbar_acc = np.zeros(d)
    g_stop = None  # F(z) when the loop stops on the tolerance

    for k in range(config.max_iterations):
        g = problem.eval(z)
        cum_evals += 1
        norm_g = _norm(g)
        if norm_g <= config.stop_tolerance:
            g_stop = g
            break

        max_backtracks = config.max_backtracks or default_max_backtracks(  # None: the default
            sigma, l1, config.alpha2, config.beta)
        out = backtrack(  # W's products and B = c1 W + c0 I's coefficients
            z, g, *current_matrix(state, lparams), sigma, problem.eval, alpha1=config.alpha1,
            alpha2=config.alpha2, beta=config.beta, mu=mu, max_backtracks=max_backtracks,
            b_symmetric=sym_structure,
        )
        cum_evals += out.trial_count
        cum_matvecs += out.matvecs

        eta = out.eta
        if eta < floor - 1e-12:  # the step-size-floor certificate's own threshold
            raise LineSearchError(f"accepted eta={eta:.3e} at iteration {k} is below the "
                                  f"step-size floor {floor:.3e}; check F's values and L1")
        theta = 1.0 / (1.0 + 2.0 * eta * mu)
        z_next = theta * (z - eta * out.f_zhat) + (1.0 - theta) * out.z_hat
        eta_sum += eta
        zbar_acc += eta * out.z_hat

        s = out.z_hat - z
        step_norm = _norm(s)
        sq = math.sqrt(1.0 + eta * mu)
        cond_a_lhs = _norm(s + eta * (g + out.b_s))
        cond_a_margin = config.alpha1 * sq * step_norm - cond_a_lhs
        cond_b_lhs = _norm(s + eta * out.f_zhat)
        cond_b_margin = (config.alpha1 + config.alpha2) * sq * step_norm - cond_b_lhs

        loss = math.nan
        if out.z_tilde is not None:
            obs = LossObservation(u=out.f_ztilde - g, s=out.z_tilde - z)
            resid = obs.u - out.b_s_tilde
            loss = float(resid.dot(resid)) / float(obs.s.dot(obs.s))
            observe_loss(state, obs, lparams, resid=resid)
            cum_matvecs += state.last_sep.matvecs

        trace.rows.append(
            TraceRow(
                k=k,
                eta=eta,
                theta=theta,
                norm_F=norm_g,
                dist=_dist(z, problem.known_root),
                step_norm=step_norm,
                backtracked=out.backtracked,
                trials=out.trial_count,
                loss=loss,
                cond_a_margin=cond_a_margin,
                cond_b_margin=cond_b_margin,
                cum_evals=cum_evals,
                cum_matvecs=cum_matvecs,
            )
        )
        sigma = eta / config.beta
        z = z_next

    z_bar = _finish_trace(trace, problem, z, zbar_acc, eta_sum, cum_evals, cum_matvecs, g_stop)
    return z, (z_bar if config.mode is Mode.MONOTONE else None), trace


def extragradient_baseline(
    problem: Problem,
    step_size: float,
    n_iters: int,
    z0: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None, RunTrace]:
    """Classical fixed-step extragradient with the same trace schema."""
    check_extragradient(problem, step_size, n_iters)
    d = problem.dim
    z = np.zeros(d) if z0 is None else np.asarray(z0, dtype=float).copy()
    trace = RunTrace(solver="extragradient", z0=z.copy(), meta={"step_size": step_size})

    cum_evals = 0
    zbar_acc = np.zeros(d)
    eta_sum = 0.0
    for k in range(n_iters):
        g = problem.eval(z)
        z_hat = z - step_size * g
        f_hat = problem.eval(z_hat)
        cum_evals += 2
        z_next = z - step_size * f_hat
        eta_sum += step_size
        zbar_acc += step_size * z_hat
        trace.rows.append(
            TraceRow(
                k=k,
                eta=step_size,
                theta=1.0,
                norm_F=_norm(g),
                dist=_dist(z, problem.known_root),
                step_norm=_norm(z_hat - z),
                backtracked=False,
                trials=2,
                loss=math.nan,
                cond_a_margin=math.nan,
                cond_b_margin=math.nan,
                cum_evals=cum_evals,
                cum_matvecs=0,
            )
        )
        z = z_next

    return z, _finish_trace(trace, problem, z, zbar_acc, eta_sum, cum_evals, 0), trace
