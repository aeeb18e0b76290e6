"""Projection-free online learner over the transformed feasible set.

The learner maintains an auxiliary matrix W_t inside the Frobenius ball of
radius R = sqrt(d), plays the structured Jacobian approximation B_t obtained
from W_t through the separation oracle, and takes an online projected gradient
step on the surrogate loss after every observation.  Only rounds where the
outer line search backtracked, with a finite last rejected trial, produce
observations; in all other iterations the played matrix is simply left
unchanged by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .linear_solver import MatvecCounter
from .problems import Sparse, Symmetric
from .separation import FeasibleSetParams, from_hat, project_subspace, sep_feasible, to_hat
from .spectral import SepCase, SepResult


class LearnerOption(Enum):
    OPTION_I = 1  # strongly monotone: play inside (1+delta)C
    OPTION_II = 2  # monotone: play inside C


DEFAULT_RHO = {LearnerOption.OPTION_I: 1.0 / 121.0, LearnerOption.OPTION_II: 1.0 / 81.0}

B0_CHECK_MAX_DIM = 64  # learner_init checks b0 densely only up to this dimension


def failure_schedule(p: float) -> Callable[[int], float]:
    """q_t = p / (2.5 (t+1) log^2(t+1)) for t >= 1."""

    def q_t(t: int) -> float:
        if t < 1:
            raise ValueError("no oracle call is made at round 0")
        return p / (2.5 * (t + 1) * math.log(t + 1) ** 2)

    return q_t


@dataclass
class LearnerParams:
    option: LearnerOption
    feasible: FeasibleSetParams
    rho: float
    radius: float
    delta_schedule: Callable[[int], float]
    failure_schedule: Callable[[int], float]

    @staticmethod
    def make(
        option: LearnerOption,
        feasible: FeasibleSetParams,
        dim: int,
        p: float,
        rho: float | None = None,
        radius: float | None = None,
    ) -> "LearnerParams":
        if option is LearnerOption.OPTION_I:
            if feasible.mu <= 0:
                raise ValueError("Option I requires mu > 0")
            delta = feasible.mu / (2.0 * feasible.l1)
            delta_schedule = lambda t: delta
        else:
            delta_schedule = lambda t: 0.5 / (t + 1) ** 0.25
        return LearnerParams(
            option=option,
            feasible=feasible,
            rho=DEFAULT_RHO[option] if rho is None else rho,
            radius=math.sqrt(dim) if radius is None else radius,
            delta_schedule=delta_schedule,
            failure_schedule=failure_schedule(p),
        )


@dataclass
class LossObservation:
    u: np.ndarray  # F(z_tilde) - F(z)
    s: np.ndarray  # z_tilde - z, nonzero

    def __post_init__(self) -> None:
        if not np.linalg.norm(self.s) > 0:
            raise ValueError("observation direction s must be nonzero")


def loss_value(b: np.ndarray, obs: LossObservation) -> float:
    s2 = float(obs.s @ obs.s)
    resid = obs.u - b @ obs.s
    return float(resid @ resid) / s2


def loss_gradient(b: np.ndarray, obs: LossObservation) -> np.ndarray:
    """grad of ||u - B s||^2 / ||s||^2 in B: the rank-one -2 (u - B s) s^T / ||s||^2."""
    s2 = float(obs.s @ obs.s)
    return -2.0 * np.outer(obs.u - b @ obs.s, obs.s) / s2


@dataclass
class LearnerState:
    t: int
    w: np.ndarray  # auxiliary point, in the subspace, ||W||_F <= R
    b_current: np.ndarray  # played matrix on the untransformed scale
    last_sep: SepResult | None
    last_delta: float
    rng: np.random.Generator
    matvec_counter: MatvecCounter = field(default_factory=MatvecCounter)
    sep_calls: int = 0


def _check_b0_feasible(b0: np.ndarray, params: LearnerParams, tol: float = 1e-8) -> None:
    """Dense check that the transformed initial matrix lies in the recentered
    feasible set (eigenvalues of the symmetric part in [-1, 1], operator norm
    at most 3, structural residual zero)."""
    b_hat = to_hat(b0, params.feasible)
    if np.max(np.abs(project_subspace(params.feasible.structure, b_hat) - b_hat)) > tol:
        raise ValueError("initial matrix violates the structural subspace")
    sym = 0.5 * (b_hat + b_hat.T)
    eigs = np.linalg.eigvalsh(sym)
    if eigs[0] < -1 - tol or eigs[-1] > 1 + tol:
        raise ValueError("initial matrix violates the spectral constraint")
    if np.linalg.norm(b_hat, 2) > 3 + tol:
        raise ValueError("initial matrix violates the operator-norm constraint")


def learner_init(
    b0: np.ndarray,
    params: LearnerParams,
    rng: np.random.Generator,
    matvec_counter: MatvecCounter | None = None,
) -> LearnerState:
    b0 = np.asarray(b0, dtype=float)
    if b0.shape[0] <= B0_CHECK_MAX_DIM:
        _check_b0_feasible(b0, params)
    w0 = to_hat(b0, params.feasible)
    return LearnerState(
        t=0,
        w=w0,
        b_current=b0.copy(),
        last_sep=None,
        last_delta=params.delta_schedule(0),
        rng=rng,
        matvec_counter=matvec_counter if matvec_counter is not None else MatvecCounter(),
    )


def observe_loss(state: LearnerState, obs: LossObservation, params: LearnerParams) -> LearnerState:
    """Consume one loss observation for the currently played matrix, take the
    online gradient step, and advance to the next played matrix via the
    separation oracle.  Mutates and returns the state."""
    feas = params.feasible

    g = project_subspace(feas.structure, loss_gradient(state.b_current, obs)) / feas.l1
    if state.t >= 1 and state.last_sep is not None and state.last_sep.case is SepCase.CASE_II:
        sep = state.last_sep
        coeff = max(0.0, -float(np.tensordot(g, state.w, axes=2)) / sep.gamma)
        g_tilde = g + coeff * sep.s
    else:
        g_tilde = g

    w_next = state.w - params.rho * g_tilde
    nrm = np.linalg.norm(w_next)
    if nrm > params.radius:
        w_next = w_next * (params.radius / nrm)

    t_next = state.t + 1
    delta = params.delta_schedule(t_next)
    q = params.failure_schedule(t_next)
    sep = sep_feasible(
        w_next, delta, q, feas, state.rng, matvec_counter=state.matvec_counter
    )
    state.sep_calls += 1

    if sep.case is SepCase.CASE_I:
        b_hat = w_next if params.option is LearnerOption.OPTION_I else w_next / (1.0 + delta)
    else:
        scale = sep.gamma if params.option is LearnerOption.OPTION_I else (1.0 + delta) * sep.gamma
        b_hat = w_next / scale

    state.t = t_next
    state.w = w_next
    state.b_current = from_hat(b_hat, feas)
    state.last_sep = sep
    state.last_delta = delta
    return state


def current_matrix(
    state: LearnerState, params: LearnerParams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The played matrix plus structure-aware matvec closures (v -> B v and
    v -> B^T v)."""
    b = state.b_current
    structure = params.feasible.structure
    if isinstance(structure, Symmetric):
        apply = lambda v: b @ v
        return b, apply, apply
    if isinstance(structure, Sparse):
        b_sp = sp.csr_array(b)
        b_sp_t = sp.csr_array(b.T)
        return b, (lambda v: b_sp @ v), (lambda v: b_sp_t @ v)
    return b, (lambda v: b @ v), (lambda v: b.T @ v)
