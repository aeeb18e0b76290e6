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

from .linear_solver import MatvecCounter
from .problems import JSymmetric, Sparse, StructureSpec, Symmetric
from .separation import (FeasibleSetParams, from_hat, pattern_index, pattern_matvecs,
                         project_subspace, sep_feasible, subspace_residual, to_hat)
from .spectral import SepCase, SepResult


class LearnerOption(Enum):
    OPTION_I = 1  # strongly monotone: play inside (1+delta)C
    OPTION_II = 2  # monotone: play inside C


DEFAULT_RHO = {LearnerOption.OPTION_I: 1.0 / 121.0, LearnerOption.OPTION_II: 1.0 / 81.0}

B0_CHECK_MAX_DIM = 64  # learner_init checks b0's spectrum only up to this dimension


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


def projected_gradient(
    structure: StructureSpec, resid: np.ndarray, s: np.ndarray, l1: float, out: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """project_subspace(structure, loss_gradient(B, obs)) / l1, bit for bit,
    from resid = u - B s and s, written into `out` with `work` as scratch.
    Symmetrization adds a contiguous outer(s, resid) instead of a transpose.
    Sparse gathers over the pattern and leaves `out` off it as it is: zero."""
    s2 = float(s @ s)
    if isinstance(structure, Sparse):
        rows, cols, flat, _ = pattern_index(structure.pattern, len(s))
        np.put(out, flat, -2.0 * (resid[rows] * s[cols]) / s2 / l1)
        return out
    np.copyto(out, s)  # outer(resid, s) without np.outer's slower out= path
    out *= resid[:, None]
    out *= -2.0
    out /= s2
    if isinstance(structure, (Symmetric, JSymmetric)):
        np.copyto(work, resid)
        work *= s[:, None]
        work *= -2.0
        work /= s2
        if isinstance(structure, JSymmetric):  # J W^T J: negate the off-diagonal blocks
            work[: structure.m, structure.m :] *= -1.0
            work[structure.m :, : structure.m] *= -1.0
        out += work
        out *= 0.5
    out /= l1
    return out


@dataclass
class LearnerState:
    t: int
    w: np.ndarray  # auxiliary point, in the subspace, ||W||_F <= R
    b_current: np.ndarray  # played matrix on the untransformed scale
    last_sep: SepResult | None
    last_delta: float
    rng: np.random.Generator
    grad: np.ndarray  # d x d buffer of the projected loss gradient
    work: np.ndarray  # d x d scratch
    matvec_counter: MatvecCounter = field(default_factory=MatvecCounter)
    sep_calls: int = 0


def learner_init(
    b0: np.ndarray,
    params: LearnerParams,
    rng: np.random.Generator,
    matvec_counter: MatvecCounter | None = None,
) -> LearnerState:
    """Start at W_0 = P(to_hat(b0)), the projection onto the structural
    subspace, so that W is exactly structured from round 0 (the updates keep
    it there).  to_hat(b0) must lie within 1e-8 of the subspace (checked at
    every d).  The spectral check on b0 runs only up to B0_CHECK_MAX_DIM."""
    b0 = np.asarray(b0, dtype=float)
    w0 = to_hat(b0, params.feasible)
    if subspace_residual(params.feasible.structure, w0) > 1e-8:
        raise ValueError("initial matrix violates the structural subspace")
    w0 = project_subspace(params.feasible.structure, w0)
    if b0.shape[0] <= B0_CHECK_MAX_DIM:  # the recentered set: sym part in [-1, 1], norm <= 3
        eigs = np.linalg.eigvalsh(0.5 * (w0 + w0.T))
        if eigs[0] < -1 - 1e-8 or eigs[-1] > 1 + 1e-8:
            raise ValueError("initial matrix violates the spectral constraint")
        if np.linalg.norm(w0, 2) > 3 + 1e-8:
            raise ValueError("initial matrix violates the operator-norm constraint")
    return LearnerState(
        t=0,
        w=w0,
        b_current=b0.copy(),
        last_sep=None,
        last_delta=params.delta_schedule(0),
        rng=rng,
        grad=np.zeros_like(w0), work=np.zeros_like(w0),
        matvec_counter=matvec_counter if matvec_counter is not None else MatvecCounter(),
    )


def observe_loss(
    state: LearnerState, obs: LossObservation, params: LearnerParams,
    resid: np.ndarray | None = None,
) -> LearnerState:
    """Consume one loss observation for the currently played matrix, take the
    online gradient step, and advance to the next played matrix via the
    separation oracle.  `resid` is u - B s when the caller has it.  Mutates
    and returns the state, updating W and B in place."""
    feas = params.feasible
    if resid is None:
        resid = obs.u - state.b_current @ obs.s

    g = projected_gradient(feas.structure, resid, obs.s, feas.l1, state.grad, state.work)
    if state.t >= 1 and state.last_sep is not None and state.last_sep.case is SepCase.CASE_II:
        sep = state.last_sep
        coeff = max(0.0, -float(np.tensordot(g, state.w, axes=2)) / sep.gamma)
        g += np.multiply(coeff, sep.s, out=state.work)

    w = state.w
    g *= params.rho
    w -= g
    nrm = np.linalg.norm(w)
    if nrm > params.radius:
        w *= params.radius / nrm

    t_next = state.t + 1
    delta = params.delta_schedule(t_next)
    q = params.failure_schedule(t_next)
    sep = sep_feasible(w, delta, q, feas, state.rng, matvec_counter=state.matvec_counter)
    state.sep_calls += 1

    gamma = 1.0 if sep.case is SepCase.CASE_I else sep.gamma
    scale = gamma if params.option is LearnerOption.OPTION_I else (1.0 + delta) * gamma
    b = state.b_current
    from_hat(w if scale == 1.0 else np.divide(w, scale, out=b), feas, out=b)

    state.t = t_next
    state.last_sep = sep
    state.last_delta = delta
    return state


def current_matrix(
    state: LearnerState, params: LearnerParams
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The played matrix plus structure-aware matvec closures (v -> B v and
    v -> B^T v).  B is updated in place by the next observe_loss."""
    b = state.b_current
    structure = params.feasible.structure
    if isinstance(structure, Symmetric):
        apply = lambda v: b @ v
        return b, apply, apply
    if isinstance(structure, Sparse):
        return b, *pattern_matvecs(structure.pattern, b)
    return b, (lambda v: b @ v), (lambda v: b.T @ v)
