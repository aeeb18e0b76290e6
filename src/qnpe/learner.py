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
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .problems import JSymmetric, Sparse, Symmetric
from .separation import (FeasibleSetParams, from_hat, pattern_index, pattern_matvecs,
                         project_subspace, sep_feasible, subspace_residual, to_hat)
from .spectral import SepCase, SepResult


class LearnerOption(Enum):
    OPTION_I = 1  # strongly monotone: play inside (1+delta)C
    OPTION_II = 2  # monotone: play inside C


DEFAULT_RHO = {LearnerOption.OPTION_I: 1.0 / 121.0, LearnerOption.OPTION_II: 1.0 / 81.0}

_STEP_ROWS = 32  # rows of W per block of the in-place learner step


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


def _add_rank_two(
    w: np.ndarray, a: np.ndarray, b: np.ndarray,
    mirror: tuple[np.ndarray, np.ndarray] | None, sep_term: tuple[float, np.ndarray] | None,
) -> None:
    """W += outer(a, b) + outer(*mirror) + k S, with sep_term = (k, S), in
    place and a block of rows at a time.  Each product is rounded on its own,
    the products are added, and the sum goes into W, so a mirror pair whose
    terms swap places at (i, j) and (j, i) adds the same value to both."""
    d = w.shape[0]
    rows = min(_STEP_ROWS, d)
    buf, work = np.empty((rows, d)), np.empty((rows, d))
    for i in range(0, d, rows):
        blk, n = slice(i, i + rows), min(rows, d - i)
        step = np.multiply(a[blk, None], b, out=buf[:n])
        if mirror is not None:
            step += np.multiply(mirror[0][blk, None], mirror[1], out=work[:n])
        if sep_term is not None:
            step += np.multiply(sep_term[1][blk], sep_term[0], out=work[:n])
        w[blk] += step


@dataclass
class LearnerState:
    t: int
    w: np.ndarray  # auxiliary point, in the subspace, ||W||_F <= R
    scale: float  # the played matrix is B = L1 W / scale + (L1 + mu) I
    last_sep: SepResult | None  # its matvecs are those of the last round's oracle
    rng: np.random.Generator


def learner_init(b0: np.ndarray, params: LearnerParams, rng: np.random.Generator) -> LearnerState:
    """Start at W_0 = P(to_hat(b0)), the projection onto the structural
    subspace, so that W is exactly structured from round 0 (the updates keep
    it there), stored in C order.  Round 0 plays from_hat(W_0), which is b0
    made exactly structured.  to_hat(b0) must lie within 1e-8 of the subspace,
    and W_0 in the recentered set: its symmetric part's spectrum in [-1, 1]
    and its operator norm at most 3.  ||W_0||_F <= 1 proves both (it bounds
    either norm), so the dense eigenvalue and norm check runs, at any d, only
    when that certificate fails; the default b0 has W_0 = 0."""
    b0 = np.asarray(b0, dtype=float)
    if not np.all(np.isfinite(b0)):  # a NaN subspace residual would pass its check
        raise ValueError("initial matrix b0 has a non-finite entry")
    w0 = to_hat(b0, params.feasible)
    if subspace_residual(params.feasible.structure, w0) > 1e-8:
        raise ValueError("initial matrix violates the structural subspace")
    w0 = np.ascontiguousarray(project_subspace(params.feasible.structure, w0))
    if not np.linalg.norm(w0) <= 1.0:  # NaN is no certificate
        eigs = np.linalg.eigvalsh(0.5 * (w0 + w0.T))
        if eigs[0] < -1 - 1e-8 or eigs[-1] > 1 + 1e-8:
            raise ValueError("initial matrix violates the spectral constraint")
        if np.linalg.norm(w0, 2) > 3 + 1e-8:
            raise ValueError("initial matrix violates the operator-norm constraint")
    return LearnerState(t=0, w=w0, scale=1.0, last_sep=None, rng=rng)


def observe_loss(
    state: LearnerState, obs: LossObservation, params: LearnerParams,
    resid: np.ndarray | None = None,
) -> LearnerState:
    """Consume one loss observation for the currently played matrix, take the
    online gradient step, and advance to the next played matrix via the
    separation oracle.  `resid` is u - B s when the caller has it.  Mutates
    and returns the state, updating W in place."""
    feas = params.feasible
    s, w = obs.s, state.w
    if resid is None:
        resid = obs.u - current_matrix(state, params)[0](s)
    s2 = float(s @ s)

    # W <- W - rho (P(grad) / L1 + coeff S), grad = -2 resid s^T / ||s||^2.  In Case II,
    # <P(grad), W> = <grad, W> = -2 resid^T W s / ||s||^2 since W = P(W).
    coeff, sep = 0.0, state.last_sep
    if state.t >= 1 and sep is not None and sep.case is SepCase.CASE_II:
        coeff = max(0.0, 2.0 * float(resid @ (w @ s)) / (s2 * feas.l1) / sep.gamma)
    structure = feas.structure
    if isinstance(structure, Sparse):  # O(nnz) gather on the pattern, plus the diagonal
        rows, cols, flat, _ = pattern_index(structure.pattern, len(s))
        vals = -2.0 * (resid[rows] * s[cols]) / s2 / feas.l1
        if coeff:
            vals += coeff * sep.s.take(flat)
        w.flat[flat] -= params.rho * vals
    else:
        a = (params.rho / (s2 * feas.l1)) * resid
        if isinstance(structure, Symmetric):
            mirror = s, a
        elif isinstance(structure, JSymmetric):  # J (a s^T)^T J
            m = structure.m
            mirror = np.concatenate([s[:m], -s[m:]]), np.concatenate([a[:m], -a[m:]])
        else:
            a, mirror = 2.0 * a, None
        _add_rank_two(w, a, s, mirror, (-params.rho * coeff, sep.s) if coeff else None)
    nrm = np.linalg.norm(w)
    if nrm > params.radius:
        w *= params.radius / nrm

    t_next = state.t + 1
    delta = params.delta_schedule(t_next)
    q = params.failure_schedule(t_next)
    sep = sep_feasible(w, delta, q, feas, state.rng)

    gamma = 1.0 if sep.case is SepCase.CASE_I else sep.gamma
    state.scale = gamma if params.option is LearnerOption.OPTION_I else (1.0 + delta) * gamma
    state.t = t_next
    state.last_sep = sep
    return state


def current_matrix(
    state: LearnerState, params: LearnerParams
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """v -> B v and v -> B^T v for the played B = L1 W / scale + (L1 + mu) I,
    from W's own products (its pattern's CSR matrix for Sparse): B is never
    formed.  The closures read W, which the next observe_loss updates."""
    feas, w = params.feasible, state.w
    c1, c0 = feas.l1 / state.scale, feas.l1 + feas.mu
    structure = feas.structure
    if isinstance(structure, Sparse):
        w_mv, w_mv_t = pattern_matvecs(structure.pattern, w)
    else:
        w_mv, w_mv_t = (lambda v: w @ v), (lambda v: w.T @ v)
    apply = lambda v: c1 * w_mv(v) + c0 * v
    if isinstance(structure, Symmetric):
        return apply, apply
    return apply, (lambda v: c1 * w_mv_t(v) + c0 * v)


def played_matrix(state: LearnerState, params: LearnerParams) -> np.ndarray:
    """The played B as a dense array, for checks and demos; the solver
    applies it through current_matrix."""
    return from_hat(state.w / state.scale, params.feasible)
