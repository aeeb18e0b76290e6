"""Backtracking line search producing a step size / iterate pair that
satisfies the two acceptance conditions

    (A)  ||zh - z + eta (g + B (zh - z))||  <=  alpha1 sqrt(1 + eta mu) ||zh - z||
    (B)  ||zh - z + eta F(zh)||             <=  (alpha1 + alpha2) sqrt(1 + eta mu) ||zh - z||

Condition (A) is met by driving the inner Krylov solve of
(I + eta B) s = -eta g to relative residual alpha1 sqrt(1 + eta mu); the trial
step is accepted once (B) holds, otherwise eta is multiplied by beta and the
rejected iterate is retained (it feeds the learner's loss observation) unless
its operator value is non-finite or it equals z.  B = c1 W + c0 I is never
applied: each trial solves ((1 + eta c0) I + eta c1 W) s = -eta g on W's
products, for the unit g / ||g|| so that no squared norm underflows.  All
trials share one Krylov basis of W, or on a non-symmetric W one W^T g for
CGLS; both give W s with no further product, and so B s.  A search that
cannot accept a step raises SolverError (layer line_search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linear_solver import CglsStart, KrylovBasis, linear_solve
from .problems import SolverError


def default_max_backtracks(sigma: float, l1: float, alpha2: float, beta: float) -> int:
    """Backtracking is guaranteed to stop once eta < alpha2 / (L1 + ||B||_op)
    with ||B||_op <= 7 L1, so the trial count is bounded; add slack."""
    ratio = max(sigma * 8.0 * l1 / alpha2, 1.0)
    return 1 + math.ceil(math.log(ratio) / math.log(1.0 / beta)) + 8


@dataclass
class LineSearchOutcome:
    eta: float
    z_hat: np.ndarray
    backtracked: bool
    trial_count: int  # one operator evaluation per trial
    f_zhat: np.ndarray
    matvecs: int  # W-products of the inner solves, summed over the trials
    b_s: np.ndarray  # B (z_hat - z), from the inner solve's basis or products
    # (z~ - z, F(z~) - g, B s~) of the last rejected trial z~, the learner's
    # observation; None when no trial was rejected or the last one is unobservable
    observed: tuple[np.ndarray, np.ndarray, np.ndarray] | None


def backtrack(
    z: np.ndarray, g: np.ndarray, w_apply: Callable[[np.ndarray], np.ndarray],
    w_apply_t: Callable[[np.ndarray], np.ndarray] | None, c1: float, c0: float, sigma: float,
    f_eval: Callable[[np.ndarray], np.ndarray], *, alpha1: float, alpha2: float, beta: float,
    mu: float, max_backtracks: int,
) -> LineSearchOutcome:
    """Try step sizes sigma * beta^i, at most max_backtracks of them, until
    (B) holds; one fresh operator evaluation per trial.  The caller supplies
    g = F(z) and has checked that ||g|| is finite.  W is symmetric when
    w_apply_t = None: the trials share a KrylovBasis, else a CglsStart.  The
    constants' ranges are checked once, by SolverConfig and Problem; sigma > 0 follows."""
    norm_g = math.sqrt(g.dot(g))

    matvecs, eta = 0, sigma
    tilde = None  # (z_hat, F(z_hat), report) of the last observable rejected trial
    u = g / norm_g if norm_g else g  # the solves run at unit scale; s and W s scale back
    start = (CglsStart(w_apply, w_apply_t, u) if w_apply_t is not None
             else KrylovBasis(w_apply, u) if g.any() else None)  # a zero g never reads it

    def b_s(rep):  # B s = c1 W s + c0 s, from the inner solve's basis or products
        return norm_g * (c1 * rep.image + c0 * rep.solution)

    for trial in range(1, max_backtracks + 1):
        rho_tol = alpha1 * math.sqrt(1.0 + eta * mu)
        report = linear_solve(start, 1.0 + eta * c0, eta * c1, -eta * u, rho_tol)
        matvecs += report.matvecs
        if not report.converged:
            raise SolverError("line_search", f"inner linear solve did not reach tolerance at "
                              f"eta={eta:.3e} (residual {norm_g * report.residual_norm:.3e})")
        s = norm_g * report.solution
        z_hat = z + s
        f_zhat = f_eval(z_hat)
        resid = s + eta * f_zhat
        lhs = math.sqrt(resid.dot(resid))
        rhs = (alpha1 + alpha2) * math.sqrt(1.0 + eta * mu) * math.sqrt(s.dot(s))
        if lhs <= rhs:
            return LineSearchOutcome(
                eta=eta, z_hat=z_hat, backtracked=trial > 1, trial_count=trial, f_zhat=f_zhat,
                matvecs=matvecs, b_s=b_s(report),
                observed=None if tilde is None else (tilde[0] - z, tilde[1] - g, b_s(tilde[2])),
            )
        # a non-finite trial, or one that did not move z, is rejected but yields
        # no loss observation, and so no backtracking lower bound on the accepted step
        observable = np.all(np.isfinite(f_zhat)) and (z_hat != z).any()
        tilde = (z_hat, f_zhat, report) if observable else None
        eta *= beta

    raise SolverError(
        "line_search", f"no acceptable step size within {max_backtracks} trials "
        f"(last eta={eta / beta:.3e}); check the Lipschitz constant"
    )
