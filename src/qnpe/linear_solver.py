"""Matrix-free inexact linear solver: CGLS for non-symmetric systems,
conjugate residual for symmetric ones.

Both methods start from s0 = 0 and return the first iterate satisfying the
relative termination test ||A s - b|| <= rho * ||s||.  CGLS is analytically
equivalent to conjugate gradient on the normal equations A^T A s = A^T b; the
conjugate residual recurrence reuses q_{k+1} = v_{k+1} + beta_k q_k so only one
matrix-vector product is needed per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class NumericalBreakdownError(RuntimeError):
    """Raised when the Krylov recurrence produces NaN/Inf or a fatal breakdown."""


@dataclass
class LinearOp:
    """A d x d linear operator given by matvec closures.

    apply_transpose must equal apply when the operator is flagged symmetric.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_transpose: Callable[[np.ndarray], np.ndarray]
    symmetric: bool = False

    @staticmethod
    def from_matrix(a: np.ndarray, symmetric: bool | None = None) -> "LinearOp":
        a = np.asarray(a, dtype=float)
        if symmetric is None:
            symmetric = np.array_equal(a, a.T)
        return LinearOp(
            dim=a.shape[0],
            apply=lambda v: a @ v,
            apply_transpose=(lambda v: a @ v) if symmetric else (lambda v: a.T @ v),
            symmetric=symmetric,
        )


@dataclass
class SolveReport:
    solution: np.ndarray
    residual_norm: float
    iterations: int
    matvecs: int  # 1 + iterations * (1 if symmetric else 2), 0 when b = 0
    converged: bool


def _check_finite(*vectors: np.ndarray) -> None:
    for v in vectors:
        if not np.all(np.isfinite(v)):
            raise NumericalBreakdownError("non-finite value in Krylov recurrence")


def linear_solve(
    op: LinearOp, b: np.ndarray, rho_tol: float, max_iters: int | None = None
) -> SolveReport:
    """Solve A s = b inexactly: return the first s_k with ||r_k|| <= rho_tol * ||s_k||.

    The caller is expected to provide a well-posed system (in QNPE usage
    sym(A) >= I).  b = 0 short-circuits to s = 0.  Exhausting max_iters
    (default 20*d) returns converged=False with the best iterate; a breakdown
    of the recurrence is accepted as convergence only if the residual test
    already holds.
    """
    if rho_tol <= 0:
        raise ValueError("rho_tol must be positive")
    d = op.dim
    b = np.asarray(b, dtype=float)
    if max_iters is None:
        max_iters = 20 * d

    if not np.any(b):
        return SolveReport(np.zeros(d), 0.0, 0, 0, True)

    per_iter = 1 if op.symmetric else 2  # CR: A v; CGLS: A p and A^T r
    s = np.zeros(d)
    r = b.copy()
    if op.symmetric:
        v = op.apply(r)
        p = r.copy()
        q = v.copy()
        gamma = float(v @ p)
    else:
        v = op.apply_transpose(r)
        p = v.copy()
        gamma = float(v @ p)

    tiny = np.finfo(float).tiny
    for k in range(max_iters):
        res_norm = float(np.linalg.norm(r))
        if res_norm <= rho_tol * np.linalg.norm(s):
            return SolveReport(s, res_norm, k, 1 + per_iter * k, True)

        if op.symmetric:
            qk = q
        else:
            qk = op.apply(p)
        qq = float(qk @ qk)
        if not np.isfinite(qq) or not np.isfinite(gamma):
            raise NumericalBreakdownError("non-finite curvature in linear solve")
        if qq <= tiny or abs(gamma) <= tiny:
            # Krylov space exhausted; only acceptable if already converged.
            raise NumericalBreakdownError(
                "Krylov breakdown before reaching the residual tolerance"
            )
        alpha = gamma / qq
        s = s + alpha * p
        r = r - alpha * qk
        if op.symmetric:
            v = op.apply(r)
            gamma_next = float(v @ r)
            beta = gamma_next / gamma
            p = r + beta * p
            q = v + beta * q
        else:
            v = op.apply_transpose(r)
            gamma_next = float(v @ v)
            beta = gamma_next / gamma
            p = v + beta * p
        gamma = gamma_next
        _check_finite(s, r, p)

    res_norm = float(np.linalg.norm(r))
    converged = res_norm <= rho_tol * np.linalg.norm(s)
    return SolveReport(s, res_norm, max_iters, 1 + per_iter * max_iters, converged)
