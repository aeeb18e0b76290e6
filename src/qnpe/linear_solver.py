"""Matrix-free inexact linear solver: CGLS for non-symmetric systems,
conjugate residual for symmetric ones.

Both methods start from s0 = 0 and return the first iterate satisfying the
relative termination test ||A s - b|| <= rho * ||s||.  CGLS is analytically
equivalent to conjugate gradient on the normal equations A^T A s = A^T b; the
conjugate residual recurrence reuses q_{k+1} = v_{k+1} + beta_k q_k so only one
matrix-vector product is needed per iteration.
"""

from __future__ import annotations

import math
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
    matvecs: int  # iterations * (1 if symmetric else 2), so 0 when b = 0
    converged: bool


def linear_solve(
    op: LinearOp, b: np.ndarray, rho_tol: float, max_iters: int | None = None
) -> SolveReport:
    """Solve A s = b inexactly: return the first s_k with ||r_k|| <= rho_tol * ||s_k||.

    The caller is expected to provide a well-posed system (in QNPE usage
    sym(A) >= I).  b = 0 short-circuits to s = 0.  Exhausting max_iters
    (default 20*d) returns converged=False.  No product is made after the last
    residual test.  NaN/Inf is caught in the dot products gamma, q.q, s.s and
    r.r, so a squared norm that overflows also counts as a breakdown.
    """
    if rho_tol <= 0:
        raise ValueError("rho_tol must be positive")
    d = op.dim
    b = np.asarray(b, dtype=float)
    if max_iters is None:
        max_iters = 20 * d

    if not np.any(b):
        return SolveReport(np.zeros(d), 0.0, 0, 0, True)

    per_iter = 1 if op.symmetric else 2  # CR: A r; CGLS: A^T r and A p
    s = np.zeros(d)
    r = b.copy()
    res_norm = math.sqrt(r.dot(r))
    tiny = np.finfo(float).tiny
    for k in range(1, max_iters + 1):
        # the next search direction p, and q = A p, from the current residual
        if op.symmetric:
            v = op.apply(r)
            gamma_next = float(v @ r)
            if k == 1:
                p, q = r, v
            else:
                beta = gamma_next / gamma
                p = r + beta * p
                q = v + beta * q
        else:
            v = op.apply_transpose(r)
            gamma_next = float(v @ v)
            p = v if k == 1 else v + (gamma_next / gamma) * p
            q = op.apply(p)
        gamma = gamma_next
        qq = float(q @ q)
        if not (math.isfinite(qq) and math.isfinite(gamma)):
            raise NumericalBreakdownError("non-finite curvature in linear solve")
        if qq <= tiny or abs(gamma) <= tiny:  # Krylov space exhausted
            raise NumericalBreakdownError("Krylov breakdown before reaching the residual tolerance")
        alpha = gamma / qq
        s = s + alpha * p
        r = r - alpha * q
        ss, rr = float(s @ s), float(r @ r)
        if not (math.isfinite(ss) and math.isfinite(rr)):
            raise NumericalBreakdownError("non-finite or overflowing iterate in linear solve")
        res_norm = math.sqrt(rr)
        if res_norm <= rho_tol * math.sqrt(ss):
            return SolveReport(s, res_norm, k, per_iter * k, True)

    return SolveReport(s, res_norm, max_iters, per_iter * max_iters, False)
