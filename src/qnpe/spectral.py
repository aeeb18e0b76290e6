"""Randomized Lanczos machinery and the two spectral separation primitives.

ext_evec approximates the extreme eigenpairs of the symmetrized input and
either certifies that its spectrum fits in the (scaled) unit interval or
returns a rank-one separating matrix.  max_svec does the same for the operator
norm by running Lanczos on the 2d x 2d augmented operator
(u, v) -> (W v, W^T u).  Each takes one callable that applies its operator;
the caller decides how (dense products, or one fused CSR matrix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .linear_solver import MatvecCounter


class SepCase(Enum):
    CASE_I = 1
    CASE_II = 2


@dataclass
class SepResult:
    """Output (gamma, S) of an approximate separation oracle.

    Case I (gamma <= 1) certifies approximate feasibility and carries no S.
    Case II carries the dense separating matrix S with ||S||_F <= 1.
    """

    gamma: float
    case: SepCase
    s: np.ndarray | None = None  # None in Case I


@dataclass
class LanczosResult:
    alphas: np.ndarray  # diagonal of T, length N
    betas: np.ndarray  # off-diagonal of T, length N-1
    basis: np.ndarray  # d x N orthonormal Lanczos vectors
    steps_taken: int
    broke_down: bool


def lanczos(
    apply_sym: Callable[[np.ndarray], np.ndarray],
    d: int,
    n_steps: int,
    rng: np.random.Generator,
) -> LanczosResult:
    """Lanczos three-term recurrence on a symmetric operator with a start
    vector drawn uniformly from the unit sphere.

    Every step is fully reorthogonalized; the step count is small, and
    orthogonality loss would silently void the randomized guarantee.  Stops
    early (broke_down=True) when the new off-diagonal is negligible relative
    to a running norm estimate, in which case the Krylov space is invariant
    and the Ritz values are exact on it.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)

    basis = np.zeros((d, n_steps))
    alphas = np.zeros(n_steps)
    betas = np.zeros(max(n_steps - 1, 0))
    w = np.empty(d)  # the new direction; lanczos never writes into apply_sym's output
    scratch = np.empty(d)  # each scaled vector before it is subtracted from w
    beta = 0.0
    norm_estimate = 0.0
    steps = 0
    broke_down = False
    for k in range(n_steps):
        basis[:, k] = v
        if k:
            np.subtract(apply_sym(v), np.multiply(beta, v_prev, out=scratch), out=w)
        else:  # the recurrence's v_prev is zero
            w[:] = apply_sym(v)
        alpha = float(w.dot(v))
        if not math.isfinite(alpha):  # v is a finite unit vector: w is not finite
            raise FloatingPointError("NaN/Inf in Lanczos recurrence")
        w -= np.multiply(alpha, v, out=scratch)
        q = basis[:, : k + 1]
        w -= np.matmul(q, q.T @ w, out=scratch)
        alphas[k] = alpha
        steps = k + 1
        norm_estimate = max(norm_estimate, abs(alpha) + abs(beta))
        beta_next = math.sqrt(w.dot(w))  # np.linalg.norm's formula for a 1-D vector
        if k + 1 < n_steps:
            if beta_next <= 1e-12 * max(norm_estimate, 1e-300):
                broke_down = True
                break
            betas[k] = beta_next
            v_prev = v
            v = w / beta_next
            beta = beta_next

    return LanczosResult(
        alphas=alphas[:steps],
        betas=betas[: max(steps - 1, 0)],
        basis=basis[:, :steps],
        steps_taken=steps,
        broke_down=broke_down,
    )


def tridiag_eigpair(alphas: np.ndarray, betas: np.ndarray, i: int) -> tuple[float, np.ndarray]:
    """The i-th smallest eigenpair (lambda, z) of a symmetric tridiagonal
    matrix, via LAPACK bisection (dstebz) + inverse iteration (dstein), called
    with the arguments scipy's tridiagonal eigensolver passes for one index.  The entries must
    be finite, which lanczos guarantees: it raises on a non-finite alpha, and
    a non-finite beta makes the next alpha non-finite."""
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    m, lam, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, i + 1, i + 1, 0.0, "B")
    if info == 0:
        z, info = dstein(alphas, betas, lam[:m], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigenpair {i}: LAPACK info={info}")
    return float(lam[0]), z[:, 0]


def lanczos_step_count(d: int, delta: float, q: float, augmented: bool = False) -> int:
    """Iteration count ceil(1/4 * sqrt(2(1 + 1/delta)) * log(c*d/q^2) + 1/2)
    with c = 11 for the symmetrized oracle and c = 22 for the augmented one."""
    c = 22.0 if augmented else 11.0
    return math.ceil(0.25 * math.sqrt(2.0 * (1.0 + 1.0 / delta)) * math.log(c * d / q**2) + 0.5)


def ext_evec(
    apply_sym: Callable[[np.ndarray], np.ndarray],
    d: int,
    delta: float,
    q: float,
    rng: np.random.Generator,
    symmetric: bool = False,
    matvec_counter: MatvecCounter | None = None,
) -> SepResult:
    """Approximate extreme-eigenvalue separation oracle for the symmetrized
    input sym(W) = (W + W^T)/2, applied by `apply_sym`.  `symmetric` says
    whether W itself is symmetric: each step then costs one W-matvec, else two.

    With probability >= 1 - q the output satisfies: Case I (gamma <= 1)
    implies the spectrum of sym(W) lies in [-(1+delta), 1+delta]; Case II
    implies the gamma-scaled spectrum does, and S = +/- u u^T separates W from
    every matrix whose symmetric part fits in the unit interval.
    """
    if delta <= 0 or not (0 < q < 1):
        raise ValueError("require delta > 0 and q in (0, 1)")
    n_steps = lanczos_step_count(d, delta, q, augmented=False)
    n_steps = min(n_steps, d)

    res = lanczos(apply_sym, d, n_steps, rng)
    if matvec_counter is not None:  # lanczos applies the operator once per step
        matvec_counter.add((1 if symmetric else 2) * res.steps_taken)
    lam_max, z_max = tridiag_eigpair(res.alphas, res.betas, res.steps_taken - 1)
    lam_min, z_min = tridiag_eigpair(res.alphas, res.betas, 0)
    gamma = max(lam_max, -lam_min)
    if gamma <= 1.0:
        return SepResult(gamma=gamma, case=SepCase.CASE_I)
    if lam_max >= -lam_min:
        u = res.basis @ z_max
        sign = 1.0
    else:
        u = res.basis @ z_min
        sign = -1.0
    nrm = np.linalg.norm(u)
    if nrm > 1.0:  # guard rounding so ||S||_F <= 1 holds exactly
        u = u / nrm
    return SepResult(gamma=gamma, case=SepCase.CASE_II, s=np.outer(sign * u, u))


def max_svec(
    apply_aug: Callable[[np.ndarray], np.ndarray],
    d: int,
    delta: float,
    q: float,
    rng: np.random.Generator,
    matvec_counter: MatvecCounter | None = None,
) -> SepResult:
    """Approximate maximum-singular-triplet separation oracle.

    Runs Lanczos on the augmented operator (u, v) -> (W v, W^T u), applied by
    `apply_aug` to a 2d-vector and counted as two W-matvecs per step, whose
    top eigenvalue is sigma_max(W); gamma = lambda_1 / 3.  Case II returns
    S = (2/3) a b^T from the partitioned top Ritz vector [a, b], which
    satisfies <S, W> = gamma and ||S||_F <= 1.
    """
    if delta <= 0 or not (0 < q < 1):
        raise ValueError("require delta > 0 and q in (0, 1)")
    n_steps = lanczos_step_count(d, delta, q, augmented=True)
    n_steps = min(n_steps, 2 * d)

    res = lanczos(apply_aug, 2 * d, n_steps, rng)
    if matvec_counter is not None:
        matvec_counter.add(2 * res.steps_taken)
    lam_max, z_max = tridiag_eigpair(res.alphas, res.betas, res.steps_taken - 1)
    gamma = lam_max / 3.0
    if gamma <= 1.0:
        return SepResult(gamma=gamma, case=SepCase.CASE_I)
    v_tilde = res.basis @ z_max
    nrm = np.linalg.norm(v_tilde)
    if nrm > 1.0:
        v_tilde = v_tilde / nrm
    a, b = v_tilde[:d], v_tilde[d:]
    return SepResult(gamma=gamma, case=SepCase.CASE_II, s=(2.0 / 3.0) * np.outer(a, b))
