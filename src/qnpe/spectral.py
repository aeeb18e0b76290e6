"""Randomized Lanczos, on the inner solve's KrylovBasis, and the two spectral
separation primitives, which share one separator on an n x n operator.

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

from .linear_solver import KrylovBasis
from .problems import SolverError


class SepCase(Enum):
    CASE_I = 1
    CASE_II = 2


@dataclass
class SepResult:
    """Output (gamma, S) of an approximate separation oracle.

    Case I (gamma <= 1) certifies approximate feasibility and carries no S.
    Case II carries the separating matrix S = c a b^T, ||S||_F <= 1, as its
    rank-one factors (c, a, b), and is never formed: an entry is c * (a_i * b_j).
    `matvecs` counts the W-products the oracle's Lanczos runs spent.
    """

    gamma: float
    case: SepCase
    factors: tuple[float, np.ndarray, np.ndarray] | None = None  # None in Case I
    matvecs: int = 0


@dataclass
class LanczosResult:
    alphas: np.ndarray  # diagonal of T, length N
    betas: np.ndarray  # off-diagonal of T, length N-1
    basis: np.ndarray  # N x d orthonormal Lanczos vectors, one per row
    steps_taken: int

    def ritz_vector(self, z: np.ndarray) -> np.ndarray:
        """z^T V, scaled back onto the unit sphere if rounding left it outside,
        so that ||S||_F <= 1 holds exactly for the separator built from it."""
        u = z @ self.basis
        nrm = np.linalg.norm(u)
        return u / nrm if nrm > 1.0 else u


def lanczos(
    apply_sym: Callable[[np.ndarray], np.ndarray],
    d: int,
    n_steps: int,
    rng: np.random.Generator,
) -> LanczosResult:
    """Lanczos on a symmetric operator, KrylovBasis's steps from a start
    uniform on the unit sphere, fully reorthogonalized: orthogonality loss would
    silently void the randomized guarantee.  Stops early, with steps_taken <
    n_steps, once the new off-diagonal is negligible against a running norm
    estimate, where the Krylov space is invariant and the Ritz values exact on
    it.  A non-finite operator value raises SolverError with layer spectral."""
    basis = KrylovBasis(apply_sym, rng.standard_normal(d))
    cols, norm_estimate, beta = basis.cols, 0.0, 0.0
    for k in range(n_steps):
        try:
            basis.extend()
        except SolverError as err:
            raise SolverError("spectral", "NaN/Inf in Lanczos recurrence") from err
        norm_estimate = max(norm_estimate, abs(cols[k][k]) + abs(beta))
        beta = cols[k][k + 1]
        if beta <= 1e-12 * max(norm_estimate, 1e-300):
            break
    alphas = np.array([col[-2] for col in cols])
    betas = np.array([col[-1] for col in cols[:-1]])
    return LanczosResult(alphas, betas, basis.rows[: len(alphas)], len(alphas))


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
        raise SolverError("spectral", f"tridiagonal eigenpair {i}: LAPACK info={info}")
    return float(lam[0]), z[:, 0]


def lanczos_step_count(n: int, delta: float, q: float) -> int:
    """Iteration count ceil(1/4 * sqrt(2(1 + 1/delta)) * log(11 n/q^2) + 1/2)
    for an n x n operator: the paper's c d with c = 11 for the symmetrized
    oracle (n = d) and c = 22 for the augmented one (n = 2d)."""
    return math.ceil(0.25 * math.sqrt(2.0 * (1.0 + 1.0 / delta)) * math.log(11.0 * n / q**2) + 0.5)


def _separate(apply: Callable[[np.ndarray], np.ndarray], n: int, delta: float, q: float,
              rng: np.random.Generator, per_step: int, scale: float, both_ends: bool,
              factors: Callable[[float, np.ndarray], tuple]) -> SepResult:
    """The separator both oracles share: Lanczos on the n x n operator
    `apply`, for the step count (at most n), counted as per_step W-matvecs per
    step.  Its top Ritz pair, or with both_ends the pair of largest magnitude
    (the top one on a tie), gives gamma = lambda / scale; Case II builds S's
    factors from (sign, Ritz vector), the vector formed only then."""
    if delta <= 0 or not (0 < q < 1):
        raise ValueError("require delta > 0 and q in (0, 1)")
    res = lanczos(apply, n, min(lanczos_step_count(n, delta, q), n), rng)
    matvecs = per_step * res.steps_taken
    lam, z = tridiag_eigpair(res.alphas, res.betas, res.steps_taken - 1)
    sign = 1.0
    if both_ends:
        lam_min, z_min = tridiag_eigpair(res.alphas, res.betas, 0)
        if lam < -lam_min:
            sign, lam, z = -1.0, -lam_min, z_min
    gamma = lam / scale
    if gamma <= 1.0:
        return SepResult(gamma=gamma, case=SepCase.CASE_I, matvecs=matvecs)
    return SepResult(gamma=gamma, case=SepCase.CASE_II, factors=factors(sign, res.ritz_vector(z)),
                     matvecs=matvecs)


def ext_evec(
    apply_sym: Callable[[np.ndarray], np.ndarray],
    d: int,
    delta: float,
    q: float,
    rng: np.random.Generator,
    symmetric: bool = False,
) -> SepResult:
    """Approximate extreme-eigenvalue separation oracle for the symmetrized
    input sym(W) = (W + W^T)/2, applied by `apply_sym`.  `symmetric` says
    whether W itself is symmetric: each step then costs one W-matvec, else two.

    With probability >= 1 - q the output satisfies: Case I (gamma <= 1)
    implies the spectrum of sym(W) lies in [-(1+delta), 1+delta]; Case II
    implies the gamma-scaled spectrum does, and S = +/- u u^T separates W from
    every matrix whose symmetric part fits in the unit interval.
    """
    return _separate(apply_sym, d, delta, q, rng, 1 if symmetric else 2, 1.0, True,
                     lambda sign, u: (sign, u, u))


def max_svec(
    apply_aug: Callable[[np.ndarray], np.ndarray],
    d: int,
    delta: float,
    q: float,
    rng: np.random.Generator,
) -> SepResult:
    """Approximate maximum-singular-triplet separation oracle.

    Runs Lanczos on the augmented operator (u, v) -> (W v, W^T u), applied by
    `apply_aug` to a 2d-vector and counted as two W-matvecs per step, whose
    top eigenvalue is sigma_max(W); gamma = lambda_1 / 3.  Case II returns
    S = (2/3) a b^T from the partitioned top Ritz vector [a, b], which
    satisfies <S, W> = gamma and ||S||_F <= 1.
    """
    return _separate(apply_aug, 2 * d, delta, q, rng, 2, 3.0, False,
                     lambda _, v: (2.0 / 3.0, v[:d], v[d:]))
