"""Feasible-set layer: the affine transform between a Jacobian approximation B
and its recentered version B_hat, the subspace projections induced by each
Jacobian structure, and the composed approximate separation oracle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linear_solver import MatvecCounter
from .problems import JSymmetric, Sparse, StructureSpec, Symmetric
from .spectral import SepCase, SepResult, ext_evec, max_svec


@dataclass
class FeasibleSetParams:
    mu: float
    l1: float
    structure: StructureSpec

    def __post_init__(self) -> None:
        if not (0 <= self.mu <= self.l1):
            raise ValueError("require 0 <= mu <= l1")


def _j_signs(m: int, n: int) -> np.ndarray:
    return np.concatenate([np.ones(m), -np.ones(n)])


def sparse_mask(pattern: frozenset, d: int) -> np.ndarray:
    mask = np.zeros((d, d), dtype=bool)
    np.fill_diagonal(mask, True)
    for (i, j) in pattern:
        mask[i, j] = True
    return mask


def project_subspace(structure: StructureSpec, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the structural subspace: symmetrization,
    J-symmetrization (W + J W^T J)/2, pattern masking, or identity."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("expected a square matrix")
    if isinstance(structure, Symmetric):
        return 0.5 * (w + w.T)
    if isinstance(structure, JSymmetric):
        if structure.m + structure.n != w.shape[0]:
            raise ValueError("J-symmetric block sizes do not match matrix dimension")
        s = _j_signs(structure.m, structure.n)
        # (W + J W^T J) / 2 with J = diag(s)
        return 0.5 * (w + s[:, None] * w.T * s[None, :])
    if isinstance(structure, Sparse):
        return np.where(sparse_mask(structure.pattern, w.shape[0]), w, 0.0)
    return w


def to_hat(b: np.ndarray, params: FeasibleSetParams) -> np.ndarray:
    """B_hat = (B - (L1 + mu) I) / L1, recentering the feasible set at 0."""
    b = np.asarray(b, dtype=float)
    return (b - (params.l1 + params.mu) * np.eye(b.shape[0])) / params.l1


def from_hat(b_hat: np.ndarray, params: FeasibleSetParams) -> np.ndarray:
    b_hat = np.asarray(b_hat, dtype=float)
    return params.l1 * b_hat + (params.l1 + params.mu) * np.eye(b_hat.shape[0])


def sep_feasible(
    w: np.ndarray,
    delta: float,
    q: float,
    params: FeasibleSetParams,
    rng: np.random.Generator,
    matvec_counter: MatvecCounter | None = None,
) -> SepResult:
    """Composed separation oracle for the transformed feasible set.

    For Symmetric structure the eigenvalue constraint already implies the
    operator-norm constraint, so the extreme-eigenvalue oracle alone suffices.
    Otherwise both sub-oracles are queried with failure budget q/2 each and
    the larger gamma wins (ties go to the eigenvalue oracle); the returned S
    is projected back into the subspace.
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    if np.max(np.abs(project_subspace(params.structure, w) - w)) > 1e-10:
        raise ValueError("input must lie in the structural subspace")

    symmetric = isinstance(params.structure, Symmetric)
    if symmetric:
        return ext_evec(
            lambda v: w @ v,
            lambda v: w @ v,
            d,
            delta,
            q,
            rng,
            symmetric=True,
            matvec_counter=matvec_counter,
        )

    r1 = ext_evec(
        lambda v: w @ v,
        lambda v: w.T @ v,
        d,
        delta,
        q / 2,
        rng,
        symmetric=False,
        matvec_counter=matvec_counter,
    )
    r2 = max_svec(
        lambda v: w @ v,
        lambda v: w.T @ v,
        d,
        delta,
        q / 2,
        rng,
        matvec_counter=matvec_counter,
    )
    chosen = r1 if r1.gamma >= r2.gamma else r2
    if chosen.case is SepCase.CASE_II:
        chosen.s = project_subspace(params.structure, chosen.s)
    return chosen
