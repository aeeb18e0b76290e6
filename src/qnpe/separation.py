"""Feasible-set layer: the affine transform between a Jacobian approximation B
and its recentered version B_hat, the subspace projections induced by each
Jacobian structure, and the composed approximate separation oracle."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

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


@functools.lru_cache(maxsize=8)
def pattern_index(pattern: frozenset, d: int) -> tuple[np.ndarray, ...]:
    """(rows, cols, flat, indptr) of the pattern plus the diagonal in row-major
    order: flat = rows * d + cols indexes the raveled matrix, indptr is CSR's."""
    pairs = np.array(list(pattern), dtype=np.int64).reshape(-1, 2)
    flat = np.unique(np.concatenate([np.arange(d) * (d + 1), pairs[:, 0] * d + pairs[:, 1]]))
    rows, cols = (a.astype(np.int32) for a in np.divmod(flat, d))
    index = rows, cols, flat, np.searchsorted(rows, np.arange(d + 1)).astype(np.int32)
    for a in index:  # cached and shared by every caller
        a.flags.writeable = False
    return index


def sparse_matvec(kernel: Callable, indptr: np.ndarray, indices: np.ndarray,
                  data: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """v -> A v for the square A stored as (indptr, indices, data) in CSR
    (kernel=csr_matvec) or CSC (csc_matvec) form.  These are the compiled
    kernels that scipy's CSR product and its transpose's reach; called
    without scipy's Python dispatch, which costs more than the kernel at
    oracle sizes, they give bitwise the same products."""
    n = len(indptr) - 1

    def apply(v: np.ndarray) -> np.ndarray:
        if v.shape != (n,):  # the kernel reads v unchecked
            raise ValueError(f"expected a vector of length {n}, got shape {v.shape}")
        out = np.zeros(n)
        kernel(n, n, indptr, indices, data, v, out)
        return out

    return apply


def pattern_matvecs(pattern: frozenset, b: np.ndarray) -> tuple[Callable, Callable]:
    """v -> B v and v -> B^T v on the values gathered now from the dense B,
    which must vanish off the pattern: B's CSR arrays, read as CSC for B^T.
    Their explicit zeros leave every product bitwise equal to scipy's CSR
    product with b or b.T."""
    _, cols, flat, indptr = pattern_index(pattern, b.shape[0])
    data = b.take(flat)
    return (sparse_matvec(csr_matvec, indptr, cols, data),
            sparse_matvec(csc_matvec, indptr, cols, data))


@functools.lru_cache(maxsize=8)
def oracle_index(pattern: frozenset, d: int) -> tuple[np.ndarray, ...]:
    """Gather positions and CSR arrays of the two oracle operators on the
    pattern: sym(W) on the symmetrized pattern, read at (i, j) and (j, i),
    and the 2d x 2d augmented [[0, W], [W^T, 0]], whose W^T rows are the CSC
    order of the same positions.  int32 throughout: d * d < 2**31 for any
    dense W that fits in memory."""
    rows, cols, flat, indptr = pattern_index(pattern, d)
    sym = np.union1d(flat, cols.astype(np.int64) * d + rows)
    sym_rows, sym_cols = np.divmod(sym, d)
    by_col = np.lexsort((rows, cols))
    index = (
        sym, sym_cols * d + sym_rows, sym_cols, np.searchsorted(sym_rows, np.arange(d + 1)),
        np.concatenate([flat, flat[by_col]]),
        np.concatenate([cols + d, rows[by_col]]),
        np.concatenate([indptr, len(flat) + np.searchsorted(cols[by_col], np.arange(1, d + 1))]),
    )
    index = tuple(a.astype(np.int32) for a in index)
    for a in index:  # cached and shared by every caller
        a.flags.writeable = False
    return index


def oracle_matrices(pattern: frozenset, w: np.ndarray) -> tuple[tuple[np.ndarray, ...], ...]:
    """(W + W^T)/2 and [[0, W], [W^T, 0]] as CSR (indptr, indices, data)
    triples, gathered in O(nnz) from the dense W, which must vanish off the
    pattern."""
    d = w.shape[0]
    sym, sym_t, sym_cols, sym_indptr, aug, aug_cols, aug_indptr = oracle_index(pattern, d)
    return (
        (sym_indptr, sym_cols, 0.5 * (w.take(sym) + w.take(sym_t))),
        (aug_indptr, aug_cols, w.take(aug)),
    )


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
        _, _, flat, _ = pattern_index(structure.pattern, w.shape[0])
        out = np.zeros_like(w)
        np.put(out, flat, w.take(flat))
        return out
    return w


def subspace_residual(structure: StructureSpec, w: np.ndarray) -> float:
    """max |P(W) - W|: how far W is from the structural subspace."""
    return float(np.max(np.abs(project_subspace(structure, w) - w)))


def to_hat(b: np.ndarray, params: FeasibleSetParams) -> np.ndarray:
    """B_hat = (B - (L1 + mu) I) / L1, recentering the feasible set at 0."""
    b = np.asarray(b, dtype=float)
    return (b - (params.l1 + params.mu) * np.eye(b.shape[0])) / params.l1


def from_hat(b_hat: np.ndarray, params: FeasibleSetParams) -> np.ndarray:
    """B = L1 B_hat + (L1 + mu) I."""
    b = np.multiply(params.l1, b_hat)
    b.flat[:: b.shape[0] + 1] += params.l1 + params.mu
    return b


def oracle_operators(structure: StructureSpec, w: np.ndarray) -> tuple[Callable, Callable]:
    """(v -> sym(W) v, x -> [W x[d:], W^T x[:d]]) for a non-Symmetric W in
    its subspace.  Sparse applies one CSR matrix per operator through scipy's
    compiled kernel.  JSymmetric W = [[W11, W12], [-W12^T, W22]] has
    sym(W) = blkdiag(W11, W22) exactly, and W^T u = J W J u, so the augmented
    product reads W once, as one d x 2 product.  General uses the dense
    products."""
    d = w.shape[0]
    if isinstance(structure, Sparse):
        sym, aug = oracle_matrices(structure.pattern, w)
        return sparse_matvec(csr_matvec, *sym), sparse_matvec(csr_matvec, *aug)
    if isinstance(structure, JSymmetric):
        m, j = structure.m, _j_signs(structure.m, structure.n)
        w11, w22 = w[:m, :m], w[m:, m:]

        def apply_aug(x: np.ndarray) -> np.ndarray:
            y = w @ np.column_stack([x[d:], j * x[:d]])
            return np.concatenate([y[:, 0], j * y[:, 1]])

        return (lambda v: np.concatenate([w11 @ v[:m], w22 @ v[m:]])), apply_aug
    return ((lambda v: 0.5 * (w @ v + w.T @ v)),
            (lambda x: np.concatenate([w @ x[d:], w.T @ x[:d]])))


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
    is projected back into the subspace.  `oracle_operators` builds the two
    operators from the structure.

    Precondition, not checked here: w lies in the structural subspace (the
    learner keeps it there; debug_certificates re-checks it).
    """
    w = np.asarray(w, dtype=float)
    d = w.shape[0]
    structure = params.structure

    if isinstance(structure, Symmetric):
        return ext_evec(lambda v: w @ v, d, delta, q, rng, symmetric=True,
                        matvec_counter=matvec_counter)

    apply_sym, apply_aug = oracle_operators(structure, w)
    r1 = ext_evec(apply_sym, d, delta, q / 2, rng, symmetric=False,
                  matvec_counter=matvec_counter)
    r2 = max_svec(apply_aug, d, delta, q / 2, rng, matvec_counter=matvec_counter)
    chosen = r1 if r1.gamma >= r2.gamma else r2
    if chosen.case is SepCase.CASE_II:
        chosen.s = project_subspace(structure, chosen.s)
    return chosen
