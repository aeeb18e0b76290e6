"""Feasible-set layer: the subspace projections induced by each Jacobian
structure, the oracle operators on the learner's W, and the composed
approximate separation oracle."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.sparse._sparsetools import csr_matvec

from .problems import JSymmetric, Sparse, StructureSpec, Symmetric, sparse_matvec
from .spectral import SepCase, SepResult, ext_evec, max_svec

if TYPE_CHECKING:
    from .learner import LowRank, PatternValues


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


@functools.lru_cache(maxsize=8)
def oracle_index(pattern: frozenset, d: int) -> tuple[np.ndarray, ...]:
    """Gather positions into the values of W in pattern_index order, with one
    zero appended for entries off the pattern, and CSR arrays of the two
    oracle operators: sym(W) on the symmetrized pattern, read at (i, j) and
    (j, i), and the 2d x 2d augmented [[0, W], [W^T, 0]], whose W^T rows are
    the CSC order of the values.  int32 throughout: every entry is at most
    2 nnz, and 2 nnz < 2**31 for any pattern that fits in memory."""
    rows, cols, flat, indptr = pattern_index(pattern, d)
    nnz = len(flat)
    sym = np.union1d(flat, cols.astype(np.int64) * d + rows)
    sym_rows, sym_cols = np.divmod(sym, d)
    keys = np.stack([sym, sym_cols * d + sym_rows])  # (i, j) and (j, i)
    at = np.minimum(np.searchsorted(flat, keys), nnz - 1)
    by_col = np.lexsort((rows, cols))
    index = (
        *np.where(flat[at] == keys, at, nnz), sym_cols, np.searchsorted(sym_rows, np.arange(d + 1)),
        np.concatenate([np.arange(nnz), by_col]),
        np.concatenate([cols + d, rows[by_col]]),
        np.concatenate([indptr, nnz + np.searchsorted(cols[by_col], np.arange(1, d + 1))]),
    )
    index = tuple(a.astype(np.int32) for a in index)
    for a in index:  # cached and shared by every caller
        a.flags.writeable = False
    return index


def project_subspace(structure: StructureSpec, w: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the structural subspace: symmetrization,
    J-symmetrization (W + J W^T J)/2, pattern masking, or identity."""
    if isinstance(structure, Symmetric):
        return 0.5 * (w + w.T)
    if isinstance(structure, JSymmetric):
        s = _j_signs(structure.m, structure.n)
        # (W + J W^T J) / 2 with J = diag(s)
        return 0.5 * (w + s[:, None] * w.T * s[None, :])
    if isinstance(structure, Sparse):
        _, _, flat, _ = pattern_index(structure.pattern, w.shape[0])
        out = np.zeros_like(w)
        np.put(out, flat, w.take(flat))
        return out
    return w


def oracle_operators(structure: StructureSpec,
                     w: LowRank | PatternValues) -> tuple[Callable, Callable]:
    """(v -> sym(W) v, x -> [W x[d:], W^T x[:d]]) for the learner's
    non-Symmetric W in its subspace.  Sparse's values are gathered, in
    O(nnz), into one CSR matrix per operator, applied through scipy's
    compiled kernel; W = base + U V^T is applied through its factors.
    JSymmetric W = [[W11, W12], [-W12^T, W22]] has sym(W) = blkdiag(W11,
    W22), and W^T u = J W J u, so the augmented product is one d x 2 product."""
    d = w.shape[0]
    if isinstance(structure, Sparse):
        sym, sym_t, cols, indptr, aug, aug_cols, aug_indptr = oracle_index(structure.pattern, d)
        values = np.append(w.values, 0.0)
        return (sparse_matvec(csr_matvec, indptr, cols, 0.5 * (values[sym] + values[sym_t])),
                sparse_matvec(csr_matvec, aug_indptr, aug_cols, values[aug]))
    if isinstance(structure, JSymmetric):
        m, j = structure.m, _j_signs(structure.m, structure.n)
        top, bottom = slice(None, m), slice(m, None)

        def apply_aug(x: np.ndarray) -> np.ndarray:
            y = w.matvec(np.column_stack([x[d:], j * x[:d]]))
            return np.concatenate([y[:, 0], j * y[:, 1]])

        apply_sym = lambda v: np.concatenate([w.matvec(v[:m], top), w.matvec(v[m:], bottom)])
        return apply_sym, apply_aug
    return ((lambda v: 0.5 * (w.matvec(v) + w.rmatvec(v))),
            (lambda x: np.concatenate([w.matvec(x[d:]), w.rmatvec(x[:d])])))


def sep_feasible(
    w: LowRank | PatternValues,
    fro: float,
    delta: float,
    q: float,
    structure: StructureSpec,
    rng: np.random.Generator,
) -> SepResult:
    """Composed separation oracle for the transformed feasible set, at the
    learner's model of W, read only through its products (oracle_operators),
    with fro = ||W||_F, which the caller already holds from the clip.

    For Symmetric structure the eigenvalue constraint already implies the
    operator-norm constraint, so the extreme-eigenvalue oracle alone suffices.
    Otherwise both sub-oracles are queried with failure budget q/2 each and
    the larger gamma wins (ties go to the eigenvalue oracle).  A Case II
    result carries the oracle's rank-one S; the learner steps along its
    projection P(S), which has the same inner product with any W in the
    subspace.  The result carries the matvecs of every oracle that ran.
    `oracle_operators` builds the two operators from the structure.

    Case I is certified exactly, with no Lanczos, from the Frobenius norm:
    ||sym(W)||_op <= ||W||_op <= ||W||_F, so ||W||_F <= 1 answers ext_evec
    and ||W||_F <= 3 answers max_svec, each with gamma the bound itself and
    no matvecs.

    Preconditions, not checked here: delta > 0, q in (0, 1) and w in the
    structural subspace; the learner gives all three by construction.
    """
    d = w.shape[0]
    # fro is NaN for a non-finite W: no certificate, and Lanczos raises.  Each certified
    # call draws the start vector its Lanczos run would have drawn, so the rng stream,
    # and every later Ritz vector and separator, stay unchanged.

    if fro <= 1.0:  # answers both oracles
        rng.standard_normal(d)
        if not isinstance(structure, Symmetric):
            rng.standard_normal(2 * d)
        return SepResult(gamma=fro, case=SepCase.CASE_I)
    if isinstance(structure, Symmetric):
        return ext_evec(w.matvec, d, delta, q, rng, symmetric=True)

    apply_sym, apply_aug = oracle_operators(structure, w)
    r1 = ext_evec(apply_sym, d, delta, q / 2, rng, symmetric=False)
    if fro <= 3.0:
        rng.standard_normal(2 * d)
        r2 = SepResult(gamma=fro / 3.0, case=SepCase.CASE_I)
    else:
        r2 = max_svec(apply_aug, d, delta, q / 2, rng)
    chosen = r1 if r1.gamma >= r2.gamma else r2
    chosen.matvecs = r1.matvecs + r2.matvecs
    return chosen
