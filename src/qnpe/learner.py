"""Projection-free online learner over the transformed feasible set, and the
structural subspaces its W lives in.

The learner maintains an auxiliary matrix W_t inside the Frobenius ball of
radius R = sqrt(d), starting from W_0 = 0 (the center (L1 + mu) I), plays
the structured Jacobian approximation B_t obtained from W_t through the
separation oracle, and takes an online projected gradient step on the
surrogate loss after every observation.  Only rounds where the outer line
search backtracked, with a finite last rejected trial that moved z, produce
observations; in all other iterations the played matrix is simply left
unchanged by the caller.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .problems import JSymmetric, Sparse, StructureSpec, Symmetric, require, sparse_matvec
from .separation import sep_feasible
from .spectral import SepCase, SepResult


# the theory step size, keyed by mu > 0: Option I, else Option II
DEFAULT_RHO = {True: 1.0 / 121.0, False: 1.0 / 81.0}


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


def _onto_ball(w: np.ndarray, radius: float) -> float:
    """Scale the array w in place onto the ball ||w||_F <= radius when it lies
    outside; returns ||w||_F after.  When the squares overflow, w is divided
    by its largest entry before it is squared, so a huge step lands on the
    ball instead of zeroing w."""
    nrm = float(np.linalg.norm(w))
    if math.isinf(nrm):
        big = float(np.max(np.abs(w)))
        w /= big
        nrm = float(np.linalg.norm(w))  # of w / big
        w *= min(big, radius / nrm)
        return min(big * nrm, radius)
    if nrm > radius:
        w *= radius / nrm
        return radius
    return nrm


class LowRank:
    """The learner's W = base + U V^T for General, Symmetric and JSymmetric
    structure, in the compact form of Byrd, Nocedal & Schnabel (1994).

    The factors are stored row-wise, U = u[:r]^T and V = v[:r]^T with u and v
    of d columns, so the live rows are contiguous.  base is a dense d x d
    array in the subspace, or None for 0: the learner starts with none, and
    the first fold makes one.  The Gram matrices U^T U and V^T V (gu, gv)
    are kept, so that
    ||W||_F^2 = ||base||^2 + 2 <base, U V^T> + sum(U^T U o V^T V) costs
    O(d r) per appended pair, and W x costs O(d r) plus base @ x.  When an
    append would take r past d/2, where the factored product stops being
    cheaper than a dense one, P(base + U V^T) is folded into base and r
    restarts at 0.
    """

    def __init__(self, structure: StructureSpec, d: int) -> None:
        self.structure = structure
        self.shape = (d, d)
        self.base, self.base_sq = None, 0.0
        self.cross = 0.0  # <base, U V^T> = sum_i u_i . (base v_i)
        self.r = 0
        self.u, self.v = np.empty((0, d)), np.empty((0, d))
        self.gu, self.gv = np.empty((0, 0)), np.empty((0, 0))

    def matvec(self, x: np.ndarray, block: slice = slice(None)) -> np.ndarray:
        """W x for a vector or a stack of columns x; with `block`, the diagonal
        block W[block, block] x."""
        y = self.u[:self.r, block].T @ (self.v[:self.r, block] @ x)
        if self.base is not None:
            y += self.base[block, block] @ x
        return y

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """W^T x."""
        y = self.v[:self.r].T @ (self.u[:self.r] @ x)
        if self.base is not None:
            y += self.base.T @ x
        return y

    def dense(self) -> np.ndarray:
        """base + U V^T as one d x d array, not projected."""
        w = self.u[:self.r].T @ self.v[:self.r]
        if self.base is not None:
            w += self.base
        return w

    def oracle_operators(self) -> tuple[Callable, Callable]:
        """(v -> sym(W) v, x -> [W x[d:], W^T x[:d]]), the separation oracle's
        two operators, through the factors.  JSymmetric W = [[W11, W12],
        [-W12^T, W22]] has sym(W) = blkdiag(W11, W22), and W^T u = J W J u, so
        the augmented product is one d x 2 product."""
        d = self.shape[0]
        if isinstance(self.structure, JSymmetric):
            m, j = self.structure.m, _j_signs(self.structure.m, self.structure.n)
            top, bottom = slice(None, m), slice(m, None)

            def apply_aug(x: np.ndarray) -> np.ndarray:
                y = self.matvec(np.column_stack([x[d:], j * x[:d]]))
                return np.concatenate([y[:, 0], j * y[:, 1]])

            apply_sym = lambda v: np.concatenate([self.matvec(v[:m], top),
                                                  self.matvec(v[m:], bottom)])
            return apply_sym, apply_aug
        return ((lambda v: 0.5 * (self.matvec(v) + self.rmatvec(v))),
                (lambda x: np.concatenate([self.matvec(x[d:]), self.rmatvec(x[:d])])))

    def fold(self) -> None:
        """base <- P(base + U V^T) and r <- 0."""
        self.base = np.ascontiguousarray(project_subspace(self.structure, self.dense()))
        self.base_sq = float(np.vdot(self.base, self.base))
        self.cross = 0.0
        self.r = 0

    def append(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """W += x y^T for each (x, y), as new factor rows."""
        d, k = self.shape[0], len(pairs)
        if self.r and 2 * (self.r + k) > d:
            self.fold()
        r, n = self.r, self.r + k
        if n > len(self.u):
            self._grow(n)
        for i, (x, y) in enumerate(pairs):
            self.u[r + i], self.v[r + i] = x, y
        for f, g in ((self.u, self.gu), (self.v, self.gv)):
            g[r:n, :n] = f[r:n] @ f[:n].T
            g[:r, r:n] = g[r:n, :r].T
        if self.base is not None:
            self.cross += float(np.vdot(self.u[r:n], self.v[r:n] @ self.base.T))
        self.r = n

    def _grow(self, n: int) -> None:
        """Room for n factor rows: the capacity doubles, up to d/2 (or n)."""
        r, d = self.r, self.shape[0]
        cap = max(n, min(max(2 * len(self.u), 16), d // 2))
        u, v = np.empty((cap, d)), np.empty((cap, d))
        u[:r], v[:r] = self.u[:r], self.v[:r]
        gu, gv = np.empty((cap, cap)), np.empty((cap, cap))
        gu[:r, :r], gv[:r, :r] = self.gu[:r, :r], self.gv[:r, :r]
        self.u, self.v, self.gu, self.gv = u, v, gu, gv

    def clip(self, radius: float) -> float:
        """Scale W onto the ball ||W||_F <= radius when it lies outside, by
        scaling U (and base); returns ||W||_F after, from the Gram form.  A W
        whose squares overflow, or that is not finite, is folded into base and
        clipped densely."""
        r = self.r
        uv = float(np.einsum("ij,ij->", self.gu[:r, :r], self.gv[:r, :r]))  # ||U V^T||_F^2
        sq = self.base_sq + 2.0 * self.cross + uv
        if not math.isfinite(sq):
            self.fold()
            nrm = _onto_ball(self.base, radius)
            self.base_sq = float(np.vdot(self.base, self.base))
            return nrm
        nrm = math.sqrt(max(sq, 0.0))
        if nrm <= radius:
            return nrm
        f = radius / nrm
        self.u[:r] *= f
        self.gu[:r, :r] *= f * f
        if self.base is not None:
            self.base *= f
            self.base_sq *= f * f
            self.cross *= f * f
        return radius


class PatternValues:
    """The learner's W for Sparse structure, with LowRank's interface: its
    values on the pattern plus the diagonal, a length-nnz vector in
    pattern_index order, starting at 0.  W x and
    W^T x are the CSR and CSC kernels over the live values, and a pair
    (x, y) adds P(x y^T), x y^T gathered on the pattern."""

    def __init__(self, structure: Sparse, d: int) -> None:
        self.structure = structure
        self.shape = (d, d)
        self.rows, self.cols, self.flat, indptr = pattern_index(structure.pattern, d)
        self.values = np.zeros(len(self.flat))
        self.matvec = sparse_matvec(csr_matvec, indptr, self.cols, self.values)
        self.rmatvec = sparse_matvec(csc_matvec, indptr, self.cols, self.values)

    def dense(self) -> np.ndarray:
        """W as one d x d array."""
        w = np.zeros(self.shape)
        np.put(w, self.flat, self.values)
        return w

    def oracle_operators(self) -> tuple[Callable, Callable]:
        """(v -> sym(W) v, x -> [W x[d:], W^T x[:d]]): the values gathered, in
        O(nnz), into one CSR matrix per operator (oracle_index), applied
        through scipy's compiled kernel."""
        sym, sym_t, cols, indptr, aug, aug_cols, aug_indptr = oracle_index(
            self.structure.pattern, self.shape[0])
        values = np.append(self.values, 0.0)
        return (sparse_matvec(csr_matvec, indptr, cols, 0.5 * (values[sym] + values[sym_t])),
                sparse_matvec(csr_matvec, aug_indptr, aug_cols, values[aug]))

    def append(self, pairs: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """W += P(x y^T) for each (x, y): O(nnz) each."""
        for x, y in pairs:
            self.values += x[self.rows] * y[self.cols]

    def clip(self, radius: float) -> float:
        """Scale W onto the ball ||W||_F <= radius; returns ||W||_F after."""
        return _onto_ball(self.values, radius)


def _doubled_projection(structure: StructureSpec, x: np.ndarray, y: np.ndarray) -> list[tuple]:
    """Factor pairs of 2 P(x y^T): x y^T plus its mirror, y x^T for Symmetric
    and J (x y^T)^T J = (J y)(J x)^T for JSymmetric; General doubles x y^T."""
    if isinstance(structure, Symmetric):
        return [(x, y), (y, x)]
    if isinstance(structure, JSymmetric):
        m = structure.m
        return [(x, y), (np.concatenate([y[:m], -y[m:]]), np.concatenate([x[:m], -x[m:]]))]
    return [(2.0 * x, y)]


def new_model(structure: StructureSpec, d: int) -> LowRank | PatternValues:
    """W = 0 stored for the structure: PatternValues for Sparse, LowRank
    otherwise."""
    return (PatternValues if isinstance(structure, Sparse) else LowRank)(structure, d)


@dataclass
class Learner:
    """The online learner, its constants and its state.  mu > 0 selects Option I
    (strongly monotone: play inside (1 + delta) C), mu = 0 Option II (monotone:
    play inside C).  rho defaults to the theory's value for the option, the
    clip radius is sqrt(dim) and the oracle failure budget p the theory's 0.1.
    It starts at the center (L1 + mu) I, W_0 = 0, stored without any d x d
    array: it lies in every structural subspace and in the feasible set, and
    the updates keep W in both."""

    structure: StructureSpec
    dim: int
    mu: float
    l1: float
    rng: np.random.Generator
    rho: float | None = None
    t: int = field(init=False, default=0)
    model: LowRank | PatternValues = field(init=False)  # W's one form; ||W||_F <= R
    scale: float = field(init=False, default=1.0)  # B = L1 W / scale + (L1 + mu) I, never formed
    last_sep: SepResult | None = field(init=False, default=None)  # the last round's oracle
    p: ClassVar[float] = 0.1  # overall oracle failure budget

    def __post_init__(self) -> None:
        """Every constant's type and range, checked once when the learner is built."""
        require("dim", self.dim, lambda x: x >= 1, ">= 1", integer=True)
        require("l1", self.l1, lambda x: x > 0, "> 0")
        require("mu", self.mu, lambda x: 0 <= x <= self.l1, f"in [0, l1] = [0, {self.l1}]")
        if self.rho is None:
            self.rho = DEFAULT_RHO[self.mu > 0]
        require("rho", self.rho, lambda x: x > 0, "> 0")
        self.model = new_model(self.structure, self.dim)

    def delta(self, t: int) -> float:
        """delta_t: mu / (2 L1) under Option I, 0.5 / (t+1)^(1/4) under Option II."""
        return self.mu / (2.0 * self.l1) if self.mu > 0 else 0.5 / (t + 1) ** 0.25

    def q(self, t: int) -> float:
        """q_t = p / (2.5 (t+1) log^2(t+1)) for t >= 1."""
        return self.p / (2.5 * (t + 1) * math.log(t + 1) ** 2)


def observe_loss(learner: Learner, s: np.ndarray, u: np.ndarray, b_s: np.ndarray) -> float:
    """Play one round: form the loss ||u - B s||^2 / ||s||^2 of the played B at
    a nonzero s = z~ - z with u = F(z~) - F(z) and b_s = B s, take the online
    gradient step, advance to the next played matrix via the separation
    oracle, and return the loss.  Updates W in place; the oracle's are its
    only products with W."""
    s2 = float(s.dot(s))
    if not s2 > 0:
        raise ValueError("observation direction s must be nonzero")
    resid = u - b_s
    loss = float(resid.dot(resid)) / s2
    model, structure = learner.model, learner.structure

    # W <- W - rho (P(grad) / L1 + coeff P(S)), grad = -2 resid s^T / ||s||^2, as factor pairs.
    # In Case II, <P(grad), W> = <grad, W> = -2 resid^T W s / ||s||^2 since W = P(W),
    # and W s = (u - resid - c0 s) / c1 since resid = u - (c1 W + c0 I) s: no product with W.
    coeff, sep = 0.0, learner.last_sep
    if sep is not None and sep.case is SepCase.CASE_II:
        _, _, c1, c0 = current_matrix(learner)
        w_s = (u - resid - c0 * s) / c1
        coeff = max(0.0, 2.0 * float(resid.dot(w_s)) / (s2 * learner.l1) / sep.gamma)
    # capped at the largest float, past which the clipped W no longer moves; inf would make NaN
    step = min(learner.rho / (s2 * learner.l1), np.finfo(float).max)
    pairs = _doubled_projection(structure, step * resid, s)
    if coeff:  # Symmetric's S = +-u u^T and General's are in their subspace already
        c, a, b = sep.factors
        k = -learner.rho * coeff * c
        pairs += (_doubled_projection(structure, 0.5 * k * a, b)
                  if isinstance(structure, JSymmetric) else [(k * a, b)])
    with np.errstate(over="ignore"):  # a huge step overflows W's Gram update and norm; clip copes
        model.append(pairs)
        fro = model.clip(math.sqrt(learner.dim))

    t_next = learner.t + 1
    delta = learner.delta(t_next)
    sep = sep_feasible(model, fro, delta, learner.q(t_next), learner.rng)

    gamma = 1.0 if sep.case is SepCase.CASE_I else sep.gamma
    learner.scale = gamma if learner.mu > 0 else (1.0 + delta) * gamma
    learner.t = t_next
    learner.last_sep = sep
    return loss


def current_matrix(
    learner: Learner,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray] | None,
           float, float]:
    """(v -> W v, v -> W^T v, c1, c0) for the played B = c1 W + c0 I =
    L1 W / scale + (L1 + mu) I: the model's own products of the live W, with
    None for W^T when Symmetric structure makes W^T = W.  B is never formed
    or applied; the line search folds c1 and c0 into its solves' shift and
    scale."""
    w_apply_t = None if isinstance(learner.structure, Symmetric) else learner.model.rmatvec
    return learner.model.matvec, w_apply_t, learner.l1 / learner.scale, learner.l1 + learner.mu
