"""Problem definitions: the operator abstraction, synthetic generators for
each structural family, and suboptimality-gap evaluation.

Known roots for the nonlinear generators are found at generation time by a
dense damped-Newton solve; this is test scaffolding only, the solver itself
never sees a Jacobian.  All randomness flows through an explicit 64-bit seed
and identical seeds reproduce problems bit-identically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse import csr_array
from scipy.sparse._sparsetools import csr_matvec


# ---------------------------------------------------------------------------
# Input checks, shared by Problem, SolverConfig and the CLI


def require(name: str, value: Any, ok: Callable[[Any], bool] = lambda x: True,
            words: str = "", integer: bool = False) -> None:
    """Raise a ValueError naming `name` unless `value` is a finite real number
    (an integer when asked; never a bool) for which ok(value) holds; `words`
    states that range in the message."""
    kind = numbers.Integral if integer else numbers.Real
    try:  # math.isfinite raises OverflowError for an int beyond the float range
        valid = isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        valid = False
    if not (valid and ok(value)):
        what = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {what}{' ' + words if words else ''}, got {value!r}")


# ---------------------------------------------------------------------------
# Structure tags


@dataclass(frozen=True)
class General:
    pass


@dataclass(frozen=True)
class Symmetric:
    pass


@dataclass(frozen=True)
class JSymmetric:
    m: int
    n: int


@dataclass(frozen=True)
class Sparse:
    pattern: frozenset  # off-diagonal (i, j) pairs; the diagonal is always allowed


StructureSpec = General | Symmetric | JSymmetric | Sparse


# ---------------------------------------------------------------------------
# Gap comparison set


@dataclass(frozen=True)
class PrimalDualBox:
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray


# ---------------------------------------------------------------------------
# Problem


@dataclass
class Problem:
    """An operator F: R^d -> R^d with its regularity metadata.

    gap(z, box) is the closed-form box gap of a family that has one
    (evaluate_gap), None otherwise; the solver never calls it.  The fields are
    checked once, when the problem is built.  The solver only reads a problem,
    so one problem can serve concurrent solves, but it is a plain dataclass:
    an assigned field (perfbench's tracer swaps eval) is not checked again.
    """

    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    mu: float
    l1: float
    structure: StructureSpec
    known_root: np.ndarray | None = None
    gap: Callable[[np.ndarray, PrimalDualBox], float] | None = None

    def __post_init__(self) -> None:
        require("dim", self.dim, lambda x: x >= 1, ">= 1", integer=True)
        require("l1", self.l1, lambda x: x > 0, "> 0")
        require("mu", self.mu, lambda x: 0 <= x <= self.l1, f"in [0, l1] = [0, {self.l1}]")
        s, d = self.structure, self.dim
        root = self.known_root
        if root is not None and not (np.shape(root) == (d,) and np.all(np.isfinite(root))):
            raise ValueError(f"known_root must be a finite vector of shape ({d},), "
                             f"got shape {np.shape(root)}")
        if isinstance(s, JSymmetric) and (min(s.m, s.n) < 0 or s.m + s.n != d):
            raise ValueError(f"structure {s} needs m + n = dim = {d}")
        if self.gap is not None and not isinstance(s, JSymmetric):  # its box splits z = (x, y)
            raise ValueError(f"a closed-form gap needs JSymmetric structure, got {s}")
        if isinstance(s, Sparse):
            bad = next(((i, j) for i, j in s.pattern if not (0 <= i < d and 0 <= j < d)), None)
            if bad is not None:
                raise ValueError(f"structure Sparse has the pair {bad} outside 0..{d - 1}")


class GenerationError(RuntimeError):
    """Raised when a synthetic instance cannot be constructed as specified."""


class SolverError(RuntimeError):
    """A solve that cannot go on.  `layer` is the module that raised (driver,
    line_search, linear_solver or spectral); `k` is the outer iteration, set
    by the driver's loop, and None on a direct call into a layer."""

    def __init__(self, layer: str, message: str) -> None:
        super().__init__(layer, message)  # both in args, so that the error pickles
        self.layer, self.k = layer, None

    def __str__(self) -> str:
        where = self.layer if self.k is None else f"iteration {self.k}, {self.layer}"
        return f"{where}: {self.args[1]}"


def _damped_newton_root(
    f: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    z0: np.ndarray,
) -> np.ndarray:
    """Dense damped Newton with halving backtracking, to ||F|| <= 1e-12 in 200 steps."""
    tol = 1e-12
    z = z0.astype(float).copy()
    fz = f(z)
    for _ in range(200):
        nrm = np.linalg.norm(fz)
        if nrm <= tol:
            return z
        try:
            step = np.linalg.solve(jac(z), -fz)
        except np.linalg.LinAlgError as exc:
            raise GenerationError("singular Jacobian in root finding") from exc
        t = 1.0
        for _ in range(60):
            z_new = z + t * step
            f_new = f(z_new)
            if np.linalg.norm(f_new) < nrm:
                z, fz = z_new, f_new
                break
            t *= 0.5
        else:
            raise GenerationError("damped Newton stalled")
    if np.linalg.norm(fz) <= tol:
        return z
    raise GenerationError("damped Newton did not reach tolerance")


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


# ---------------------------------------------------------------------------
# Generators


def make_quadratic_min(d: int, mu: float, l1: float, seed: int) -> Problem:
    """F(z) = A (z - z*) with A symmetric, spectrum in [mu, l1] and both
    endpoints attained.  A is exactly symmetric, so BLAS dsymv applies it
    from one triangle."""
    if d < 1 or not (0 < mu <= l1):
        raise ValueError("require d >= 1 and 0 < mu <= l1")
    rng = np.random.default_rng(seed)
    if d == 1:
        # a single eigenvalue can only attain both endpoints when mu == l1
        a = np.array([[l1]])
    else:
        eigs = rng.uniform(mu, l1, size=d)
        eigs[0], eigs[-1] = mu, l1
        qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (qmat * eigs) @ qmat.T
        a = 0.5 * (a + a.T)
    z_star = rng.standard_normal(d)
    a_f = a.T  # a's Fortran-ordered view, which dsymv reads with no copy

    def f(z: np.ndarray) -> np.ndarray:
        if np.shape(z) != (d,):  # z - z_star would broadcast a length-1 z
            raise ValueError(f"expected a vector of length {d}, got shape {np.shape(z)}")
        return dsymv(1.0, a_f, z - z_star)

    return Problem(
        dim=d,
        eval=f,
        mu=mu,
        l1=l1,
        structure=Symmetric(),
        known_root=z_star,
    )


def make_logsumexp_min(
    d: int, n_terms: int, mu: float, smoothing: float, seed: int
) -> Problem:
    """F = grad of rho*log(sum_i exp((a_i.z - b_i)/rho)) + (mu/2)||z||^2."""
    if mu <= 0 or smoothing <= 0:
        raise ValueError("require mu > 0 and smoothing > 0")
    require("n_terms", n_terms, lambda n: n >= 1, ">= 1", integer=True)
    rng = np.random.default_rng(seed)
    rho = smoothing
    amat = rng.standard_normal((n_terms, d)) / np.sqrt(d)
    bvec = rng.standard_normal(n_terms)
    row_norms = np.linalg.norm(amat, axis=1)
    max_norm = float(row_norms.max())
    l1 = mu + max_norm**2 / rho

    def softmax_weights(z: np.ndarray) -> np.ndarray:
        t = (amat @ z - bvec) / rho
        t -= t.max()
        w = np.exp(t)
        return w / w.sum()

    def f(z: np.ndarray) -> np.ndarray:
        return amat.T @ softmax_weights(z) + mu * z

    def jac(z: np.ndarray) -> np.ndarray:
        pi = softmax_weights(z)
        return (amat.T * pi) @ amat / rho - np.outer(amat.T @ pi, amat.T @ pi) / rho + mu * np.eye(d)

    z_star = _damped_newton_root(f, jac, np.zeros(d))

    return Problem(
        dim=d,
        eval=f,
        mu=mu,
        l1=l1,
        structure=Symmetric(),
        known_root=z_star,
    )


def make_bilinear_minimax(m: int, n: int, mu: float, l1: float, seed: int) -> Problem:
    """Saddle operator of f(x, y) = (mu/2)||x||^2 + x^T C y - (mu/2)||y||^2,
    with C scaled so ||grad F||_op = l1."""
    if m < 1 or n < 1:
        raise ValueError("require m, n >= 1")
    if not (0 <= mu < l1):
        raise ValueError("require 0 <= mu < l1")
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((m, n))
    smax = np.linalg.svd(c, compute_uv=False)[0]
    target = np.sqrt(l1**2 - mu**2)
    if smax > 0:
        c *= target / smax
    d = m + n

    def f(z: np.ndarray) -> np.ndarray:
        x, y = z[:m], z[m:]
        return np.concatenate([mu * x + c @ y, mu * y - c.T @ x])  # no negated copy of C

    def gap(z: np.ndarray, box: PrimalDualBox) -> float:
        """max_{y' in box} f(x, y') - min_{x' in box} f(x', y): both inner
        problems are separable quadratics, solved coordinate-wise."""
        z = np.asarray(z, dtype=float)
        x, y = z[:m], z[m:]
        cx, cy = c.T @ x, c @ y  # the coefficients of y' and of x'
        if mu > 0:
            y_opt = np.clip(cx / mu, box.y_lo, box.y_hi)
            x_opt = np.clip(-cy / mu, box.x_lo, box.x_hi)
        else:
            y_opt = np.where(cx >= 0, box.y_hi, box.y_lo)
            x_opt = np.where(cy >= 0, box.x_lo, box.x_hi)
        f_max = 0.5 * mu * float(x @ x) + float(cx @ y_opt) - 0.5 * mu * float(y_opt @ y_opt)
        f_min = 0.5 * mu * float(x_opt @ x_opt) + float(cy @ x_opt) - 0.5 * mu * float(y @ y)
        return f_max - f_min

    return Problem(
        dim=d,
        eval=f,
        mu=mu,
        l1=l1,
        structure=JSymmetric(m, n),
        known_root=np.zeros(d),
        gap=gap,
    )


def make_sparse_equation(d: int, avg_degree: int, mu: float, l1: float, seed: int) -> Problem:
    """F(z) = M z + eps*tanh(z) - c with M supported on a random pattern Omega
    (plus diagonal), sym(M) >= mu I and ||M||_op + eps <= l1, eps = l1 / 5.
    F applies M in CSR form; only the root solve reads M dense."""
    eps_frac = 0.2
    if not (0 <= avg_degree < d):
        raise ValueError("require 0 <= avg_degree < d")
    if not (0 <= mu < (1 - eps_frac) * l1):
        raise GenerationError("infeasible spectral scaling: mu too close to l1")
    rng = np.random.default_rng(seed)

    pattern = set()
    for i in range(d):
        cols = rng.choice(d, size=min(avg_degree, d - 1), replace=False)
        for j in cols:
            if j != i:
                pattern.add((int(i), int(j)))
    pattern = frozenset(pattern)

    m0 = np.zeros((d, d))
    for (i, j) in pattern:
        m0[i, j] = rng.standard_normal()
    m0[np.diag_indices(d)] = rng.standard_normal(d)
    op_norm = np.linalg.norm(m0, 2)
    if op_norm > 0:
        m0 /= op_norm
    lam_min = float(np.linalg.eigvalsh(0.5 * (m0 + m0.T))[0])

    eps = eps_frac * l1
    # M = t*M0 + beta*I with lambda_min(sym(M)) = mu and ||M||_op <= t + beta
    t = ((1 - eps_frac) * l1 - mu) / (1.0 + max(-lam_min, 0.0))
    if t <= 0:
        raise GenerationError("infeasible spectral scaling")
    beta = mu - t * lam_min
    mmat = t * m0 + beta * np.eye(d)
    cvec = rng.standard_normal(d)
    m_csr = csr_array(mmat)
    apply_m = sparse_matvec(csr_matvec, m_csr.indptr, m_csr.indices, m_csr.data)

    def f(z: np.ndarray) -> np.ndarray:
        return apply_m(z) + eps * np.tanh(z) - cvec

    def jac(z: np.ndarray) -> np.ndarray:
        return mmat + np.diag(eps / np.cosh(z) ** 2)

    z_star = _damped_newton_root(f, jac, np.zeros(d))

    return Problem(
        dim=d,
        eval=f,
        mu=mu,
        l1=l1,
        structure=Sparse(pattern),
        known_root=z_star,
    )


# ---------------------------------------------------------------------------
# Gap evaluation


def evaluate_gap(problem: Problem, z: np.ndarray, spec: PrimalDualBox) -> float:
    """max_{y' in box} f(x, y') - min_{x' in box} f(x', y) at z, in the closed
    form the problem's generator supplies (Problem.gap)."""
    if problem.gap is None:
        raise ValueError("this problem supplies no closed-form box gap (Problem.gap is None)")
    return problem.gap(z, spec)


# ---------------------------------------------------------------------------
# Serialization


_FAMILIES = {
    "quadratic_min": make_quadratic_min,
    "logsumexp_min": make_logsumexp_min,
    "bilinear_minimax": make_bilinear_minimax,
    "sparse_equation": make_sparse_equation,
}


def problem_from_descriptor(descriptor: dict) -> Problem:
    """The problem a descriptor names: `family` selects the generator and the
    other fields are its keyword arguments, so an unknown or missing field
    raises TypeError."""
    fields = dict(descriptor)
    family = fields.pop("family", None)
    if family not in _FAMILIES:
        raise ValueError(f"unknown problem family: {family!r}")
    return _FAMILIES[family](**fields)
