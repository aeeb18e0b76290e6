"""Matrix-free inexact solver of (shift I + scale W) s = b on W's products:
minimal residual on a Lanczos basis for symmetric W, CGLS for non-symmetric W.

Both start from s0 = 0 and return the first iterate with ||A s - b|| <= rho ||s||.
On a symmetric A that is the minimal-residual (MINRES, i.e. conjugate residual)
iterate, whose norm grows monotonically with k when A is positive definite
(Fong & Saunders 2012), as acceptance criterion 07 checks.  Shift invariance,
K_k(shift I + scale W, g) = K_k(W, g), lets one basis serve every system of a
line search (Jegerlehner 1996).  CGLS, CG on A^T A s = A^T b, is not
shift-invariant, but its first direction needs only W^T g, which a line
search makes once.  Both give W s with no further product.  spectral.lanczos
runs on KrylovBasis too.  Any breakdown, NaN/Inf included, raises SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import SolverError


@dataclass
class SolveReport:
    solution: np.ndarray
    residual_norm: float
    iterations: int
    matvecs: int  # products made: 2 per CGLS step, less 1 on a reused W^T g; 1 per basis vector
    converged: bool
    image: np.ndarray  # W s (A = shift I + scale W), from the basis or CGLS's own products


class KrylovBasis:
    """Orthonormal rows V spanning K_k(W, b) and the (k+1) x k Hessenberg Hbar_k,
    W V_k = V_{k+1} Hbar_k: a step is Lanczos' three-term one, then a full
    reorthogonalization pass whose coefficients join the column, which ends
    with Lanczos' alpha_k, beta_k.  A beta_k below invariant_tol sqrt(d) ||W v_k||
    (an inner product's rounding) means K_k(W, b) is invariant: it is stored as
    0, with a zero row v_{k+1}, as after d rows.  A zero W v_k is invariant too;
    an overflowing beta_k is stored as inf, and the next step's alpha raises."""

    invariant_tol = 32 * np.finfo(float).eps

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray], b: np.ndarray) -> None:
        self.apply, self.cols = apply, []  # column j holds h_{1..j+2, j+1}
        self.rows = np.empty((min(64, len(b) + 1), len(b)))  # written row by row
        self.rows[0] = b / math.sqrt(b.dot(b))
        self.scratch = np.empty(len(b))  # a scaled row on its way out of w

    def extend(self) -> None:
        cols, rows, scratch = self.cols, self.rows, self.scratch
        k, d = len(cols), rows.shape[1]
        v, vk, beta = rows[: k + 1], rows[k], cols[-1][-1] if k else 0.0
        w = self.apply(vk) - np.multiply(beta, v[k - 1], out=scratch)  # k = 0: 0 times v_0
        alpha = float(w.dot(vk))
        if not math.isfinite(alpha):  # v_k is a finite unit vector: W v_k is not finite
            raise SolverError("linear_solver", "non-finite Lanczos coefficient")
        w -= np.multiply(alpha, vk, out=scratch)
        c = v @ w  # the reorthogonalization pass
        w -= np.matmul(c, v, out=scratch)
        h, ww = c.tolist(), float(w.dot(w))
        h[k] += alpha
        h[k - 1] += beta  # at k = 0, h[-1] is h[0] and beta is 0
        wv2 = alpha * alpha + beta * beta + ww  # ||W v_k||^2, to rounding
        invariant = ww <= d * self.invariant_tol**2 * wv2 < math.inf or k + 1 == d
        cols.append(h + [0.0 if invariant else math.sqrt(ww)])
        if k + 2 > len(rows):
            rows = self.rows = np.concatenate((rows, np.empty_like(rows)))[: d + 1]
        if invariant:
            rows[k + 1] = 0.0
        else:
            np.divide(w, cols[-1][-1], out=rows[k + 1])

    def solve(self, shift: float, scale: float, b: np.ndarray, rho_tol: float,
              max_iters: int) -> SolveReport:
        """Minimal-residual solve of (shift I + scale W) s = b, b parallel to v_1:
        the first k whose y minimizing ||(v_1 . b) e1 - (shift Ibar + scale Hbar_k) y||
        (by Givens rotations) has residual <= rho_tol ||y||.  Only a k past the
        basis's size extends it, by one product."""
        added, k, y, converged, rotations, r_cols = 0, 0, [], False, [], []
        rhs = [float(self.rows[0].dot(b))]  # (v_1 . b) e1, rotated; its last entry is the residual
        while k < max_iters and not converged:
            k += 1
            if k > len(self.cols):
                self.extend()
                added += 1
            col = [scale * h for h in self.cols[k - 1]]
            col[k - 1] += shift
            for i, (cs, sn) in enumerate(rotations):
                col[i], col[i + 1] = cs * col[i] + sn * col[i + 1], cs * col[i + 1] - sn * col[i]
            diag = math.hypot(col[k - 1], col[k])
            if not 0.0 < diag < math.inf:  # an overflowed beta_k makes it inf
                raise SolverError("linear_solver", "non-finite or singular projected system")
            cs, sn = col[k - 1] / diag, col[k] / diag
            rotations.append((cs, sn))
            r_cols.append(col[: k - 1] + [diag])
            rhs[-1:] = [cs * rhs[-1], -sn * rhs[-1]]
            y = rhs[:k]
            for i in range(k - 1, -1, -1):  # back substitution, by columns of R
                y[i] /= r_cols[i][i]
                for j in range(i):
                    y[j] -= r_cols[i][j] * y[i]
            y_norm = math.hypot(*y)
            if not math.isfinite(y_norm):
                raise SolverError("linear_solver", "non-finite iterate")
            converged = abs(rhs[-1]) <= rho_tol * y_norm
        return SolveReport(np.array(y) @ self.rows[:k], abs(rhs[-1]), k, added, converged,
                           self.image(y))

    def image(self, y: list[float]) -> np.ndarray:
        """W s for s = y^T V_k, as (Hbar_k y)^T V_{k+1}: no product with W."""
        hy = [0.0] * (len(y) + 1)
        for yj, col in zip(y, self.cols):
            for i, h in enumerate(col):
                hy[i] += h * yj
        return np.array(hy) @ self.rows[: len(hy)]


class CglsStart:
    """CGLS for A = shift I + scale W and b parallel to g: its first direction
    A^T b needs W^T g, which the first solve makes and later solves reuse.
    Each step's W p serves both q = A p and W s += alpha W p."""

    def __init__(self, apply: Callable[[np.ndarray], np.ndarray],
                 apply_t: Callable[[np.ndarray], np.ndarray], g: np.ndarray) -> None:
        self.apply, self.apply_t, self.g, self.wt_g = apply, apply_t, g, None
        self.gg = g.dot(g)  # a numpy float: dividing by an underflowed 0 gives NaN, a breakdown

    def solve(self, shift: float, scale: float, b: np.ndarray, rho_tol: float,
              max_iters: int) -> SolveReport:
        d, tiny, made = len(b), np.finfo(float).tiny, 0
        s, ws, r, res_norm = np.zeros(d), np.zeros(d), b, math.sqrt(b.dot(b))
        for k in range(1, max_iters + 1):
            # the next search direction p, and q = A p, from the current residual
            if k == 1 and self.wt_g is None:
                self.wt_g, made = self.apply_t(self.g), 1
            if k == 1:  # A^T b, with W^T b = (g . b / g . g) W^T g
                v = shift * b + (scale * float(self.g.dot(b)) / self.gg) * self.wt_g
            else:
                v, made = shift * r + scale * self.apply_t(r), made + 1
            gamma_next = float(v.dot(v))
            p = v if k == 1 else v + (gamma_next / gamma) * p
            wp = self.apply(p)
            q, made = shift * p + scale * wp, made + 1
            gamma = gamma_next
            qq = float(q.dot(q))
            if not (math.isfinite(qq) and math.isfinite(gamma)):
                raise SolverError("linear_solver", "non-finite curvature")
            if qq <= tiny or gamma <= tiny:  # Krylov space exhausted
                raise SolverError("linear_solver",
                                  "Krylov breakdown before reaching the residual tolerance")
            alpha = gamma / qq
            s, ws, r = s + alpha * p, ws + alpha * wp, r - alpha * q
            ss, rr = float(s.dot(s)), float(r.dot(r))
            if not (math.isfinite(ss) and math.isfinite(rr)):
                raise SolverError("linear_solver", "non-finite or overflowing iterate")
            res_norm = math.sqrt(rr)
            if res_norm <= rho_tol * math.sqrt(ss):
                return SolveReport(s, res_norm, k, made, True, ws)
        return SolveReport(s, res_norm, max_iters, made, False, ws)


def linear_solve(
    start: KrylovBasis | CglsStart, shift: float, scale: float, b: np.ndarray, rho_tol: float,
    max_iters: int | None = None,
) -> SolveReport:
    """Solve (shift I + scale W) s = b inexactly on a start built on W: return
    the first s_k with ||r_k|| <= rho_tol * ||s_k||.

    The caller is expected to provide a well-posed system (in QNPE usage
    sym(A) >= I) and a start built on a right-hand side parallel to b.  b = 0
    short-circuits to s = 0 without reading the start.  Exhausting max_iters
    (default 20*d) returns converged=False.  No product is made after the
    last residual test.  NaN/Inf is caught in each step's dot products, so a
    squared norm that overflows also counts as a breakdown."""
    if rho_tol <= 0:
        raise ValueError("rho_tol must be positive")
    b = np.asarray(b, dtype=float)
    d = len(b)
    max_iters = 20 * d if max_iters is None else max_iters
    if not b.any():
        return SolveReport(np.zeros(d), 0.0, 0, 0, True, np.zeros(d))
    return start.solve(shift, scale, b, rho_tol, max_iters)
