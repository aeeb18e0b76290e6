"""The matrix-free building blocks on their own: the randomized separation
oracles (extreme eigenvalues, top singular value) and the inexact Krylov
solver with its relative-residual termination rule.

Run:  python3 demos/04_oracles_and_inner_solver.py
"""

import numpy as np

from qnpe import CglsStart, SepCase, ext_evec, linear_solve, max_svec

rng = np.random.default_rng(3)
d = 30

# --- extreme-eigenvalue oracle on a symmetric matrix ---
w = rng.standard_normal((d, d))
w = 0.5 * (w + w.T)
w *= 1.8 / np.max(np.abs(np.linalg.eigvalsh(w)))  # true extreme eigenvalue 1.8

res = ext_evec(lambda v: w @ v, d, delta=0.25, q=0.01,
               rng=rng, symmetric=True)
print(f"ext_evec: case {res.case.name}, gamma = {res.gamma:.4f} "
      f"(dense truth 1.8000)")
if res.case is SepCase.CASE_II:
    c, x, y = res.factors
    s = c * np.outer(x, y)  # S = c x y^T, formed for the check
    print(f"  separator alignment <S, W> = {np.tensordot(s, w, axes=2):.4f}, "
          f"||S||_F = {np.linalg.norm(s):.4f}")

# --- top-singular-value oracle on a nonsymmetric matrix ---
a = rng.standard_normal((d, d))
a *= 7.5 / np.linalg.svd(a, compute_uv=False)[0]  # sigma_max = 7.5, gamma = 2.5
res = max_svec(lambda x: np.concatenate([a @ x[d:], a.T @ x[:d]]), d, delta=0.25, q=0.01,
               rng=rng)
print(f"max_svec: case {res.case.name}, gamma = {res.gamma:.4f} "
      f"(dense truth {7.5 / 3:.4f})")

# --- inexact linear solve: stop as soon as ||As - b|| <= rho ||s|| ---
# The solver takes A = shift I + scale W on a start built on W's products (a
# CGLS start for this non-symmetric W), the form the line search uses for
# I + eta B.  Here shift = 0 and scale = 1, so W is A itself.
r = rng.standard_normal((d, d))
lam_min = np.linalg.eigvalsh(0.5 * (r + r.T))[0]
a = 0.5 * r + (1.0 + max(0.0, -0.5 * lam_min)) * np.eye(d)
b = rng.standard_normal(d)
for rho in (0.5, 0.1, 1e-6):
    rep = linear_solve(CglsStart(lambda v: a @ v, lambda v: a.T @ v, b), 0.0, 1.0, b, rho)
    resid = np.linalg.norm(a @ rep.solution - b)
    print(f"rho = {rho:8.1e}: {rep.iterations:3d} iterations, "
          f"{rep.matvecs:3d} matvecs, ||As-b||/||s|| = "
          f"{resid / np.linalg.norm(rep.solution):.2e}")
print("\nlooser targets buy fewer matvecs -- the line search exploits exactly this")
