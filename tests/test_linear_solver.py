"""Inexact Krylov solver: termination contract, matvec accounting, and the
iterate/residual monotonicity properties of both recurrences.  Each system
is solved on the start the line search builds, a KrylovBasis or a CglsStart
on the matrix's own products, with shift 0 and scale 1."""

import math

import numpy as np
import pytest

from qnpe import CglsStart, KrylovBasis, SolverError, linear_solve


def random_wellposed(d, rng, symmetric=False):
    """Random A with sym(A) >= I, via shifting the symmetric part."""
    r = rng.standard_normal((d, d))
    if symmetric:
        r = 0.5 * (r + r.T)
    lam_min = np.linalg.eigvalsh(0.5 * (r + r.T))[0]
    return r + (1.0 + max(0.0, -lam_min)) * np.eye(d)


def start_on(a, b, symmetric, apply=None, apply_t=None):
    """The solver's start on a for right-hand sides parallel to b: a Krylov
    basis when a is symmetric, else a CGLS start.  apply and apply_t default
    to a's dense products."""
    apply = apply or (lambda v: a @ v)
    if symmetric:
        return KrylovBasis(apply, b)
    return CglsStart(apply, apply_t or (lambda v: a.T @ v), b)


def solve_dense(a, b, rho_tol, max_iters=None, symmetric=False):
    """linear_solve of a s = b, shift 0 and scale 1, on a fresh start."""
    return linear_solve(start_on(a, b, symmetric), 0.0, 1.0, b, rho_tol, max_iters)


def iterate_at(a, b, k, symmetric):
    """k-th Krylov iterate, recovered by rerunning with a hard iteration cap
    and a tolerance too tight to trigger early exit."""
    return solve_dense(a, b, rho_tol=1e-300, max_iters=k, symmetric=symmetric).solution


def test_identity_converges_in_one_iteration():
    b = np.array([1.0, -2.0, 3.0, 0.5])
    rep = solve_dense(np.eye(4), b, rho_tol=0.5, symmetric=True)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b, atol=1e-14)


def test_diagonal_system_exact_solution():
    rep = solve_dense(np.diag([1.0, 2.0, 3.0]), np.ones(3), rho_tol=1e-10, symmetric=True)
    assert rep.converged
    assert np.allclose(rep.solution, [1.0, 0.5, 1.0 / 3.0], atol=1e-8)


def test_zero_rhs_short_circuits():
    rep = linear_solve(None, 1.0, 2.0, np.zeros(2), rho_tol=0.1)  # the start is never read
    assert rep.converged
    assert rep.iterations == 0
    assert rep.matvecs == 0
    assert np.all(rep.solution == 0.0)


@pytest.mark.parametrize("symmetric", [False, True])
def test_shift_and_scale_solve_the_shifted_system(symmetric):
    """One start on W serves (shift I + scale W) s = b for every shift and
    scale, and its W s is W times the returned s."""
    rng = np.random.default_rng(19)
    w = random_wellposed(16, rng, symmetric=symmetric) - 1.5 * np.eye(16)
    b = rng.standard_normal(16)
    start = start_on(w, b, symmetric)
    for shift, scale in ((1.0, 0.3), (2.5, 0.3), (1.0, 0.05)):
        a = shift * np.eye(16) + scale * w
        rep = linear_solve(start, shift, scale, -0.7 * b, rho_tol=0.2)
        assert rep.converged
        assert np.linalg.norm(a @ rep.solution + 0.7 * b) <= 0.2 * np.linalg.norm(rep.solution)
        assert np.linalg.norm(rep.image - w @ rep.solution) <= 1e-12 * np.linalg.norm(w @ rep.solution)


@pytest.mark.parametrize("symmetric", [False, True])
def test_random_system_meets_relative_residual(symmetric):
    rng = np.random.default_rng(20)
    a = random_wellposed(20, rng, symmetric=symmetric)
    b = rng.standard_normal(20)
    rep = solve_dense(a, b, rho_tol=0.25, symmetric=symmetric)
    assert rep.converged
    # recomputed independently of the solver's internal residual
    assert np.linalg.norm(a @ rep.solution - b) <= 0.25 * np.linalg.norm(rep.solution)


def counted(a, b, symmetric):
    """start_on(a, b, symmetric) with its products of a and a^T tallied in
    the returned list."""
    calls = []
    return start_on(a, b, symmetric, lambda v: calls.append(1) or a @ v,
                    lambda v: calls.append(1) or a.T @ v), calls


@pytest.mark.parametrize("symmetric,per_iter", [(False, 2), (True, 1)])
def test_matvec_accounting(symmetric, per_iter):
    """The reported matvecs are the operator calls the solver made, counted
    outside it, and follow the rule iterations * (1 or 2), whether the solve
    converges or hits its cap: no product is made after the last residual
    test.  b = 0 makes none, on the same start."""
    rng = np.random.default_rng(21)
    a = random_wellposed(15, rng, symmetric=symmetric)
    b = rng.standard_normal(15)
    for rho_tol, max_iters, b_k in ((0.3, None, b), (1e-14, 3, b), (0.3, None, 0 * b)):
        start, calls = counted(a, b, symmetric)
        rep = linear_solve(start, 0.0, 1.0, b_k, rho_tol=rho_tol, max_iters=max_iters)
        assert rep.converged == (max_iters is None)
        assert rep.matvecs == len(calls) == per_iter * rep.iterations
        assert (rep.iterations == 0) == (not b_k.any())


def test_cr_residual_nonincreasing_on_spd():
    rng = np.random.default_rng(22)
    q = rng.standard_normal((12, 12))
    a = q @ q.T + 12 * np.eye(12)
    b = rng.standard_normal(12)
    prev = np.linalg.norm(b)
    for k in range(1, 13):
        s = iterate_at(a, b, k, symmetric=True)
        res = np.linalg.norm(a @ s - b)
        assert res <= prev * (1 + 1e-10)
        prev = res


@pytest.mark.parametrize("symmetric", [False, True])
def test_iterate_norms_increase(symmetric):
    rng = np.random.default_rng(23)
    a = random_wellposed(10, rng, symmetric=symmetric)
    b = rng.standard_normal(10)
    prev = 0.0
    for k in range(1, 11):
        nrm = np.linalg.norm(iterate_at(a, b, k, symmetric))
        assert nrm >= prev * (1 - 1e-10)
        prev = nrm


def test_unconverged_reported_honestly():
    rng = np.random.default_rng(24)
    a = random_wellposed(30, rng)
    b = rng.standard_normal(30)
    rep = solve_dense(a, b, rho_tol=1e-14, max_iters=2)
    assert not rep.converged


def test_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        solve_dense(np.eye(2), np.ones(2), rho_tol=0.0, symmetric=True)


@pytest.mark.parametrize("symmetric", [True, False], ids=["cr", "cgls"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("poisoned_call", [1, 2, 3])
def test_non_finite_operator_value_is_a_breakdown(symmetric, bad, poisoned_call):
    """A NaN or Inf in any of the first three operator products, on a system
    that needs more than three of them, raises SolverError from layer
    linear_solver, with no iteration outside a solve."""
    rng = np.random.default_rng(25)
    a = random_wellposed(12, rng, symmetric=symmetric)
    b = rng.standard_normal(12)
    calls = [0]

    def poison(fn):
        def apply(v):
            calls[0] += 1
            out = fn(v)
            if calls[0] == poisoned_call:
                out[0] = bad
            return out

        return apply

    start = start_on(a, b, symmetric, poison(lambda v: a @ v), poison(lambda v: a.T @ v))
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolverError) as info:
            linear_solve(start, 0.0, 1.0, b, rho_tol=1e-10)
    assert calls[0] >= poisoned_call
    assert (info.value.layer, info.value.k) == ("linear_solver", None)
    assert str(info.value).startswith("linear_solver: non-finite")


def test_overflowing_basis_norm_is_a_breakdown():
    """Finite products whose squared norm overflows: the basis stores
    beta_1 = inf and the same solve step raises, with no further product."""
    rng = np.random.default_rng(26)
    a = 1e200 * random_wellposed(10, rng, symmetric=True)
    b = rng.standard_normal(10)
    start, calls = counted(a, b, symmetric=True)
    with np.errstate(over="ignore"), pytest.raises(SolverError) as info:
        linear_solve(start, 0.0, 1.0, b, rho_tol=1e-10)
    assert start.cols[0][-1] == math.inf and len(calls) == 1
    assert str(info.value).startswith("linear_solver: non-finite")


def test_basis_reads_only_the_rows_it_has_written():
    """KrylovBasis keeps its rows in uninitialized storage: NaN in every row
    past v_1 before the first step changes no bit of the solve."""
    rng = np.random.default_rng(27)
    a = random_wellposed(12, rng, symmetric=True)
    b = rng.standard_normal(12)
    reports = []
    for poison in (False, True):
        start = KrylovBasis(lambda v: a @ v, b)
        if poison:
            start.rows[1:] = np.nan
        reports.append(linear_solve(start, 0.0, 1.0, b, rho_tol=1e-10))
    clean, poisoned = reports
    assert clean.converged and clean.iterations > 3
    assert np.array_equal(poisoned.solution, clean.solution)
    assert np.array_equal(poisoned.image, clean.image)
