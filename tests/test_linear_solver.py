"""Inexact Krylov solver: termination contract, matvec accounting, and the
iterate/residual monotonicity properties of both recurrences."""

import math

import numpy as np
import pytest

from qnpe import LinearOp, NumericalBreakdownError, linear_solve


def random_wellposed(d, rng, symmetric=False):
    """Random A with sym(A) >= I, via shifting the symmetric part."""
    r = rng.standard_normal((d, d))
    if symmetric:
        r = 0.5 * (r + r.T)
    lam_min = np.linalg.eigvalsh(0.5 * (r + r.T))[0]
    return r + (1.0 + max(0.0, -lam_min)) * np.eye(d)


def iterate_at(a, b, k, symmetric):
    """k-th Krylov iterate, recovered by rerunning with a hard iteration cap
    and a tolerance too tight to trigger early exit."""
    op = LinearOp.from_matrix(a, symmetric=symmetric)
    return linear_solve(op, b, rho_tol=1e-300, max_iters=k).solution


def test_identity_converges_in_one_iteration():
    op = LinearOp.from_matrix(np.eye(4))
    b = np.array([1.0, -2.0, 3.0, 0.5])
    rep = linear_solve(op, b, rho_tol=0.5)
    assert rep.converged
    assert rep.iterations == 1
    assert np.allclose(rep.solution, b, atol=1e-14)


def test_diagonal_system_exact_solution():
    op = LinearOp.from_matrix(np.diag([1.0, 2.0, 3.0]))
    rep = linear_solve(op, np.ones(3), rho_tol=1e-10)
    assert rep.converged
    assert np.allclose(rep.solution, [1.0, 0.5, 1.0 / 3.0], atol=1e-8)


def test_zero_rhs_short_circuits():
    op = LinearOp.from_matrix(np.diag([2.0, 2.0]))
    rep = linear_solve(op, np.zeros(2), rho_tol=0.1)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.matvecs == 0
    assert np.all(rep.solution == 0.0)


@pytest.mark.parametrize("symmetric", [False, True])
def test_random_system_meets_relative_residual(symmetric):
    rng = np.random.default_rng(20)
    a = random_wellposed(20, rng, symmetric=symmetric)
    b = rng.standard_normal(20)
    rep = linear_solve(LinearOp.from_matrix(a, symmetric=symmetric), b, rho_tol=0.25)
    assert rep.converged
    # recomputed independently of the solver's internal residual
    assert np.linalg.norm(a @ rep.solution - b) <= 0.25 * np.linalg.norm(rep.solution)


def counted(op):
    """op with its apply and apply_transpose calls tallied in the returned list."""
    calls = []

    def tally(fn):
        return lambda v: calls.append(1) or fn(v)

    return LinearOp(op.dim, tally(op.apply), tally(op.apply_transpose), op.symmetric), calls


@pytest.mark.parametrize("symmetric,per_iter", [(False, 2), (True, 1)])
def test_matvec_accounting(symmetric, per_iter):
    """The reported matvecs are the operator calls the solver made, counted
    outside it, and follow the rule iterations * (1 or 2), whether the solve
    converges or hits its cap: no product is made after the last residual
    test.  b = 0 makes none."""
    rng = np.random.default_rng(21)
    a = random_wellposed(15, rng, symmetric=symmetric)
    b = rng.standard_normal(15)
    for rho_tol, max_iters, b_k in ((0.3, None, b), (1e-14, 3, b), (0.3, None, 0 * b)):
        op, calls = counted(LinearOp.from_matrix(a, symmetric=symmetric))
        rep = linear_solve(op, b_k, rho_tol=rho_tol, max_iters=max_iters)
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
    rep = linear_solve(LinearOp.from_matrix(a), b, rho_tol=1e-14, max_iters=2)
    assert not rep.converged


def test_rejects_nonpositive_tolerance():
    op = LinearOp.from_matrix(np.eye(2))
    with pytest.raises(ValueError):
        linear_solve(op, np.ones(2), rho_tol=0.0)


@pytest.mark.parametrize("symmetric", [True, False], ids=["cr", "cgls"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("poisoned_call", [1, 2, 3])
def test_non_finite_operator_value_is_a_breakdown(symmetric, bad, poisoned_call):
    """A NaN or Inf in any of the first three operator products, on a system
    that needs more than three of them, raises NumericalBreakdownError."""
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

    op = LinearOp.from_matrix(a, symmetric=symmetric)
    op = LinearOp(op.dim, poison(op.apply), poison(op.apply_transpose), symmetric)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericalBreakdownError):
            linear_solve(op, b, rho_tol=1e-10)
    assert calls[0] >= poisoned_call
