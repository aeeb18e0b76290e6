"""Backtracking line search: closed-form acceptance cases, rejected-iterate
bookkeeping, and where its constants are validated.  backtrack is handed W's
products and the played B = c1 W + c0 I's coefficients; most cases here play
B = W (c1 = 1, c0 = 0)."""

import dataclasses
import math

import numpy as np
import pytest

import qnpe.line_search
from qnpe import (CglsStart, KrylovBasis, SolverConfig, SolverError, linear_solve,
                  make_quadratic_min)
from qnpe.line_search import backtrack, default_max_backtracks


def params(alpha1=0.25, alpha2=0.25, beta=0.5, mu=0.0, max_backtracks=40):
    """backtrack's constants, as keyword arguments."""
    return dict(alpha1=alpha1, alpha2=alpha2, beta=beta, mu=mu, max_backtracks=max_backtracks)


def affine_eval(a, z_star):
    return lambda z: a @ (z - z_star)


def test_zero_gradient_accepts_immediately():
    z = np.array([1.0, -1.0])
    out = backtrack(z, np.zeros(2), lambda v: v, lambda v: v, 1.0, 0.0, sigma=1.0,
                    **params(), f_eval=lambda zz: zz - z)
    assert out.eta == 1.0
    assert not out.backtracked
    assert np.array_equal(out.z_hat, z)
    assert out.trial_count == 1
    # a non-symmetric B: CGLS's start is never read, and B s = 0 needs no product
    b = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = backtrack(z, np.zeros(2), lambda v: b @ v, lambda v: b.T @ v, 1.0, 0.0, sigma=1.0,
                    **params(), f_eval=lambda zz: zz - z)
    assert out.trial_count == 1 and out.matvecs == 0
    assert np.array_equal(out.z_hat, z) and np.array_equal(out.b_s, np.zeros(2))


def test_exact_model_with_exact_solve_accepts_first_trial():
    # B equals the true Jacobian and alpha1 = 1e-12: the proximal subproblem is
    # solved to machine precision, so any sigma is accepted
    rng = np.random.default_rng(0)
    a = np.diag(rng.uniform(0.5, 2.0, size=6))
    z_star = rng.standard_normal(6)
    z = z_star + rng.standard_normal(6)
    f = affine_eval(a, z_star)
    out = backtrack(z, f(z), lambda v: a @ v, None, 1.0, 0.0, sigma=50.0,
                    **params(alpha1=1e-12), f_eval=f)
    assert out.eta == 50.0
    assert not out.backtracked
    assert out.observed is None
    # z_hat solves z_hat - z + eta F(z_hat) = 0 up to the exact-solve tolerance
    resid = out.z_hat - z + out.eta * f(out.z_hat)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(out.z_hat - z)


def test_identity_jacobian_closed_form_step():
    # F(z) = z, B = I: the inner solve gives s = -eta z / (1 + eta) and the
    # acceptance residual is exactly zero
    z = np.array([2.0, 0.0, -1.0])
    f = lambda zz: zz
    out = backtrack(z, z.copy(), lambda v: v, None, 1.0, 0.0, sigma=1.0,
                    **params(alpha1=0.25), f_eval=f)
    assert out.eta == 1.0
    expected = z - (out.eta / (1.0 + out.eta)) * z
    assert np.allclose(out.z_hat, expected, atol=1e-10)


def test_mismatched_model_backtracks_and_keeps_rejected_iterate():
    # B = 0 but F has a large Jacobian: sigma = 4 must shrink, and the last
    # rejected trial is exposed for the learner
    a = 10.0 * np.eye(3)
    z_star = np.zeros(3)
    f = affine_eval(a, z_star)
    z = np.array([1.0, 1.0, 1.0])
    evals, products = [], []
    out = backtrack(z, f(z), lambda v: products.append(v) or 0 * v, None, 1.0, 0.0,
                    sigma=4.0, **params(), f_eval=lambda x: evals.append(x) or f(x))
    assert out.backtracked
    assert out.trial_count > 1
    assert out.matvecs == len(products)  # every trial's inner solve, not only the last
    assert out.eta == pytest.approx(4.0 * 0.5 ** (out.trial_count - 1))
    assert len(evals) == out.trial_count  # one operator evaluation per trial
    # the observation is the previous trial's: z_tilde = z - sigma*beta^(t-2)*g
    s, u, b_s = out.observed
    assert np.array_equal(s, evals[-2] - z)
    assert np.array_equal(u, f(evals[-2]) - f(z))
    assert np.array_equal(b_s, np.zeros(3))  # B = 0
    eta_prev = 4.0 * 0.5 ** (out.trial_count - 2)
    assert np.allclose(evals[-2], z - eta_prev * f(z), atol=1e-12)
    # accepted step satisfies the proximal condition, recomputed here
    s = out.z_hat - z
    lhs = np.linalg.norm(s + out.eta * f(out.z_hat))
    assert lhs <= 0.5 * np.linalg.norm(s) + 1e-12


def test_a_rejected_trial_that_rounds_to_z_is_not_observed():
    """At z = 1e17 (spacing 16) every trial step of length below 8 rounds
    z + s back to z: with B = I and a constant F the first four trials are
    rejected, all at z, and none is handed to the learner."""
    z, g = 1e17 * np.ones(4), np.ones(4)
    evals = []
    out = backtrack(z, g, lambda v: 0 * v, None, 1.0, 1.0, sigma=4.0, **params(),
                    f_eval=lambda x: evals.append(x) or g)
    assert out.trial_count == 5 and all(np.array_equal(x, z) for x in evals)
    assert out.observed is None


@pytest.mark.parametrize("symmetric", [False, True])
def test_matvecs_are_the_counted_b_products(symmetric):
    """matvecs sums the inner solves' products with W and W^T over all
    trials, for B = 0.1 W: the calls of w_apply and w_apply_t, counted
    outside; a symmetric W is handed over with w_apply_t = None."""
    rng = np.random.default_rng(3)
    b = rng.standard_normal((6, 6))
    b = b + b.T if symmetric else b
    f = affine_eval(3.0 * np.eye(6) + b, rng.standard_normal(6))
    z = rng.standard_normal(6)
    calls = {"b": 0, "b_t": 0}

    def tally(key, m):
        return lambda v: calls.__setitem__(key, calls[key] + 1) or m @ v

    solves = []
    out = backtrack(z, f(z), tally("b", b), None if symmetric else tally("b_t", b.T), 0.1, 0.0,
                    sigma=8.0, **params(), f_eval=lambda x: solves.append(x) or f(x))
    assert out.backtracked and out.trial_count == len(solves) > 1
    assert out.matvecs == calls["b"] + calls["b_t"] > 0
    assert (calls["b_t"] == 0) is symmetric


def recorded_solves(monkeypatch):
    """The SolveReports of backtrack's inner solves, in trial order."""
    reports = []

    def record(*args, **kwargs):
        reports.append(linear_solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(qnpe.line_search, "linear_solve", record)
    return reports


def test_shared_basis_changes_only_the_cost(monkeypatch):
    """On a symmetric W every trial solves its shift from one Krylov basis of
    W: each trial's step is the standalone solve of (I + eta B) s = -eta g,
    B = 0.5 W + 1.5 I, on a basis of I + eta B, the W-products are the
    largest trial's iterations, and the B s vectors are B times the accepted
    and the last rejected step."""
    rng = np.random.default_rng(11)
    d, mu = 12, 0.1
    q = rng.standard_normal((d, d))
    w = (q + q.T) / np.sqrt(d)
    b = 0.5 * w + 1.5 * np.eye(d)
    f = affine_eval(b + 6.0 * np.eye(d), rng.standard_normal(d))
    z = rng.standard_normal(d)
    calls, trials = [0], []
    reports = recorded_solves(monkeypatch)

    def w_apply(v):
        calls[0] += 1
        return w @ v

    out = backtrack(z, f(z), w_apply, None, 0.5, 1.5, sigma=16.0, **params(mu=mu),
                    f_eval=lambda x: trials.append(x) or f(x))
    assert out.trial_count == len(trials) == len(reports) >= 3
    for t, z_hat in enumerate(trials):
        eta = 16.0 * 0.5**t
        a = np.eye(d) + eta * b
        start = KrylovBasis(lambda v: a @ v, f(z))
        rho_tol = 0.25 * math.sqrt(1.0 + eta * mu)
        alone = linear_solve(start, 0.0, 1.0, -eta * f(z), rho_tol).solution
        assert np.linalg.norm((z_hat - z) - alone) <= 1e-12 * np.linalg.norm(alone)
    assert calls[0] == out.matvecs == max(r.iterations for r in reports) > 0
    for s, b_s in ((out.z_hat - z, out.b_s), (out.observed[0], out.observed[2])):
        fresh = b @ s
        assert np.linalg.norm(b_s - fresh) <= 1e-12 * np.linalg.norm(fresh)


def test_cgls_start_changes_only_the_cost(monkeypatch):
    """On a non-symmetric W every trial's CGLS reuses the first trial's W^T g:
    each trial's step is the standalone CGLS solve of (I + eta B) s = -eta g,
    B = W + 1.5 I, a trial of k steps makes 2k products, 1 fewer after the
    first trial, and the B s vectors formed from CGLS's W s are B times the
    accepted and the last rejected step."""
    rng = np.random.default_rng(13)
    d, mu = 12, 0.1
    w = rng.standard_normal((d, d)) / np.sqrt(d)
    b = w + 1.5 * np.eye(d)
    f = affine_eval(b + 6.0 * np.eye(d), rng.standard_normal(d))
    z = rng.standard_normal(d)
    calls, trials = {"b": 0, "b_t": 0}, []
    reports = recorded_solves(monkeypatch)

    def tally(key, m):
        return lambda v: calls.__setitem__(key, calls[key] + 1) or m @ v

    out = backtrack(z, f(z), tally("b", w), tally("b_t", w.T), 1.0, 1.5, sigma=16.0,
                    **params(mu=mu), f_eval=lambda x: trials.append(x) or f(x))
    assert out.trial_count == len(trials) == len(reports) >= 3
    for t, z_hat in enumerate(trials):
        eta = 16.0 * 0.5**t
        a = np.eye(d) + eta * b
        start = CglsStart(lambda v: a @ v, lambda v: a.T @ v, f(z))
        rho_tol = 0.25 * math.sqrt(1.0 + eta * mu)
        alone = linear_solve(start, 0.0, 1.0, -eta * f(z), rho_tol).solution
        assert np.linalg.norm((z_hat - z) - alone) <= 1e-12 * np.linalg.norm(alone)
    assert [r.matvecs for r in reports] == [2 * r.iterations - (t > 0)
                                            for t, r in enumerate(reports)]
    assert calls["b"] + calls["b_t"] == out.matvecs
    assert calls["b_t"] == sum(r.iterations for r in reports) - len(reports) + 1
    for s, b_s in ((out.z_hat - z, out.b_s), (out.observed[0], out.observed[2])):
        fresh = b @ s
        assert np.linalg.norm(b_s - fresh) <= 1e-12 * np.linalg.norm(fresh)


def test_one_transpose_product_per_line_search(monkeypatch):
    """When every trial's CGLS converges at its first step, B^T runs once in
    the whole line search, for g, and each trial after the first costs one
    product."""
    rng = np.random.default_rng(14)
    d = 10
    b = 0.005 * rng.standard_normal((d, d))
    f = affine_eval(10.0 * np.eye(d), np.zeros(d))
    z = rng.standard_normal(d)
    calls = {"b": 0, "b_t": 0}
    reports = recorded_solves(monkeypatch)

    def tally(key, m):
        return lambda v: calls.__setitem__(key, calls[key] + 1) or m @ v

    out = backtrack(z, f(z), tally("b", b), tally("b_t", b.T), 1.0, 0.0, sigma=4.0, **params(),
                    f_eval=f)
    assert out.trial_count >= 3 and all(r.iterations == 1 for r in reports)
    assert calls == {"b": out.trial_count, "b_t": 1}
    assert out.matvecs == out.trial_count + 1


@pytest.mark.parametrize("rank", [0, 1])
def test_invariant_subspace_ends_the_solve_exactly(monkeypatch, rank):
    """B = c I, or c I plus a rank-1 term: K(B, g) has dimension rank + 1, so
    every solve stops there, with the exact-solve tolerance or one no
    residual can meet, and the whole line search makes at most 2 products."""
    rng = np.random.default_rng(12)
    d = 9
    u = rng.standard_normal((d, 1))
    b = 0.7 * np.eye(d) + rank * (u @ u.T)
    f = affine_eval(10.0 * np.eye(d) + b, np.zeros(d))
    z = rng.standard_normal(d)
    calls = [0]
    reports = recorded_solves(monkeypatch)

    def b_apply(v):
        calls[0] += 1
        return b @ v

    out = backtrack(z, f(z), b_apply, None, 1.0, 0.0, sigma=4.0, **params(alpha1=1e-12),
                    f_eval=f)
    assert out.backtracked
    assert all(r.converged and r.iterations <= rank + 1 for r in reports)
    assert calls[0] == out.matvecs <= rank + 1
    rep = linear_solve(KrylovBasis(lambda v: b @ v, f(z)), 0.0, 1.0, f(z), rho_tol=1e-300)
    assert rep.converged and rep.iterations == rep.matvecs <= rank + 1
    assert np.allclose(b @ rep.solution, f(z), rtol=0, atol=1e-12 * np.linalg.norm(f(z)))


def test_exhaustion_raises():
    a = 10.0 * np.eye(2)
    f = affine_eval(a, np.zeros(2))
    z = np.ones(2)
    with pytest.raises(SolverError, match="no acceptable step size within 2 trials") as info:
        backtrack(z, f(z), lambda v: 0 * v, None, 1.0, 0.0, sigma=4.0,
                  **params(max_backtracks=2), f_eval=f)
    assert (info.value.layer, info.value.k) == ("line_search", None)


def test_nonfinite_gradient_rejected():
    # the driver's loop checks ||F(z)|| before it calls backtrack; called
    # directly on a NaN g, backtrack's inner solve breaks down on it
    with pytest.raises(SolverError):
        backtrack(np.zeros(2), np.array([np.nan, 0.0]), lambda v: v, lambda v: v, 1.0, 0.0,
                  sigma=1.0, **params(), f_eval=lambda z: z)


def test_default_max_backtracks_formula():
    sigma, l1, alpha2, beta = 2.0, 3.0, 0.25, 0.5
    expected = 1 + math.ceil(math.log(sigma * 8 * l1 / alpha2) / math.log(2.0)) + 8
    assert default_max_backtracks(sigma, l1, alpha2, beta) == expected
    # floor at ratio 1 keeps the count positive for tiny sigma
    assert default_max_backtracks(1e-12, 1.0, 0.25, 0.5) == 9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha2": 0.0},
        {"alpha2": 0.5},
        {"beta": 0.0},
        {"beta": 1.0},
        {"alpha2": 0.45, "beta": 0.5, "mu": -1.0},
    ],
)
def test_parameter_validation(kwargs):
    """backtrack takes its constants as given: SolverConfig checks alpha2 and
    beta, and Problem checks mu, each once, when it is built."""
    constants = dict(kwargs)
    mu = constants.pop("mu", 0.1)
    with pytest.raises(ValueError, match=list(kwargs)[-1]):  # the last key is out of range
        SolverConfig(mode="strongly_monotone", **constants)
        dataclasses.replace(make_quadratic_min(5, 0.1, 1.0, seed=0), mu=mu)
