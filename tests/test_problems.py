"""Generators, gap evaluation, and serialization.

Derived expectations come from independent dense oracles (numpy eigensolvers,
central finite differences, pairwise sampling), never from the code under test.
"""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from qnpe import (
    JSymmetric,
    PrimalDualBox,
    Problem,
    Sparse,
    Symmetric,
    evaluate_gap,
    make_bilinear_minimax,
    make_logsumexp_min,
    make_quadratic_min,
    make_sparse_equation,
)
from qnpe.problems import problem_from_descriptor


def sampled_monotonicity_range(problem, n_pairs=200, scale=2.0, seed=0):
    """Range of <F(z)-F(z'), z-z'> / ||z-z'||^2 over random pairs."""
    rng = np.random.default_rng(seed)
    lo, hi = np.inf, -np.inf
    for _ in range(n_pairs):
        z = scale * rng.standard_normal(problem.dim)
        zp = scale * rng.standard_normal(problem.dim)
        dz = z - zp
        ratio = float((problem.eval(z) - problem.eval(zp)) @ dz) / float(dz @ dz)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def sampled_lipschitz_max(problem, n_pairs=200, scale=2.0, seed=1):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        z = scale * rng.standard_normal(problem.dim)
        zp = scale * rng.standard_normal(problem.dim)
        dz = z - zp
        worst = max(
            worst,
            float(np.linalg.norm(problem.eval(z) - problem.eval(zp)))
            / float(np.linalg.norm(dz)),
        )
    return worst


def fd_jacobian(problem, z, h=1.0):
    """The Jacobian at z by central differences, column j being
    (F(z + h e_j) - F(z - h e_j)) / 2h: exact up to rounding when F is linear,
    and column j is exactly 0 in each row of F that never reads z_j."""
    return np.column_stack([(problem.eval(z + h * e) - problem.eval(z - h * e)) / (2 * h)
                            for e in np.eye(problem.dim)])


# ---------------------------------------------------------------------------
# quadratic


def test_quadratic_1d_is_shifted_identity():
    p = make_quadratic_min(1, 1.0, 1.0, seed=3)
    z = np.array([2.5])
    assert np.allclose(p.eval(z), z - p.known_root)
    assert np.allclose(p.eval(p.known_root), 0.0)


def test_quadratic_spectrum_attains_endpoints():
    p = make_quadratic_min(10, 0.1, 1.0, seed=7)
    a = fd_jacobian(p, np.zeros(10))
    assert np.allclose(a, a.T)
    eigs = np.linalg.eigvalsh(a)
    assert abs(eigs[0] - 0.1) <= 1e-12
    assert abs(eigs[-1] - 1.0) <= 1e-12


def test_quadratic_sampled_monotonicity_in_band():
    p = make_quadratic_min(10, 0.1, 1.0, seed=7)
    lo, hi = sampled_monotonicity_range(p)
    assert lo >= 0.1 - 1e-12
    assert hi <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadratic_root_and_jacobian(seed):
    p = make_quadratic_min(8, 0.3, 2.0, seed=seed)
    assert np.linalg.norm(p.eval(p.known_root)) <= 1e-12
    a = fd_jacobian(p, np.zeros(8))
    assert np.max(np.abs(a - a.T)) <= 1e-12
    eigs = np.linalg.eigvalsh(a)
    assert 0.3 - 1e-12 <= eigs[0] and eigs[-1] <= 2.0 + 1e-12


def test_quadratic_rejects_bad_args():
    with pytest.raises(ValueError):
        make_quadratic_min(0, 0.1, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_quadratic_min(5, -0.1, 1.0, seed=0)
    with pytest.raises(ValueError):
        make_quadratic_min(5, 2.0, 1.0, seed=0)


# ---------------------------------------------------------------------------
# log-sum-exp


def test_logsumexp_gradient_matches_objective():
    d, n_terms, mu, rho = 6, 15, 0.5, 0.7
    p = make_logsumexp_min(d, n_terms, mu=mu, smoothing=rho, seed=11)
    # the generator's data, redrawn from its seed
    gen = np.random.default_rng(11)
    amat = gen.standard_normal((n_terms, d)) / np.sqrt(d)
    bvec = gen.standard_normal(n_terms)

    def objective(z):  # rho * logsumexp((A z - b) / rho) + (mu/2) ||z||^2
        t = (amat @ z - bvec) / rho
        return float(rho * (t.max() + np.log(np.exp(t - t.max()).sum())) + 0.5 * mu * (z @ z))

    rng = np.random.default_rng(4)
    z = rng.standard_normal(d)
    h = 1e-5
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        fd = (objective(z + h * e) - objective(z - h * e)) / (2 * h)
        assert abs(fd - p.eval(z)[j]) <= 1e-6


def test_logsumexp_regularity_bounds_hold_on_samples():
    p = make_logsumexp_min(5, 12, mu=0.3, smoothing=0.5, seed=5)
    lo, _ = sampled_monotonicity_range(p)
    assert lo >= p.mu / 1.001
    assert sampled_lipschitz_max(p) <= p.l1 * 1.001
    assert np.linalg.norm(p.eval(p.known_root)) <= 1e-10
    assert isinstance(p.structure, Symmetric)


# ---------------------------------------------------------------------------
# bilinear minimax


def test_bilinear_is_monotone_not_strongly():
    p = make_bilinear_minimax(4, 6, mu=0.0, l1=1.0, seed=9)
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = rng.standard_normal(10)
        assert abs(p.eval(z) @ z) <= 1e-12 * max(1.0, z @ z)
    assert np.allclose(p.eval(np.zeros(10)), 0.0)
    assert p.structure == JSymmetric(4, 6)


def test_bilinear_jacobian_is_j_symmetric_and_scaled():
    p = make_bilinear_minimax(3, 5, mu=0.2, l1=1.5, seed=2)
    j = fd_jacobian(p, np.zeros(8))
    sgn = np.concatenate([np.ones(3), -np.ones(5)])
    resid = j - sgn[:, None] * j.T * sgn[None, :]
    assert np.max(np.abs(resid)) <= 1e-12
    assert abs(np.linalg.norm(j, 2) - p.l1) <= 1e-10 * p.l1
    lo, _ = sampled_monotonicity_range(p)
    assert lo >= p.mu - 1e-10


# ---------------------------------------------------------------------------
# sparse nonlinear


def test_sparse_jacobian_respects_pattern():
    p = make_sparse_equation(12, 3, mu=0.2, l1=2.0, seed=13)
    assert isinstance(p.structure, Sparse)
    rng = np.random.default_rng(8)
    j = fd_jacobian(p, rng.standard_normal(12))
    allowed = np.zeros((12, 12), dtype=bool)
    np.fill_diagonal(allowed, True)
    for (i, k) in p.structure.pattern:
        allowed[i, k] = True
    assert np.all(j[~allowed] == 0.0)


def test_sparse_regularity_and_root():
    p = make_sparse_equation(12, 3, mu=0.2, l1=2.0, seed=13)
    lo, _ = sampled_monotonicity_range(p)
    assert lo >= p.mu * 0.999
    assert sampled_lipschitz_max(p) <= p.l1 * 1.001
    assert np.linalg.norm(p.eval(p.known_root)) <= 1e-10


# ---------------------------------------------------------------------------
# gap evaluation


def test_primal_dual_box_gap_vanishes_at_saddle():
    p = make_bilinear_minimax(5, 5, mu=0.0, l1=1.0, seed=1)
    box = PrimalDualBox(-np.ones(5), np.ones(5), -np.ones(5), np.ones(5))
    assert evaluate_gap(p, np.zeros(10), box) <= 1e-10
    z = 0.3 * np.ones(10)
    assert evaluate_gap(p, z, box) >= 0.0


def test_primal_dual_box_gap_matches_a_dense_reference():
    # m != n and mu > 0, on a box that is not symmetric about 0; the reference
    # reads C from the problem's own operator, J = [[mu I, C], [-C^T, mu I]]
    m, n, mu = 4, 7, 0.3
    p = make_bilinear_minimax(m, n, mu, 1.5, seed=12)
    c = fd_jacobian(p, np.zeros(m + n))[:m, m:]
    rng = np.random.default_rng(12)
    box = PrimalDualBox(-rng.uniform(0.5, 2, m), rng.uniform(0.5, 2, m),
                        -rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n))

    def f(x, y):
        return 0.5 * mu * (x @ x) + x @ c @ y - 0.5 * mu * (y @ y)

    opts = {"ftol": 1e-15, "gtol": 1e-12}
    for _ in range(3):
        z = rng.standard_normal(m + n)
        x, y = z[:m], z[m:]
        best_y = minimize(lambda yp: -f(x, yp), np.zeros(n), jac=lambda yp: mu * yp - c.T @ x,
                          bounds=list(zip(box.y_lo, box.y_hi)), method="L-BFGS-B", options=opts)
        best_x = minimize(lambda xp: f(xp, y), np.zeros(m), jac=lambda xp: mu * xp + c @ y,
                          bounds=list(zip(box.x_lo, box.x_hi)), method="L-BFGS-B", options=opts)
        reference = -best_y.fun - best_x.fun
        assert abs(evaluate_gap(p, z, box) - reference) <= 1e-8 * max(1.0, abs(reference))


# ---------------------------------------------------------------------------
# structure against dimension


def _identity_problem(structure, d=20):
    return Problem(dim=d, eval=lambda z: z, mu=1.0, l1=1.0, structure=structure)


@pytest.mark.parametrize("structure", [
    Sparse(frozenset({(2, 23)})),  # would alias to entry (3, 3)
    Sparse(frozenset({(3, -1)})),  # would alias to entry (2, 19)
    Sparse(frozenset({(19, 20)})),
    JSymmetric(8, 10),
], ids=["sparse-past-the-row", "sparse-negative", "sparse-past-the-end", "jsymmetric-short"])
def test_structure_that_does_not_fit_the_dimension_is_rejected(structure):
    with pytest.raises(ValueError, match="structure"):
        _identity_problem(structure)


def test_a_gap_needs_the_primal_dual_split_of_jsymmetric_structure():
    # the gap's box splits z into (x, y), which only JSymmetric structure defines
    with pytest.raises(ValueError, match="gap needs JSymmetric"):
        Problem(dim=4, eval=lambda z: z, mu=0.0, l1=1.0, structure=Symmetric(),
                gap=lambda z, box: 0.0)


def test_structure_that_fits_the_dimension_is_accepted():
    _identity_problem(Sparse(frozenset({(3, 3), (0, 19), (19, 0)})))  # the diagonal too
    _identity_problem(JSymmetric(8, 12))


@pytest.mark.parametrize("bad", [{"dim": 0}, {"dim": 2.5}, {"known_root": np.zeros(1)},
                                 {"known_root": np.zeros(4)},
                                 {"known_root": np.array([0.0, math.nan, 0.0])}],
                         ids=["dim_zero", "dim_fraction", "root_broadcasts", "root_too_long",
                              "root_nan"])
def test_dimension_and_root_that_do_not_fit_are_rejected(bad):
    """dim an integer >= 1 and known_root a finite vector of shape (dim,),
    checked when the problem is built rather than inside a solve."""
    fields = dict(dim=3, eval=lambda z: z, mu=1.0, l1=1.0, structure=Symmetric(),
                  known_root=np.zeros(3))
    with pytest.raises(ValueError, match="dim" if "dim" in bad else "known_root"):
        Problem(**{**fields, **bad})


@pytest.mark.parametrize("bad", [{"l1": 0.0, "mu": 0.0}, {"l1": math.inf}, {"mu": -0.1},
                                 {"mu": math.nan}, {"l1": math.nan}],
                         ids=["l1_zero", "l1_inf", "mu_negative", "mu_nan", "l1_nan"])
def test_constants_out_of_range_are_rejected(bad):
    """l1 finite and > 0, mu finite in [0, l1]: checked once, when the problem
    is built, so that no bad value reaches the solver."""
    with pytest.raises(ValueError, match="l1" if "l1" in bad else "mu"):
        dataclasses.replace(make_quadratic_min(10, 0.1, 1, seed=1), **bad)


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize(
    "maker",
    [
        lambda: (make_quadratic_min(6, 0.2, 1.0, seed=5),
                 {"family": "quadratic_min", "d": 6, "mu": 0.2, "l1": 1.0, "seed": 5}),
        lambda: (make_logsumexp_min(4, 9, mu=0.4, smoothing=0.6, seed=6),
                 {"family": "logsumexp_min", "d": 4, "n_terms": 9, "mu": 0.4, "smoothing": 0.6,
                  "seed": 6}),
        lambda: (make_bilinear_minimax(3, 4, mu=0.1, l1=1.0, seed=7),
                 {"family": "bilinear_minimax", "m": 3, "n": 4, "mu": 0.1, "l1": 1.0, "seed": 7}),
        lambda: (make_sparse_equation(10, 2, mu=0.1, l1=1.5, seed=8),
                 {"family": "sparse_equation", "d": 10, "avg_degree": 2, "mu": 0.1, "l1": 1.5,
                  "seed": 8}),
    ],
)
def test_json_roundtrip_reproduces_operator(maker):
    # the descriptor names the same call, as a CLI config entry or a sidecar does
    p, descriptor = maker()
    q = problem_from_descriptor(json.loads(json.dumps(descriptor)))
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.standard_normal(p.dim)
        assert np.array_equal(p.eval(z), q.eval(z))
    assert q.mu == p.mu and q.l1 == p.l1
    if p.known_root is not None:
        assert np.array_equal(p.known_root, q.known_root)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        problem_from_descriptor({"family": "nope"})


# ---------------------------------------------------------------------------
# operator cost


def _dense_quadratic(d, mu, l1, seed):
    """(A, z*) drawn by make_quadratic_min's own rng calls."""
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(mu, l1, size=d)
    eigs[0], eigs[-1] = mu, l1
    qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (qmat * eigs) @ qmat.T
    return 0.5 * (a + a.T), rng.standard_normal(d)


def _dense_sparse_equation(d, avg_degree, mu, l1, seed):
    """(M, eps, c) drawn by make_sparse_equation's own rng calls."""
    rng = np.random.default_rng(seed)
    pattern = set()
    for i in range(d):
        for j in rng.choice(d, size=min(avg_degree, d - 1), replace=False):
            if j != i:
                pattern.add((int(i), int(j)))
    m0 = np.zeros((d, d))
    for (i, j) in frozenset(pattern):
        m0[i, j] = rng.standard_normal()
    m0[np.diag_indices(d)] = rng.standard_normal(d)
    m0 /= np.linalg.norm(m0, 2)
    lam_min = float(np.linalg.eigvalsh(0.5 * (m0 + m0.T))[0])
    eps = 0.2 * l1
    t = (0.8 * l1 - mu) / (1.0 + max(-lam_min, 0.0))
    return t * m0 + (mu - t * lam_min) * np.eye(d), eps, rng.standard_normal(d)


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadratic_operator_is_the_dense_definition(seed):
    d, mu, l1 = 40, 0.1, 1.0
    p = make_quadratic_min(d, mu, l1, seed=seed)
    a, z_star = _dense_quadratic(d, mu, l1, seed)
    assert np.array_equal(p.known_root, z_star)
    rng = np.random.default_rng(seed + 10)
    for _ in range(3):
        z = rng.standard_normal(d)
        _assert_close(p.eval(z), a @ (z - z_star))
    for bad in (np.zeros(d + 1), np.zeros(1)):  # a length-1 z must not broadcast
        with pytest.raises(ValueError, match="length"):
            p.eval(bad)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_operator_is_the_dense_definition(seed):
    d = 60
    p = make_sparse_equation(d, 3, mu=0.1, l1=1.5, seed=seed)
    mmat, eps, cvec = _dense_sparse_equation(d, 3, 0.1, 1.5, seed)
    rng = np.random.default_rng(seed + 10)
    for _ in range(3):
        z = rng.standard_normal(d)
        _assert_close(p.eval(z), mmat @ z + eps * np.tanh(z) - cvec)


def _closure_arrays(fn):
    """Every array a function's closure reaches, through nested closures."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            yield value
        elif callable(value) and hasattr(value, "__closure__"):
            yield from _closure_arrays(value)


@pytest.mark.parametrize("maker, bound_len", [
    (lambda: make_quadratic_min(200, 0.1, 1.0, seed=1), 200),
    (lambda: make_bilinear_minimax(200, 200, 0.1, 1.0, seed=1), 400),
    (lambda: make_sparse_equation(300, 4, 0.1, 1.0, seed=1), 300),
    (lambda: make_logsumexp_min(200, 4000, mu=0.1, smoothing=0.5, seed=1), 4200),
], ids=["quadratic", "bilinear", "sparse", "logsumexp"])
def test_operator_call_allocates_vectors_not_a_matrix(maker, bound_len):
    """One call of F peaks below 64 vectors of the operator's size."""
    p = maker()
    z = np.random.default_rng(0).standard_normal(p.dim)
    p.eval(z)  # first call outside the measurement
    tracemalloc.start()
    try:
        p.eval(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * bound_len * 8
    if isinstance(p.structure, Sparse):
        assert all(a.size < p.dim * p.dim for a in _closure_arrays(p.eval))
