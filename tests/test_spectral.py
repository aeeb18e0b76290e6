"""Lanczos machinery and the two randomized separation primitives, checked
against dense eigen/singular decompositions."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qnpe import KrylovBasis, SepCase, SolverError, ext_evec, max_svec
from qnpe.spectral import lanczos, lanczos_step_count, tridiag_eigpair

from dense import dense_s


def test_lanczos_breaks_down_on_scaled_identity():
    c = 2.5
    res = lanczos(lambda v: c * v, d=8, n_steps=5, rng=np.random.default_rng(0))
    assert res.steps_taken < 5
    assert res.steps_taken == 1
    assert np.allclose(res.alphas, [c])


def test_lanczos_full_run_recovers_spectrum():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    res = lanczos(lambda v: a @ v, d=6, n_steps=6, rng=rng)
    assert res.steps_taken == 6
    t = np.diag(res.alphas) + np.diag(res.betas, 1) + np.diag(res.betas, -1)
    assert np.allclose(np.sort(np.linalg.eigvalsh(t)), np.linalg.eigvalsh(a), atol=1e-8)
    gram = res.basis.T @ res.basis
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def _reference_lanczos(apply_sym, d, n_steps, rng):
    """The shared recurrence written out on a list of rows: the three-term
    step, one classical Gram-Schmidt pass against every row, its coefficient
    on v_k added to alpha, and the stop on beta against a running norm
    estimate."""
    v = rng.standard_normal(d)
    rows = [v / math.sqrt(v.dot(v))]
    alphas, betas = [], []
    beta = 0.0
    norm_estimate = 0.0
    for k in range(n_steps):
        w = apply_sym(rows[k])
        if k:
            w = w - beta * rows[k - 1]
        alpha = w.dot(rows[k])
        w = w - alpha * rows[k]
        q = np.array(rows)
        c = q @ w
        w -= c @ q
        alpha += c[k]
        if not (math.isfinite(alpha) and np.all(np.isfinite(c))):
            raise FloatingPointError("NaN/Inf in Lanczos recurrence")
        alphas.append(alpha)
        norm_estimate = max(norm_estimate, abs(alpha) + abs(beta))
        beta_next = math.sqrt(w.dot(w))
        if k + 1 == n_steps or beta_next <= 1e-12 * max(norm_estimate, 1e-300):
            break
        betas.append(beta_next)
        rows.append(w / beta_next)
        beta = beta_next
    return np.array(alphas), np.array(betas), np.array(rows)


@pytest.mark.parametrize("d, n_steps", [(1, 1), (7, 7), (40, 15), (120, 33)])
def test_lanczos_is_bitwise_the_reference_recurrence(d, n_steps):
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    a = 0.5 * (a + a.T)
    res = lanczos(lambda v: a @ v, d, n_steps, np.random.default_rng(11))
    alphas, betas, basis = _reference_lanczos(lambda v: a @ v, d, n_steps,
                                              np.random.default_rng(11))
    assert np.array_equal(res.alphas, alphas)
    assert np.array_equal(res.betas, betas)
    assert np.array_equal(res.basis, basis)


def test_lanczos_runs_on_the_inner_solves_krylov_basis():
    """One engine: lanczos's rows, alphas and betas are bitwise those of a
    KrylovBasis extended as many times from the same start vector."""
    d = 60
    rng = np.random.default_rng(60)
    a = rng.standard_normal((d, d))
    a = 0.5 * (a + a.T)
    res = lanczos(lambda v: a @ v, d, 25, np.random.default_rng(12))
    basis = KrylovBasis(lambda v: a @ v, np.random.default_rng(12).standard_normal(d))
    for _ in range(res.steps_taken):
        basis.extend()
    assert res.steps_taken == 25
    assert np.array_equal(res.alphas, [col[-2] for col in basis.cols])
    assert np.array_equal(res.betas, [col[-1] for col in basis.cols[:-1]])
    assert np.array_equal(res.basis, basis.rows[:25])


@pytest.mark.parametrize("d, r", [(100, 5), (300, 11)])
def test_lanczos_stops_on_a_rank_r_operator_after_r_plus_one_steps(d, r):
    """K_{r+1}(U diag(c) U^T, v) = span(v, range U) is invariant, and lanczos's
    own rule (beta against 1e-12 times its running norm estimate) sees it
    there, long before the step cap."""
    rng = np.random.default_rng(d + r)
    u, _ = np.linalg.qr(rng.standard_normal((d, r)))
    a = (u * rng.standard_normal(r)) @ u.T
    res = lanczos(lambda v: a @ v, d, 40, np.random.default_rng(0))
    assert res.steps_taken == r + 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "overflow"])
def test_lanczos_raises_on_a_non_finite_operator_value(bad):
    """A non-finite value at the third call, or an operator whose finite
    values overflow ||w||^2 (beta = inf): lanczos raises, so the tridiagonal
    eigensolver never sees a non-finite entry."""
    calls = [0]
    m = np.random.default_rng(14).standard_normal((10, 10))

    def apply_sym(v):
        calls[0] += 1
        if bad == "overflow":
            return 1e200 * (m + m.T) @ v
        out = 2.0 * v
        if calls[0] == 3:
            out[4] = bad
        return out + np.arange(len(v)) * v

    with pytest.raises(SolverError, match="NaN/Inf in Lanczos recurrence") as info:
        lanczos(apply_sym, d=10, n_steps=6, rng=np.random.default_rng(13))
    assert calls[0] == (2 if bad == "overflow" else 3)
    assert (info.value.layer, info.value.k) == ("spectral", None)


@pytest.mark.parametrize("n", [2, 3, 45])
def test_tridiag_eigpair_is_bitwise_eigh_tridiagonal(n):
    rng = np.random.default_rng(n)
    alphas, betas = rng.standard_normal(n), rng.standard_normal(n - 1)
    for i in sorted({0, n // 2, n - 1}):
        lam, z = tridiag_eigpair(alphas, betas, i)
        want_lam, want_z = eigh_tridiagonal(alphas, betas, select="i", select_range=(i, i))
        assert np.float64(lam).tobytes() == want_lam[0].tobytes()
        assert z.tobytes() == want_z[:, 0].tobytes()


def test_tridiag_eigpair_diagonal_case():
    alphas, betas = np.array([1.0, 2.0, 3.0]), np.zeros(2)
    lam_max, v_max = tridiag_eigpair(alphas, betas, 2)
    lam_min, v_min = tridiag_eigpair(alphas, betas, 0)
    assert lam_max == 3.0 and lam_min == 1.0
    assert np.allclose(np.abs(v_max), [0, 0, 1], atol=1e-12)
    assert np.allclose(np.abs(v_min), [1, 0, 0], atol=1e-12)


def test_tridiag_eigpair_two_by_two():
    alphas, betas = np.zeros(2), np.array([1.0])
    lam_max, v_max = tridiag_eigpair(alphas, betas, 1)
    lam_min, v_min = tridiag_eigpair(alphas, betas, 0)
    assert abs(lam_max - 1.0) <= 1e-14
    assert abs(lam_min + 1.0) <= 1e-14
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(v_max), inv_sqrt2, atol=1e-12)
    assert np.allclose(np.abs(v_min), inv_sqrt2, atol=1e-12)


def test_tridiag_eigpair_matches_dense():
    rng = np.random.default_rng(2)
    alphas = rng.standard_normal(12)
    betas = rng.standard_normal(11)
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    dense = np.linalg.eigvalsh(t)
    lam_max, _ = tridiag_eigpair(alphas, betas, 11)
    lam_min, _ = tridiag_eigpair(alphas, betas, 0)
    assert abs(lam_max - dense[-1]) <= 1e-10
    assert abs(lam_min - dense[0]) <= 1e-10


def test_step_count_formula():
    """The count for an n x n operator is the paper's, with c = 11 for the
    symmetrized oracle (n = d) and c = 22 for the augmented one (n = 2d)."""
    for d, delta, q, aug in [(30, 0.25, 0.1, False), (30, 0.25, 0.05, True), (200, 0.05, 0.01, False),
                             (200, 0.05, 0.01, True), (7, 1e-3, 0.5, True)]:
        c, n = (22.0, 2 * d) if aug else (11.0, d)
        expected = math.ceil(0.25 * math.sqrt(2 * (1 + 1 / delta)) * math.log(c * d / q**2) + 0.5)
        assert lanczos_step_count(n, delta, q) == expected


# ---------------------------------------------------------------------------
# ext_evec


def test_ext_evec_zero_matrix_is_case_one():
    res = ext_evec(lambda v: 0 * v, d=6, delta=0.25, q=0.1,
                   rng=np.random.default_rng(3), symmetric=True)
    assert res.case is SepCase.CASE_I
    assert res.gamma <= 1e-12


def test_ext_evec_scaled_identity_separates():
    res = ext_evec(lambda v: 2.0 * v, d=6, delta=0.25, q=0.1,
                   rng=np.random.default_rng(4), symmetric=True)
    assert res.case is SepCase.CASE_II
    assert abs(res.gamma - 2.0) <= 1e-10
    s = dense_s(res)
    assert np.linalg.norm(s) <= 1.0 + 1e-12
    assert abs(np.tensordot(s, 2.0 * np.eye(6), axes=2) - 2.0) <= 1e-10


def test_ext_evec_case_two_separating_hyperplane():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((10, 10))
    w = 0.5 * (w + w.T)
    w *= 2.0 / np.max(np.abs(np.linalg.eigvalsh(w)))  # true gamma = 2
    res = ext_evec(lambda v: w @ v, d=10, delta=0.25, q=0.01,
                   rng=rng, symmetric=True)
    assert res.case is SepCase.CASE_II
    s = dense_s(res)
    # S separates W from everything whose symmetric part fits the unit interval
    for _ in range(100):
        b = rng.standard_normal((10, 10))
        b = 0.5 * (b + b.T)
        eigs, vecs = np.linalg.eigh(b)
        b = (vecs * np.clip(eigs, -1, 1)) @ vecs.T
        lhs = np.tensordot(s, w - b, axes=2)
        assert lhs >= res.gamma - 1.0 - 1e-8


def test_ext_evec_nonsymmetric_uses_symmetrized_input():
    rng = np.random.default_rng(6)
    skew = rng.standard_normal((8, 8))
    skew = skew - skew.T  # sym part is zero
    res = ext_evec(lambda v: 0.5 * (skew @ v + skew.T @ v), d=8, delta=0.25,
                   q=0.1, rng=rng, symmetric=False)
    assert res.case is SepCase.CASE_I
    assert res.gamma <= 1e-10


# ---------------------------------------------------------------------------
# max_svec


def test_max_svec_zero_matrix_is_case_one():
    res = max_svec(lambda x: 0 * x, d=5, delta=0.25, q=0.1,
                   rng=np.random.default_rng(7))
    assert res.case is SepCase.CASE_I


def test_max_svec_rank_one_matrix():
    w = np.zeros((5, 5))
    w[0, 1] = 6.0  # sigma_max = 6, gamma = 2
    res = max_svec(lambda x: np.concatenate([w @ x[5:], w.T @ x[:5]]), d=5, delta=0.25, q=0.01,
                   rng=np.random.default_rng(8))
    assert res.case is SepCase.CASE_II
    assert abs(res.gamma - 2.0) <= 1e-8
    s = dense_s(res)
    assert np.linalg.norm(s) <= 1.0 + 1e-12
    assert abs(np.tensordot(s, w, axes=2) - res.gamma) <= 1e-8


def test_max_svec_alignment_on_random_matrix():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((12, 12))
    w *= 9.0 / np.linalg.svd(w, compute_uv=False)[0]  # true gamma = 3
    res = max_svec(lambda x: np.concatenate([w @ x[12:], w.T @ x[:12]]), d=12, delta=0.25,
                   q=0.01, rng=rng)
    assert res.case is SepCase.CASE_II
    assert res.gamma <= 3.0 + 1e-10  # Ritz value never exceeds the true one
    assert abs(np.tensordot(dense_s(res), w, axes=2) - res.gamma) <= 1e-8


# ---------------------------------------------------------------------------
# matvec accounting


@pytest.mark.parametrize("scale", [0.5, 2.0], ids=["case1", "case2"])
def test_oracle_matvecs_are_the_counted_operator_calls(scale):
    """Each oracle reports its operator calls, counted outside, times the
    per-step rule: one W-product per ext_evec step when W is symmetric, two
    otherwise, and two per max_svec step.  A breakdown stops the count early."""
    rng = np.random.default_rng(11)
    w = rng.standard_normal((12, 12))
    w *= scale / np.linalg.svd(w, compute_uv=False)[0]
    sym = 0.5 * (w + w.T)
    calls = []

    def counted(fn):
        return lambda v: calls.append(1) or fn(v)

    for symmetric in (False, True):
        calls.clear()
        res = ext_evec(counted(lambda v: sym @ v), 12, 0.25, 0.1, rng, symmetric=symmetric)
        assert res.matvecs == (1 if symmetric else 2) * len(calls) > 0
    calls.clear()
    aug = counted(lambda x: np.concatenate([w @ x[12:], w.T @ x[:12]]))
    res = max_svec(aug, 12, 0.25, 0.1, rng)
    assert res.matvecs == 2 * len(calls) > 0
    calls.clear()
    res = ext_evec(counted(lambda v: scale * v), 12, 0.25, 0.1, rng, symmetric=True)
    assert res.matvecs == len(calls) == 1  # the scaled identity breaks down after one step


def test_oracle_argument_validation():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        ext_evec(lambda v: v, 4, delta=0.0, q=0.1, rng=rng)
    with pytest.raises(ValueError):
        max_svec(lambda x: x, 4, delta=0.25, q=1.5, rng=rng)
