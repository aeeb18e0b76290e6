"""Lanczos machinery and the two randomized separation primitives, checked
against dense eigen/singular decompositions."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qnpe import SepCase, ext_evec, max_svec
from qnpe.spectral import lanczos, lanczos_step_count, tridiag_eigpair


def test_lanczos_breaks_down_on_scaled_identity():
    c = 2.5
    res = lanczos(lambda v: c * v, d=8, n_steps=5, rng=np.random.default_rng(0))
    assert res.broke_down
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
    """The recurrence as first written: a full-vector finiteness check, an
    out-of-place alpha update and np.linalg.norm."""
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    basis = np.zeros((d, n_steps))
    alphas = np.zeros(n_steps)
    betas = np.zeros(max(n_steps - 1, 0))
    v_prev = np.zeros(d)
    beta = 0.0
    norm_estimate = 0.0
    steps = 0
    for k in range(n_steps):
        basis[:, k] = v
        w = apply_sym(v) - beta * v_prev
        if not np.all(np.isfinite(w)):
            raise FloatingPointError("NaN/Inf in Lanczos recurrence")
        alpha = float(w @ v)
        w = w - alpha * v
        w -= basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)
        alphas[k] = alpha
        steps = k + 1
        norm_estimate = max(norm_estimate, abs(alpha) + abs(beta))
        beta_next = float(np.linalg.norm(w))
        if k + 1 < n_steps:
            if beta_next <= 1e-12 * max(norm_estimate, 1e-300):
                break
            betas[k] = beta_next
            v_prev = v
            v = w / beta_next
            beta = beta_next
    return alphas[:steps], betas[: max(steps - 1, 0)], basis[:, :steps]


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

    with pytest.raises(FloatingPointError):
        lanczos(apply_sym, d=10, n_steps=6, rng=np.random.default_rng(13))
    assert calls[0] == (2 if bad == "overflow" else 3)


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
    for d, delta, q, aug in [(30, 0.25, 0.1, False), (30, 0.25, 0.05, True), (200, 0.05, 0.01, False)]:
        c = 22.0 if aug else 11.0
        expected = math.ceil(0.25 * math.sqrt(2 * (1 + 1 / delta)) * math.log(c * d / q**2) + 0.5)
        assert lanczos_step_count(d, delta, q, augmented=aug) == expected


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
    s = res.s
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
    s = res.s
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
    s = res.s
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
    assert abs(np.tensordot(res.s, w, axes=2) - res.gamma) <= 1e-8


def test_oracle_argument_validation():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        ext_evec(lambda v: v, 4, delta=0.0, q=0.1, rng=rng)
    with pytest.raises(ValueError):
        max_svec(lambda x: x, 4, delta=0.25, q=1.5, rng=rng)
