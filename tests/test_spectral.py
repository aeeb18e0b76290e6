"""Lanczos machinery and the two randomized separation primitives, checked
against dense eigen/singular decompositions."""

import math

import numpy as np
import pytest

from qnpe import SepCase, ext_evec, lanczos, max_svec
from qnpe.spectral import lanczos_step_count, tridiag_extreme_eigs


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


def test_tridiag_extreme_eigs_diagonal_case():
    lam_max, v_max, lam_min, v_min = tridiag_extreme_eigs(
        np.array([1.0, 2.0, 3.0]), np.zeros(2)
    )
    assert lam_max == 3.0 and lam_min == 1.0
    assert np.allclose(np.abs(v_max), [0, 0, 1], atol=1e-12)
    assert np.allclose(np.abs(v_min), [1, 0, 0], atol=1e-12)


def test_tridiag_extreme_eigs_two_by_two():
    lam_max, v_max, lam_min, v_min = tridiag_extreme_eigs(np.zeros(2), np.array([1.0]))
    assert abs(lam_max - 1.0) <= 1e-14
    assert abs(lam_min + 1.0) <= 1e-14
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(v_max), inv_sqrt2, atol=1e-12)
    assert np.allclose(np.abs(v_min), inv_sqrt2, atol=1e-12)


def test_tridiag_extreme_eigs_matches_dense():
    rng = np.random.default_rng(2)
    alphas = rng.standard_normal(12)
    betas = rng.standard_normal(11)
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    dense = np.linalg.eigvalsh(t)
    lam_max, _, lam_min, _ = tridiag_extreme_eigs(alphas, betas)
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
    res = ext_evec(lambda v: 0 * v, lambda v: 0 * v, d=6, delta=0.25, q=0.1,
                   rng=np.random.default_rng(3), symmetric=True)
    assert res.case is SepCase.CASE_I
    assert res.gamma <= 1e-12


def test_ext_evec_scaled_identity_separates():
    res = ext_evec(lambda v: 2.0 * v, lambda v: 2.0 * v, d=6, delta=0.25, q=0.1,
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
    res = ext_evec(lambda v: w @ v, lambda v: w @ v, d=10, delta=0.25, q=0.01,
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
    res = ext_evec(lambda v: skew @ v, lambda v: skew.T @ v, d=8, delta=0.25,
                   q=0.1, rng=rng, symmetric=False)
    assert res.case is SepCase.CASE_I
    assert res.gamma <= 1e-10


# ---------------------------------------------------------------------------
# max_svec


def test_max_svec_zero_matrix_is_case_one():
    res = max_svec(lambda v: 0 * v, lambda v: 0 * v, d=5, delta=0.25, q=0.1,
                   rng=np.random.default_rng(7))
    assert res.case is SepCase.CASE_I


def test_max_svec_rank_one_matrix():
    w = np.zeros((5, 5))
    w[0, 1] = 6.0  # sigma_max = 6, gamma = 2
    res = max_svec(lambda v: w @ v, lambda v: w.T @ v, d=5, delta=0.25, q=0.01,
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
    res = max_svec(lambda v: w @ v, lambda v: w.T @ v, d=12, delta=0.25, q=0.01, rng=rng)
    assert res.case is SepCase.CASE_II
    assert res.gamma <= 3.0 + 1e-10  # Ritz value never exceeds the true one
    assert abs(np.tensordot(res.s, w, axes=2) - res.gamma) <= 1e-8


def test_oracle_argument_validation():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        ext_evec(lambda v: v, lambda v: v, 4, delta=0.0, q=0.1, rng=rng)
    with pytest.raises(ValueError):
        max_svec(lambda v: v, lambda v: v, 4, delta=0.25, q=1.5, rng=rng)
