"""Structural projections, the recentering transform, and the composed
separation oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe import (
    FeasibleSetParams,
    General,
    JSymmetric,
    SepCase,
    Sparse,
    Symmetric,
)
from qnpe.separation import (
    from_hat,
    oracle_matrices,
    oracle_operators,
    pattern_index,
    project_subspace,
    sep_feasible,
    sparse_matvec,
    to_hat,
)


STRUCTURES = [
    General(),
    Symmetric(),
    JSymmetric(2, 2),
    Sparse(frozenset({(0, 1), (2, 3)})),
]


def random_matrix(seed, d=4):
    return np.random.default_rng(seed).standard_normal((d, d))


def test_symmetrization_example():
    w = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(project_subspace(Symmetric(), w), [[0.0, 1.0], [1.0, 0.0]])


def test_j_symmetrization_kills_symmetric_off_block():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(project_subspace(JSymmetric(1, 1), w), np.zeros((2, 2)))


def test_sparse_projection_keeps_diagonal_and_pattern():
    w = np.arange(9.0).reshape(3, 3) + 1.0
    out = project_subspace(Sparse(frozenset({(1, 2)})), w)
    expected = np.diag(np.diag(w))
    expected[1, 2] = w[1, 2]
    assert np.array_equal(out, expected)


def test_general_projection_is_identity():
    w = random_matrix(0)
    assert project_subspace(General(), w) is w or np.array_equal(
        project_subspace(General(), w), w
    )


@pytest.mark.parametrize("structure", STRUCTURES)
def test_projection_is_idempotent_and_self_adjoint(structure):
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = rng.standard_normal((4, 4))
        v = rng.standard_normal((4, 4))
        pw = project_subspace(structure, w)
        assert np.max(np.abs(project_subspace(structure, pw) - pw)) <= 1e-14
        # <P w, v> == <w, P v>
        lhs = np.tensordot(pw, v, axes=2)
        rhs = np.tensordot(w, project_subspace(structure, v), axes=2)
        assert abs(lhs - rhs) <= 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_projection_never_increases_frobenius_norm(seed):
    w = random_matrix(seed)
    for structure in STRUCTURES:
        assert np.linalg.norm(project_subspace(structure, w)) <= np.linalg.norm(w) + 1e-12


def test_projection_rejects_nonsquare():
    with pytest.raises(ValueError):
        project_subspace(Symmetric(), np.ones((2, 3)))
    with pytest.raises(ValueError):
        project_subspace(JSymmetric(2, 3), np.ones((4, 4)))


# ---------------------------------------------------------------------------
# recentering transform


def test_from_hat_shifts_the_diagonal_bit_for_bit():
    rng = np.random.default_rng(12)
    params = FeasibleSetParams(mu=0.3, l1=1.7, structure=General())
    for d in (1, 5, 40):
        b_hat = rng.standard_normal((d, d))
        expected = params.l1 * b_hat + (params.l1 + params.mu) * np.eye(d)
        fresh = from_hat(b_hat, params)
        assert np.array_equal(fresh, expected) and fresh.tobytes() == expected.tobytes()


def test_to_hat_maps_center_to_zero():
    params = FeasibleSetParams(mu=0.3, l1=2.0, structure=Symmetric())
    b = (params.l1 + params.mu) * np.eye(5)
    assert np.max(np.abs(to_hat(b, params))) == 0.0


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_hat_roundtrip(seed):
    params = FeasibleSetParams(mu=0.1, l1=1.7, structure=General())
    b = random_matrix(seed, d=5)
    back = from_hat(to_hat(b, params), params)
    assert np.max(np.abs(back - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


def test_hat_of_feasible_matrix_is_in_unit_set():
    # B with mu I <= sym(B) <= (2 L1 + mu) I and ||B - (L1+mu)I|| <= 3 L1
    rng = np.random.default_rng(2)
    mu, l1 = 0.2, 1.3
    params = FeasibleSetParams(mu=mu, l1=l1, structure=General())
    for _ in range(10):
        h = rng.standard_normal((8, 8))
        h = 0.5 * (h + h.T)
        h *= 0.9 / np.max(np.abs(np.linalg.eigvalsh(h)))
        b = from_hat(h, params)
        b_hat = to_hat(b, params)
        eigs = np.linalg.eigvalsh(0.5 * (b_hat + b_hat.T))
        assert eigs[0] >= -1 - 1e-12 and eigs[-1] <= 1 + 1e-12
        assert np.linalg.norm(b_hat, 2) <= 3 + 1e-12
        # on the original scale: sym(B) >= mu I
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= mu - 1e-10


def test_feasible_params_validation():
    with pytest.raises(ValueError):
        FeasibleSetParams(mu=2.0, l1=1.0, structure=General())


# ---------------------------------------------------------------------------
# composed oracle


def test_sep_feasible_zero_is_case_one():
    params = FeasibleSetParams(mu=0.1, l1=1.0, structure=General())
    res = sep_feasible(np.zeros((6, 6)), 0.25, 0.1, params, np.random.default_rng(3))
    assert res.case is SepCase.CASE_I


def test_sep_feasible_symmetric_small_spectrum_case_one():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((10, 10))
    w = 0.5 * (w + w.T)
    w *= 0.5 / np.max(np.abs(np.linalg.eigvalsh(w)))
    params = FeasibleSetParams(mu=0.1, l1=1.0, structure=Symmetric())
    res = sep_feasible(w, 0.25, 0.01, params, rng)
    assert res.case is SepCase.CASE_I


def test_sep_feasible_skew_triggers_operator_norm_branch():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    w = a - a.T  # symmetric part zero: only the norm constraint can fire
    w *= 5.0 / np.linalg.svd(w, compute_uv=False)[0]
    params = FeasibleSetParams(mu=0.0, l1=1.0, structure=General())
    res = sep_feasible(w, 0.25, 0.01, params, rng)
    assert res.case is SepCase.CASE_II
    assert abs(res.gamma - 5.0 / 3.0) <= 1e-6
    s = res.s
    assert np.linalg.norm(s) <= 1.0 + 1e-12
    assert np.tensordot(s, w, axes=2) >= res.gamma - 1e-8


@pytest.mark.parametrize(
    "structure", [Symmetric(), JSymmetric(5, 5), Sparse(frozenset({(0, 3), (4, 1), (7, 2)}))]
)
def test_sep_feasible_case_two_scaled_point_is_feasible(structure):
    rng = np.random.default_rng(7)
    d = 10
    w = project_subspace(structure, 4.0 * rng.standard_normal((d, d)))
    delta, q = 0.25, 0.01
    params = FeasibleSetParams(mu=0.2, l1=1.0, structure=structure)
    res = sep_feasible(w, delta, q, params, rng)
    if res.case is SepCase.CASE_I:
        gamma_true = max(
            np.max(np.abs(np.linalg.eigvalsh(0.5 * (w + w.T)))),
            np.linalg.svd(w, compute_uv=False)[0] / 3.0,
        )
        assert gamma_true <= 1 + delta
        return
    scaled = w / res.gamma
    eigs = np.linalg.eigvalsh(0.5 * (scaled + scaled.T))
    assert eigs[0] >= -(1 + delta) - 1e-8 and eigs[-1] <= (1 + delta) + 1e-8
    assert np.linalg.svd(scaled, compute_uv=False)[0] <= 3 * (1 + delta) + 1e-8
    s = res.s
    # separator returned inside the structural subspace, exactly
    assert np.array_equal(project_subspace(structure, s), s)
    assert np.linalg.norm(s) <= 1.0 + 1e-12


def _random_pattern(d, n_pairs, seed):
    rng = np.random.default_rng(seed)
    return frozenset(zip(rng.integers(0, d, n_pairs).tolist(), rng.integers(0, d, n_pairs).tolist()))


def _dense(n, indptr, indices, data):
    out = np.zeros((n, n))
    for i in range(n):
        out[i, indices[indptr[i]: indptr[i + 1]]] = data[indptr[i]: indptr[i + 1]]
    return out


@pytest.mark.parametrize("d, n_pairs", [(1, 1), (6, 4), (30, 90)])
def test_sparse_oracle_matrices_are_the_dense_operators(d, n_pairs):
    structure = Sparse(_random_pattern(d, n_pairs, seed=d))
    w = project_subspace(structure, np.random.default_rng(d + 1).standard_normal((d, d)))
    sym, aug = oracle_matrices(structure.pattern, w)
    assert np.array_equal(_dense(d, *sym), 0.5 * (w + w.T))
    zero = np.zeros((d, d))
    assert np.array_equal(_dense(2 * d, *aug), np.block([[zero, w], [w.T, zero]]))
    for indptr, indices, _ in (sym, aug):
        assert indices.dtype == indptr.dtype == np.int32
        for i in range(len(indptr) - 1):
            assert np.all(np.diff(indices[indptr[i]: indptr[i + 1]]) > 0)


@pytest.mark.parametrize("d, n_pairs", [(1, 1), (6, 4), (30, 90)])
def test_sparse_matvec_is_bitwise_scipys_product(d, n_pairs):
    """The direct kernel calls against scipy's public products, so a scipy
    whose private kernel signature changes fails here."""
    structure = Sparse(_random_pattern(d, n_pairs, seed=d))
    rng = np.random.default_rng(d + 2)
    w = project_subspace(structure, rng.standard_normal((d, d)))
    _, cols, flat, indptr = pattern_index(structure.pattern, d)
    data = w.take(flat)
    apply = sparse_matvec(csr_matvec, indptr, cols, data)
    apply_t = sparse_matvec(csc_matvec, indptr, cols, data)
    for _ in range(3):
        v = rng.standard_normal(d)
        assert apply(v).tobytes() == (sp.csr_array(w) @ v).tobytes()
        assert apply_t(v).tobytes() == (sp.csr_array(w.T) @ v).tobytes()
    with pytest.raises(ValueError, match="length"):
        apply(np.zeros(d + 1))


@pytest.mark.parametrize(
    "structure, d",
    [(JSymmetric(7, 13), 20), (Sparse(_random_pattern(30, 90, seed=30)), 30), (General(), 10)],
    ids=["jsymmetric", "sparse", "general"],
)
def test_oracle_operators_apply_the_dense_operators(structure, d):
    """JSymmetric(7, 13) has m != n, so a slip at the block boundary shows."""
    rng = np.random.default_rng(d)
    w = project_subspace(structure, rng.standard_normal((d, d)))
    apply_sym, apply_aug = oracle_operators(structure, w)
    for _ in range(5):
        v, x = rng.standard_normal(d), rng.standard_normal(2 * d)
        assert np.allclose(apply_sym(v), 0.5 * (w @ v + w.T @ v), rtol=0, atol=1e-13)
        assert np.allclose(apply_aug(x), np.concatenate([w @ x[d:], w.T @ x[:d]]),
                           rtol=0, atol=1e-13)


@pytest.mark.parametrize("structure", [Sparse(_random_pattern(40, 160, seed=14)), JSymmetric(20, 20)],
                         ids=["sparse", "jsymmetric"])
def test_structured_oracle_agrees_with_the_dense_formulas(structure):
    """The Sparse (fused CSR) and JSymmetric (block-diagonal sym(W), one d x 2
    augmented product) oracles against General's dense products, run from the
    same rng: same case, gamma and projected S up to rounding."""
    d, delta, q = 40, 0.25, 0.05
    structured = FeasibleSetParams(mu=0.1, l1=1.0, structure=structure)
    dense = FeasibleSetParams(mu=0.1, l1=1.0, structure=General())
    draws = np.random.default_rng(15)
    cases = set()
    for seed in range(30):
        w = project_subspace(structure, draws.standard_normal((d, d)))
        gamma_true = max(np.max(np.abs(np.linalg.eigvalsh(0.5 * (w + w.T)))),
                         np.linalg.svd(w, compute_uv=False)[0] / 3.0)
        w *= draws.uniform(0.5, 2.0) / gamma_true
        got = sep_feasible(w, delta, q, structured, np.random.default_rng(seed))
        want = sep_feasible(w, delta, q, dense, np.random.default_rng(seed))
        assert got.case is want.case
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        if want.case is SepCase.CASE_II:
            assert np.allclose(got.s, project_subspace(structure, want.s), rtol=0, atol=1e-12)
        cases.add(got.case)
    assert cases == {SepCase.CASE_I, SepCase.CASE_II}
