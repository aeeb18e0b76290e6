"""Structural projections, the models' oracle operators, and the composed
separation oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe import (
    General,
    JSymmetric,
    Learner,
    SepCase,
    Sparse,
    Symmetric,
    ext_evec,
    max_svec,
)
from qnpe.learner import oracle_index, pattern_index, project_subspace
from qnpe.problems import sparse_matvec
from qnpe.separation import sep_feasible

from dense import dense_s, stored_model


def _stored(structure, w):
    """The dense w as the learner stores it: the base of its structure's model."""
    return stored_model(structure, w.shape[0], w)


def _sep(w, delta, q, structure, rng):
    """sep_feasible at the dense w, given its Frobenius norm."""
    fro = float(np.linalg.norm(w))
    return sep_feasible(_stored(structure, w), fro, delta, q, rng)


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


# ---------------------------------------------------------------------------
# learner parameters


def test_feasible_params_validation():
    """Each constant is checked once, when the learner is built: l1 = 0 would
    divide by zero in the first round, l1 = inf fail the oracle's delta check,
    rho = -1 step uphill, and rho = NaN fail deep in Lanczos."""
    cases = ([("mu", mu) for mu in (2.0, -0.1, np.nan)]
             + [("l1", l1) for l1 in (0.0, -1.0, np.inf, np.nan)]
             + [("rho", rho) for rho in (-1.0, 0.0, np.nan, np.inf)]
             + [("dim", dim) for dim in (0, 1.5, True)])
    for name, value in cases:
        kwargs = {"dim": 4, "mu": 0.0, "l1": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            Learner(General(), rng=np.random.default_rng(0), **kwargs)


# ---------------------------------------------------------------------------
# composed oracle


def test_sep_feasible_zero_is_case_one():
    res = _sep(np.zeros((6, 6)), 0.25, 0.1, General(), np.random.default_rng(3))
    assert res.case is SepCase.CASE_I


def test_sep_feasible_symmetric_small_spectrum_case_one():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((10, 10))
    w = 0.5 * (w + w.T)
    w *= 0.5 / np.max(np.abs(np.linalg.eigvalsh(w)))
    res = _sep(w, 0.25, 0.01, Symmetric(), rng)
    assert res.case is SepCase.CASE_I


def test_sep_feasible_skew_triggers_operator_norm_branch():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((8, 8))
    w = a - a.T  # symmetric part zero: only the norm constraint can fire
    w *= 5.0 / np.linalg.svd(w, compute_uv=False)[0]
    res = _sep(w, 0.25, 0.01, General(), rng)
    assert res.case is SepCase.CASE_II
    assert abs(res.gamma - 5.0 / 3.0) <= 1e-6
    s = dense_s(res)
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
    res = _sep(w, delta, q, structure, rng)
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
    # the learner steps along the projected separator, exactly in the subspace
    s = project_subspace(structure, dense_s(res))
    assert np.array_equal(project_subspace(structure, s), s)
    assert np.linalg.norm(s) <= 1.0 + 1e-12


def _random_pattern(d, n_pairs, seed):
    rng = np.random.default_rng(seed)
    return frozenset(zip(rng.integers(0, d, n_pairs).tolist(), rng.integers(0, d, n_pairs).tolist()))


@pytest.mark.parametrize("d, n_pairs", [(1, 1), (6, 4), (30, 90)])
def test_sparse_model_products_and_oracle_operators_are_the_dense_ones(d, n_pairs):
    """The Sparse model's products are bitwise scipy's CSR products with its
    dense W and W^T.  The fused oracle operators, gathered from its values,
    apply exactly (W + W^T)/2 and [[0, W], [W^T, 0]]: read column by column,
    with transposed entries off the pattern (the pattern is not symmetric)
    read as the appended zero."""
    structure = Sparse(_random_pattern(d, n_pairs, seed=d))
    if d > 1:
        assert any((j, i) not in structure.pattern for i, j in structure.pattern if i != j)
    rng = np.random.default_rng(d + 1)
    w = project_subspace(structure, rng.standard_normal((d, d)))
    model = _stored(structure, w)
    assert np.array_equal(model.dense(), w)
    for _ in range(3):
        v = rng.standard_normal(d)
        assert model.matvec(v).tobytes() == (sp.csr_array(model.dense()) @ v).tobytes()
        assert model.rmatvec(v).tobytes() == (sp.csr_array(model.dense().T) @ v).tobytes()
    apply_sym, apply_aug = model.oracle_operators()
    assert np.array_equal(np.column_stack([apply_sym(e) for e in np.eye(d)]), 0.5 * (w + w.T))
    zero = np.zeros((d, d))
    assert np.array_equal(np.column_stack([apply_aug(e) for e in np.eye(2 * d)]),
                          np.block([[zero, w], [w.T, zero]]))
    index = oracle_index(structure.pattern, d)
    assert all(a.dtype == np.int32 for a in index)
    for indptr, indices in ((index[3], index[2]), (index[6], index[5])):
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
    """JSymmetric(7, 13) has m != n, so a slip at the block boundary shows.
    Each model holds a base and an appended pair, mirrored for JSymmetric."""
    rng = np.random.default_rng(d)
    w = project_subspace(structure, rng.standard_normal((d, d)))
    model = _stored(structure, w)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    if isinstance(structure, JSymmetric):
        j = np.concatenate([np.ones(structure.m), -np.ones(structure.n)])
        model.append([(x, y), (j * y, j * x)])
    else:  # Sparse gathers x y^T on its pattern
        model.append([(x, y)])
    w = model.dense()
    apply_sym, apply_aug = model.oracle_operators()
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
    draws = np.random.default_rng(15)
    cases = set()
    for seed in range(30):
        w = project_subspace(structure, draws.standard_normal((d, d)))
        gamma_true = max(np.max(np.abs(np.linalg.eigvalsh(0.5 * (w + w.T)))),
                         np.linalg.svd(w, compute_uv=False)[0] / 3.0)
        w *= draws.uniform(0.5, 2.0) / gamma_true
        got = _sep(w, delta, q, structure, np.random.default_rng(seed))
        want = _sep(w, delta, q, General(), np.random.default_rng(seed))
        assert got.case is want.case
        assert got.gamma == pytest.approx(want.gamma, rel=1e-12)
        if want.case is SepCase.CASE_II:
            assert np.allclose(project_subspace(structure, dense_s(got)),
                               project_subspace(structure, dense_s(want)), rtol=0, atol=1e-12)
        cases.add(got.case)
    assert cases == {SepCase.CASE_I, SepCase.CASE_II}


# ---------------------------------------------------------------------------
# exact Case I certificate from the Frobenius norm

CERT_D = 10
CERT_STRUCTURES = [General(), Symmetric(), JSymmetric(4, 6),
                   Sparse(_random_pattern(CERT_D, 20, seed=21))]
CERT_IDS = ["general", "symmetric", "jsymmetric", "sparse"]


def _lanczos_oracle(w, delta, q, structure, rng):
    """sep_feasible without the certificate: the direct Lanczos calls, and
    the matvecs they spent."""
    d = w.shape[0]
    if isinstance(structure, Symmetric):
        r = ext_evec(lambda v: w @ v, d, delta, q, rng, symmetric=True)
        return r, r.matvecs
    apply_sym, apply_aug = _stored(structure, w).oracle_operators()
    r1 = ext_evec(apply_sym, d, delta, q / 2, rng)
    r2 = max_svec(apply_aug, d, delta, q / 2, rng)
    chosen = r1 if r1.gamma >= r2.gamma else r2
    return chosen, r1.matvecs + r2.matvecs


def _with_frobenius_norm(structure, fro, seed):
    w = project_subspace(structure, np.random.default_rng(seed).standard_normal((CERT_D, CERT_D)))
    return w * (fro / np.linalg.norm(w))


@pytest.mark.parametrize("structure", CERT_STRUCTURES, ids=CERT_IDS)
@pytest.mark.parametrize("fro", [0.0, 0.9, 1.2, 2.0, 2.99, 3.5, 5.0])
def test_frobenius_certificate_skips_lanczos_and_keeps_the_rng_stream(structure, fro):
    """||W||_F <= 1 skips both oracles and <= 3 skips max_svec; a skipped call
    counts no matvecs but draws its start vector, so the generator ends where
    the direct calls leave it, and a Case II result is bitwise theirs.  The
    result carries the matvecs of the oracles that ran, summed."""
    delta, q = 0.25, 0.05
    for seed in range(4):
        w = _with_frobenius_norm(structure, fro, seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sep(w, delta, q, structure, rng)
        want, want_matvecs = _lanczos_oracle(w, delta, q, structure, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert got.case is want.case
        if want.case is SepCase.CASE_II:
            assert got.gamma == want.gamma and np.array_equal(dense_s(got), dense_s(want))
        if fro <= 1:
            assert got.gamma == np.linalg.norm(w) and got.matvecs == 0
        elif isinstance(structure, Symmetric) or fro > 3:
            assert got.gamma == want.gamma and got.matvecs == want_matvecs
        else:  # only ext_evec runs
            apply_sym = _stored(structure, w).oracle_operators()[0]
            ext_only = ext_evec(apply_sym, CERT_D, delta, q / 2, np.random.default_rng(seed))
            assert got.matvecs == ext_only.matvecs < want_matvecs


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from(range(4)),
       st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_frobenius_certificate_agrees_with_lanczos(seed, which, fro):
    """Wherever the certificate answers an oracle, the oracle itself, run
    directly on the same W, returns Case I too."""
    structure = CERT_STRUCTURES[which]
    w = _with_frobenius_norm(structure, fro, seed)
    apply_sym, apply_aug = _stored(structure, w).oracle_operators()
    rng = np.random.default_rng(seed)
    if np.linalg.norm(w) <= 1:
        assert ext_evec(apply_sym, CERT_D, 0.25, 0.05, rng).case is SepCase.CASE_I
    if not isinstance(structure, Symmetric) and np.linalg.norm(w) <= 3:
        assert max_svec(apply_aug, CERT_D, 0.25, 0.05, rng).case is SepCase.CASE_I
