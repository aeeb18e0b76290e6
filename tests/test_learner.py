"""Online learner: loss/gradient identities, the update rule, and feasibility
of every played matrix."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe import (
    General,
    JSymmetric,
    Learner,
    Sparse,
    SepCase,
    Symmetric,
    observe_loss,
)
from qnpe.learner import DEFAULT_RHO, current_matrix, new_model, project_subspace
from qnpe.line_search import backtrack

from dense import dense_s, dense_w, loss_gradient, loss_value, played_matrix, stored_model


def make_learner(mu, l1, d, rng, structure=None, rho=None):
    """Option I when mu > 0, Option II when mu = 0."""
    return Learner(structure or General(), d, mu, l1, rng, rho=rho)


def observe(learner, s, u):
    """observe_loss with B s from the played matrix's own products."""
    w_apply, _, c1, c0 = current_matrix(learner)
    return observe_loss(learner, s, u, c1 * w_apply(s) + c0 * s)


def random_obs(rng, d):
    """(s, u)."""
    return rng.standard_normal(d), rng.standard_normal(d)


def random_pattern(rng, d, size):
    pairs = set()
    while len(pairs) < size:
        i, j = (int(x) for x in rng.integers(d, size=2))
        if i != j:
            pairs.add((i, j))
    return frozenset(pairs)


def off_subspace(structure, w):
    """max |P(W) - W|: how far W is from the structural subspace."""
    return float(np.max(np.abs(project_subspace(structure, w) - w)))


def assert_bitwise(got, expected):
    assert np.array_equal(got, expected)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# loss and gradient


def test_loss_zero_iff_interpolated():
    rng = np.random.default_rng(0)
    b = rng.standard_normal((5, 5))
    s = rng.standard_normal(5)
    assert loss_value(b, s, b @ s) == 0.0
    assert np.max(np.abs(loss_gradient(b, s, b @ s))) == 0.0


def test_loss_hand_computed():
    b = np.zeros((2, 2))
    s = u = np.array([1.0, 1.0])
    assert loss_value(b, s, u) == 1.0  # ||u||^2 / ||s||^2 = 2/2
    assert np.array_equal(loss_gradient(b, s, u), -np.ones((2, 2)))


def reference_step(learner, s, u):
    """W - rho (P(grad) / L1 + coeff P(S)), clipped to the ball, from the dense
    projected gradient and the Frobenius inner product with it."""
    w = dense_w(learner)
    b = played_matrix(learner)
    g = project_subspace(learner.structure, loss_gradient(b, s, u)) / learner.l1
    sep = learner.last_sep
    if learner.t >= 1 and sep.case is SepCase.CASE_II:
        coeff = max(0.0, -float(np.tensordot(g, w, axes=2)) / sep.gamma)
        g = g + coeff * project_subspace(learner.structure, dense_s(sep))
    w = w - learner.rho * g
    return w * min(1.0, math.sqrt(learner.dim) / np.linalg.norm(w))


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse",
                                       "general_fold", "symmetric_fold", "jsymmetric_fold"])
def test_learner_step_is_the_projected_gradient_step_and_keeps_w_structured(structure):
    """The _fold cases start at W_0 = 0 (no base) with d = 40, so that the
    factors pass d/2 and fold into a base within the 30 rounds.  Each round's
    loss is the dense loss of the played B."""
    rng = np.random.default_rng(13)
    fold = structure.endswith("_fold")
    d, mu, l1 = 40 if fold else 200, 0.2, 1.5
    structure, rho = {  # the Sparse step moves only the pattern: a larger rho
        "general": (General(), 0.5),
        "symmetric": (Symmetric(), 0.5),
        "jsymmetric": (JSymmetric(7 * d // 20, 13 * d // 20), 0.5),
        "sparse": (Sparse(random_pattern(rng, d, 1000)), 2.0),
    }[structure.removesuffix("_fold")]
    learner = make_learner(mu=mu, l1=l1, d=d, rng=rng, structure=structure, rho=rho)
    w0 = project_subspace(structure, rng.standard_normal((d, d)))
    w0 = None if fold else np.ascontiguousarray(0.5 * w0 / np.linalg.norm(w0, 2))
    learner.model = stored_model(structure, d, w0)
    # outside the set: Case II rounds, some of them clipped to the ball
    target = 6.0 * l1 * rng.standard_normal((d, d)) / math.sqrt(d)
    case_ii = folds = 0
    for _ in range(30):
        s = rng.standard_normal(d)
        u = target @ s
        want = reference_step(learner, s, u)
        want_loss = loss_value(played_matrix(learner), s, u)
        case_ii += learner.t >= 1 and learner.last_sep.case is SepCase.CASE_II
        rank = getattr(learner.model, "r", 0)
        loss = observe(learner, s, u)
        assert abs(loss - want_loss) <= 1e-12 * want_loss
        folds += getattr(learner.model, "r", 0) < rank
        assert np.linalg.norm(dense_w(learner) - want) <= 1e-14 * np.linalg.norm(want)
        # the stored W, not its projection: a step off the subspace would show here
        assert off_subspace(structure, learner.model.dense()) <= 1e-12
    assert case_ii > 0
    if fold:
        assert folds > 0 and learner.model.base.flags.c_contiguous
    assert_bitwise(dense_w(learner), project_subspace(structure, dense_w(learner)))


def test_subspace_check_catches_an_unmirrored_pair():
    """The check above reads the stored W: one factor pair without its mirror,
    W[0, 1] += 1e-6, leaves the symmetric subspace by far more than rounding."""
    rng = np.random.default_rng(13)
    d, mu, l1 = 20, 0.2, 1.0
    learner = make_learner(mu=mu, l1=l1, d=d, rng=rng, structure=Symmetric(), rho=0.5)
    for _ in range(3):
        s = rng.standard_normal(d)
        observe(learner, s, 3.0 * rng.standard_normal(d))
    assert off_subspace(Symmetric(), learner.model.dense()) <= 1e-12
    e = np.eye(d)
    learner.model.append([(1e-6 * e[0], e[1])])
    assert off_subspace(Symmetric(), learner.model.dense()) > 1e-10


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse"])
def test_a_huge_step_lands_on_the_ball(structure):
    """With rho = 1e300 the squares of the step overflow: W is scaled before
    it is squared, so the clip puts it on the ball instead of zeroing it."""
    rng = np.random.default_rng(15)
    d, mu, l1 = 12, 0.2, 1.5
    structure = {
        "general": General(),
        "symmetric": Symmetric(),
        "jsymmetric": JSymmetric(5, 7),
        "sparse": Sparse(random_pattern(rng, d, 30)),
    }[structure]
    learner = make_learner(mu=mu, l1=l1, d=d, rng=rng, structure=structure, rho=1e300)
    s = rng.standard_normal(d)
    with np.errstate(over="ignore"):
        observe(learner, s, 3.0 * l1 * rng.standard_normal(d))
    w = dense_w(learner)
    assert np.any(w != 0)
    radius = math.sqrt(d)
    assert abs(np.linalg.norm(w) - radius) <= 1e-12 * radius


def played_rounds(name, rng, rounds=12):
    """The learner on d = 20 before each of `rounds` rounds
    of observations of a random structured target: Option II (mu = 0), so
    scale = (1 + delta) gamma != 1, and a large rho, so Case II rounds occur."""
    d, l1 = 20, 1.5
    structure = {
        "general": General(),
        "symmetric": Symmetric(),
        "jsymmetric": JSymmetric(7, 13),
        "sparse": Sparse(random_pattern(rng, d, 60)),
    }[name]
    learner = make_learner(mu=0.0, l1=l1, d=d, rng=rng, structure=structure, rho=5.0)
    target = project_subspace(structure, 3.0 * l1 * rng.standard_normal((d, d)))
    for t in range(rounds):
        if t:
            s = rng.standard_normal(d)
            observe(learner, s, target @ s)
        yield learner


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse"])
def test_current_matrix_applies_the_played_matrix(structure):
    """current_matrix's W products and coefficients give c1 W v + c0 v = B v
    and c1 W^T v + c0 v = B^T v for the played B, W^T's function being None
    (W's) for Symmetric."""
    rng = np.random.default_rng(14)
    scales = []
    for learner in played_rounds(structure, rng):
        scales.append(learner.scale)
        b = played_matrix(learner)
        w_apply, w_apply_t, c1, c0 = current_matrix(learner)
        assert (w_apply_t is None) == isinstance(learner.structure, Symmetric)
        w_apply_t = w_apply_t or w_apply
        for _ in range(3):
            v = rng.standard_normal(learner.dim)
            b_v, bt_v = c1 * w_apply(v) + c0 * v, c1 * w_apply_t(v) + c0 * v
            assert np.linalg.norm(b_v - b @ v) <= 1e-13 * np.linalg.norm(b @ v)
            assert np.linalg.norm(bt_v - b.T @ v) <= 1e-13 * np.linalg.norm(b.T @ v)
            if isinstance(learner.structure, Sparse):  # round 0: explicit zeros on the whole pattern
                w = learner.model.dense()
                assert_bitwise(learner.model.matvec(v), sp.csr_array(w) @ v)
                assert_bitwise(learner.model.rmatvec(v), sp.csr_array(w.T) @ v)
    assert scales[0] == 1.0 and max(scales) > 1.0


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse"])
def test_line_search_b_s_is_the_played_matrix_times_s(structure):
    """backtrack folds B = c1 W + c0 I into its solves' shift and scale: the
    B s it returns for the accepted and the last rejected step is the played
    B times that step, also when scale != 1 and after Case II rounds."""
    rng = np.random.default_rng(18)
    target = 6.0 * rng.standard_normal((20, 20))  # far from B: the line search backtracks
    scales, checked = [], 0
    for learner in played_rounds(structure, rng):
        scales.append(learner.scale)
        b = played_matrix(learner)
        z = rng.standard_normal(learner.dim)
        out = backtrack(z, target @ z, *current_matrix(learner), 8.0, lambda x: target @ x,
                        alpha1=0.25, alpha2=0.25, beta=0.5, mu=0.0, max_backtracks=60)
        steps = [(out.z_hat - z, out.b_s)]
        if out.observed is not None:
            steps.append((out.observed[0], out.observed[2]))
        for s, b_s in steps:
            fresh = b @ s
            assert np.linalg.norm(b_s - fresh) <= 1e-12 * np.linalg.norm(fresh)
            checked += 1
    assert checked > 12 and max(scales) > 1.0


def test_a_sparse_learner_forms_no_dense_matrix():
    """One d x d array is 72 MB at d = 3000.  The Sparse learner's start and
    20 rounds, most of them Case II (so Lanczos runs and the separator is
    gathered on the pattern), stay below a quarter of that."""
    d, mu, l1 = 3000, 0.2, 1.5
    rng = np.random.default_rng(16)
    pattern = frozenset(zip(rng.integers(0, d, 4 * d).tolist(), rng.integers(0, d, 4 * d).tolist()))
    observations = [(25.0 * l1 * rng.standard_normal(d), rng.standard_normal(d))
                    for _ in range(20)]
    case_ii = 0
    tracemalloc.start()
    try:
        learner = make_learner(mu=mu, l1=l1, d=d, rng=rng, structure=Sparse(pattern), rho=5.0)
        for u, s in observations:
            observe(learner, s, u)
            case_ii += learner.last_sep.case is SepCase.CASE_II
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case_ii > 10
    assert peak < d * d * 8 / 4


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = 4
        b = rng.standard_normal((d, d))
        s, u = random_obs(rng, d)
        g = loss_gradient(b, s, u)
        h = 1e-6
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = h
                fd = (loss_value(b + e, s, u) - loss_value(b - e, s, u)) / (2 * h)
                assert abs(fd - g[i, j]) <= 1e-5 * max(1.0, abs(g[i, j]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_loss_gradient_norm_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    b = rng.standard_normal((d, d))
    s, u = random_obs(rng, d)
    assert np.linalg.norm(loss_gradient(b, s, u)) <= 2.0 * math.sqrt(loss_value(b, s, u)) + 1e-10


def test_observation_rejects_zero_direction():
    """observe_loss refuses s = 0 (or NaN) before it steps: t and W stay put."""
    learner = make_learner(mu=0.2, l1=1.0, d=3, rng=np.random.default_rng(0))
    for s in (np.zeros(3), np.full(3, np.nan)):
        with pytest.raises(ValueError, match="nonzero"):
            observe_loss(learner, s, np.ones(3), np.zeros(3))
    assert learner.t == 0 and learner.last_sep is None
    assert np.max(np.abs(dense_w(learner))) == 0.0


# ---------------------------------------------------------------------------
# schedules and parameters


def test_failure_schedule_values():
    q = make_learner(mu=0.2, l1=1.0, d=4, rng=np.random.default_rng(0)).q
    assert abs(q(1) - 0.1 / (2.5 * 2 * math.log(2) ** 2)) <= 1e-15
    assert abs(q(5) - 0.1 / (2.5 * 6 * math.log(6) ** 2)) <= 1e-15
    # summable: total failure probability stays below p
    assert sum(q(t) for t in range(1, 200000)) < 0.1


def test_default_params():
    rng = np.random.default_rng(0)
    p1 = make_learner(mu=0.2, l1=1.0, d=16, rng=rng)  # Option I
    assert p1.rho == DEFAULT_RHO[True] == 1.0 / 121.0
    assert p1.delta(3) == 0.1  # mu / (2 L1), constant
    p2 = make_learner(mu=0.0, l1=1.0, d=9, rng=rng)  # Option II
    assert p2.rho == DEFAULT_RHO[False] == 1.0 / 81.0
    assert abs(p2.delta(1) - 0.5 / 2**0.25) <= 1e-15


# ---------------------------------------------------------------------------
# state evolution


def test_init_at_center_gives_zero_auxiliary():
    learner = make_learner(mu=0.5, l1=2.0, d=6, rng=np.random.default_rng(2))
    assert np.max(np.abs(dense_w(learner))) == 0.0
    assert learner.t == 0
    assert_bitwise(played_matrix(learner), 2.5 * np.eye(6))


def test_fold_stores_w_in_c_order():
    # the J-symmetric projection of a large matrix comes back in Fortran order;
    # the folded base, which every product reads, and the dense view are C-ordered
    rng = np.random.default_rng(12)
    structure = JSymmetric(300, 300)
    model = new_model(structure, 600)
    model.append([(rng.standard_normal(600), rng.standard_normal(600)) for _ in range(3)])
    model.fold()
    learner = make_learner(mu=0.0, l1=1.0, d=600, rng=rng, structure=structure)
    learner.model = model
    assert learner.model.base.flags.c_contiguous and dense_w(learner).flags.c_contiguous


def test_zero_loss_observation_leaves_w_unchanged():
    learner = make_learner(mu=0.4, l1=1.0, d=5, rng=np.random.default_rng(4))
    b = played_matrix(learner)
    s = np.array([1.0, 0, 0, 0, 0])
    assert observe(learner, s, b @ s) == 0.0
    assert np.max(np.abs(dense_w(learner))) == 0.0


def test_gradient_step_moves_w_as_expected():
    # first round: no separator correction, W+ = -rho * grad / L1 from W0 = 0
    l1 = 1.0
    learner = make_learner(mu=0.4, l1=l1, d=2, rng=np.random.default_rng(5), rho=0.01)
    b0 = played_matrix(learner)
    s, u = np.array([1.0, 0.0]), np.array([2.0, 0.0])
    expected = -learner.rho * loss_gradient(b0, s, u) / l1
    observe(learner, s, u)
    assert np.allclose(dense_w(learner), expected, atol=1e-14)
    assert learner.t == 1


def test_loss_decreases_after_observation_general_structure():
    rng = np.random.default_rng(6)
    learner = make_learner(mu=0.2, l1=1.0, d=8, rng=rng, rho=0.5)
    a = played_matrix(learner) + 0.3 * rng.standard_normal((8, 8))
    s = rng.standard_normal(8)
    before = loss_value(played_matrix(learner), s, a @ s)
    observe(learner, s, a @ s)
    after = loss_value(played_matrix(learner), s, a @ s)
    assert after <= before


def test_played_matrices_stay_feasible_option_one():
    rng = np.random.default_rng(7)
    d, mu, l1 = 12, 0.3, 1.5
    learner = make_learner(mu=mu, l1=l1, d=d, rng=rng, structure=Symmetric())
    target = np.diag(rng.uniform(mu, l1, size=d))
    for _ in range(40):
        s = rng.standard_normal(d)
        observe(learner, s, target @ s)
        b = played_matrix(learner)
        w_apply, _, c1, c0 = current_matrix(learner)
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= mu / 2 - 1e-9
        assert np.linalg.norm(b, 2) <= 6.5 * l1 + 1e-9
        assert np.array_equal(b, b.T)
        v = rng.standard_normal(d)
        assert np.allclose(c1 * w_apply(v) + c0 * v, b @ v)


def test_played_matrices_stay_feasible_option_two():
    rng = np.random.default_rng(8)
    m = n = 5
    d, l1 = m + n, 1.0
    learner = make_learner(mu=0.0, l1=l1, d=d, rng=rng, structure=JSymmetric(m, n))
    c = rng.standard_normal((m, n))
    c *= 0.8 * l1 / np.linalg.svd(c, compute_uv=False)[0]
    target = np.block([[np.zeros((m, m)), c], [-c.T, np.zeros((n, n))]])
    sgn = np.concatenate([np.ones(m), -np.ones(n)])
    for _ in range(40):
        s = rng.standard_normal(d)
        observe(learner, s, target @ s)
        b = played_matrix(learner)
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= -1e-8 * l1
        assert np.linalg.norm(b, 2) <= 4.0 * l1 + 1e-9
        assert np.array_equal(b, sgn[:, None] * b.T * sgn[None, :])
