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
    LearnerParams,
    LossObservation,
    Sparse,
    SepCase,
    Symmetric,
    learner_init,
    observe_loss,
)
from qnpe.learner import DEFAULT_RHO, LearnerState, current_matrix, new_model, project_subspace
from qnpe.line_search import backtrack

from dense import dense_s, dense_w, loss_gradient, loss_value, played_matrix, stored_model


def make_params(mu, l1, d, structure=None, rho=None):
    """Option I when mu > 0, Option II when mu = 0."""
    return LearnerParams(structure or General(), d, mu, l1, rho=rho)


def observe(state, obs, params):
    """observe_loss with resid = u - B s from the played matrix's own products."""
    w_apply, _, c1, c0 = current_matrix(state, params)
    return observe_loss(state, obs, params, obs.u - (c1 * w_apply(obs.s) + c0 * obs.s))


def random_obs(rng, d):
    s = rng.standard_normal(d)
    u = rng.standard_normal(d)
    return LossObservation(u=u, s=s)


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
    obs = LossObservation(u=b @ s, s=s)
    assert loss_value(b, obs) == 0.0
    assert np.max(np.abs(loss_gradient(b, obs))) == 0.0


def test_loss_hand_computed():
    b = np.zeros((2, 2))
    obs = LossObservation(u=np.array([1.0, 1.0]), s=np.array([1.0, 1.0]))
    assert loss_value(b, obs) == 1.0  # ||u||^2 / ||s||^2 = 2/2
    assert np.array_equal(loss_gradient(b, obs), -np.ones((2, 2)))


def reference_step(state, obs, params):
    """W - rho (P(grad) / L1 + coeff P(S)), clipped to the ball, from the dense
    projected gradient and the Frobenius inner product with it."""
    w = dense_w(state)
    b = played_matrix(state, params)
    g = project_subspace(params.structure, loss_gradient(b, obs)) / params.l1
    sep = state.last_sep
    if state.t >= 1 and sep.case is SepCase.CASE_II:
        coeff = max(0.0, -float(np.tensordot(g, w, axes=2)) / sep.gamma)
        g = g + coeff * project_subspace(params.structure, dense_s(sep))
    w = w - params.rho * g
    return w * min(1.0, math.sqrt(params.dim) / np.linalg.norm(w))


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse",
                                       "general_fold", "symmetric_fold", "jsymmetric_fold"])
def test_learner_step_is_the_projected_gradient_step_and_keeps_w_structured(structure):
    """The _fold cases start at W_0 = 0 (no base) with d = 40, so that the
    factors pass d/2 and fold into a base within the 30 rounds."""
    rng = np.random.default_rng(13)
    fold = structure.endswith("_fold")
    d, mu, l1 = 40 if fold else 200, 0.2, 1.5
    structure, rho = {  # the Sparse step moves only the pattern: a larger rho
        "general": (General(), 0.5),
        "symmetric": (Symmetric(), 0.5),
        "jsymmetric": (JSymmetric(7 * d // 20, 13 * d // 20), 0.5),
        "sparse": (Sparse(random_pattern(rng, d, 1000)), 2.0),
    }[structure.removesuffix("_fold")]
    params = make_params(mu=mu, l1=l1, d=d, structure=structure,
                         rho=rho)
    w0 = project_subspace(structure, rng.standard_normal((d, d)))
    w0 = None if fold else np.ascontiguousarray(0.5 * w0 / np.linalg.norm(w0, 2))
    state = LearnerState(0, stored_model(structure, d, w0), 1.0, None, rng)
    # outside the set: Case II rounds, some of them clipped to the ball
    target = 6.0 * l1 * rng.standard_normal((d, d)) / math.sqrt(d)
    case_ii = folds = 0
    for _ in range(30):
        s = rng.standard_normal(d)
        obs = LossObservation(u=target @ s, s=s)
        want = reference_step(state, obs, params)
        case_ii += state.t >= 1 and state.last_sep.case is SepCase.CASE_II
        rank = getattr(state.model, "r", 0)
        observe(state, obs, params)
        folds += getattr(state.model, "r", 0) < rank
        assert np.linalg.norm(dense_w(state) - want) <= 1e-14 * np.linalg.norm(want)
        # the stored W, not its projection: a step off the subspace would show here
        assert off_subspace(structure, state.model.dense()) <= 1e-12
    assert case_ii > 0
    if fold:
        assert folds > 0 and state.model.base.flags.c_contiguous
    assert_bitwise(dense_w(state), project_subspace(structure, dense_w(state)))


def test_subspace_check_catches_an_unmirrored_pair():
    """The check above reads the stored W: one factor pair without its mirror,
    W[0, 1] += 1e-6, leaves the symmetric subspace by far more than rounding."""
    rng = np.random.default_rng(13)
    d, mu, l1 = 20, 0.2, 1.0
    params = make_params(mu=mu, l1=l1, d=d, structure=Symmetric(), rho=0.5)
    state = learner_init(params, rng)
    for _ in range(3):
        s = rng.standard_normal(d)
        observe(state, LossObservation(u=3.0 * rng.standard_normal(d), s=s), params)
    assert off_subspace(Symmetric(), state.model.dense()) <= 1e-12
    e = np.eye(d)
    state.model.append([(1e-6 * e[0], e[1])])
    assert off_subspace(Symmetric(), state.model.dense()) > 1e-10


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
    params = make_params(mu=mu, l1=l1, d=d, structure=structure,
                         rho=1e300)
    state = learner_init(params, rng)
    s = rng.standard_normal(d)
    with np.errstate(over="ignore"):
        observe(state, LossObservation(u=3.0 * l1 * rng.standard_normal(d), s=s), params)
    w = dense_w(state)
    assert np.any(w != 0)
    radius = math.sqrt(d)
    assert abs(np.linalg.norm(w) - radius) <= 1e-12 * radius


def played_rounds(name, rng, rounds=12):
    """The learner's (state, params) on d = 20 before each of `rounds` rounds
    of observations of a random structured target: Option II (mu = 0), so
    scale = (1 + delta) gamma != 1, and a large rho, so Case II rounds occur."""
    d, l1 = 20, 1.5
    structure = {
        "general": General(),
        "symmetric": Symmetric(),
        "jsymmetric": JSymmetric(7, 13),
        "sparse": Sparse(random_pattern(rng, d, 60)),
    }[name]
    params = make_params(mu=0.0, l1=l1, d=d, structure=structure, rho=5.0)
    state = learner_init(params, rng)
    target = project_subspace(structure, 3.0 * l1 * rng.standard_normal((d, d)))
    for t in range(rounds):
        if t:
            s = rng.standard_normal(d)
            observe(state, LossObservation(u=target @ s, s=s), params)
        yield state, params


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse"])
def test_current_matrix_applies_the_played_matrix(structure):
    """current_matrix's W products and coefficients give c1 W v + c0 v = B v
    and c1 W^T v + c0 v = B^T v for the played B, W^T's function being None
    (W's) for Symmetric."""
    rng = np.random.default_rng(14)
    scales = []
    for state, params in played_rounds(structure, rng):
        scales.append(state.scale)
        b = played_matrix(state, params)
        w_apply, w_apply_t, c1, c0 = current_matrix(state, params)
        assert (w_apply_t is None) == isinstance(params.structure, Symmetric)
        w_apply_t = w_apply_t or w_apply
        for _ in range(3):
            v = rng.standard_normal(params.dim)
            b_v, bt_v = c1 * w_apply(v) + c0 * v, c1 * w_apply_t(v) + c0 * v
            assert np.linalg.norm(b_v - b @ v) <= 1e-13 * np.linalg.norm(b @ v)
            assert np.linalg.norm(bt_v - b.T @ v) <= 1e-13 * np.linalg.norm(b.T @ v)
            if isinstance(params.structure, Sparse):  # round 0: explicit zeros on the whole pattern
                w = state.model.dense()
                assert_bitwise(state.model.matvec(v), sp.csr_array(w) @ v)
                assert_bitwise(state.model.rmatvec(v), sp.csr_array(w.T) @ v)
    assert scales[0] == 1.0 and max(scales) > 1.0


@pytest.mark.parametrize("structure", ["general", "symmetric", "jsymmetric", "sparse"])
def test_line_search_b_s_is_the_played_matrix_times_s(structure):
    """backtrack folds B = c1 W + c0 I into its solves' shift and scale: the
    B s it returns for the accepted and the last rejected step is the played
    B times that step, also when scale != 1 and after Case II rounds."""
    rng = np.random.default_rng(18)
    target = 6.0 * rng.standard_normal((20, 20))  # far from B: the line search backtracks
    scales, checked = [], 0
    for state, params in played_rounds(structure, rng):
        scales.append(state.scale)
        b = played_matrix(state, params)
        z = rng.standard_normal(params.dim)
        out = backtrack(z, target @ z, *current_matrix(state, params), 8.0, lambda x: target @ x,
                        alpha1=0.25, alpha2=0.25, beta=0.5, mu=0.0, max_backtracks=60)
        for b_s, z_end in ((out.b_s, out.z_hat), (out.b_s_tilde, out.z_tilde)):
            if z_end is not None:
                fresh = b @ (z_end - z)
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
    params = make_params(mu=mu, l1=l1, d=d, structure=Sparse(pattern),
                         rho=5.0)
    observations = [LossObservation(u=25.0 * l1 * rng.standard_normal(d), s=rng.standard_normal(d))
                    for _ in range(20)]
    case_ii = 0
    tracemalloc.start()
    try:
        state = learner_init(params, rng)
        for obs in observations:
            observe(state, obs, params)
            case_ii += state.last_sep.case is SepCase.CASE_II
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
        obs = random_obs(rng, d)
        g = loss_gradient(b, obs)
        h = 1e-6
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d))
                e[i, j] = h
                fd = (loss_value(b + e, obs) - loss_value(b - e, obs)) / (2 * h)
                assert abs(fd - g[i, j]) <= 1e-5 * max(1.0, abs(g[i, j]))


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_loss_gradient_norm_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    b = rng.standard_normal((d, d))
    obs = random_obs(rng, d)
    assert np.linalg.norm(loss_gradient(b, obs)) <= 2.0 * math.sqrt(loss_value(b, obs)) + 1e-10


def test_observation_rejects_zero_direction():
    with pytest.raises(ValueError):
        LossObservation(u=np.ones(3), s=np.zeros(3))


# ---------------------------------------------------------------------------
# schedules and parameters


def test_failure_schedule_values():
    q = make_params(mu=0.2, l1=1.0, d=4).q
    assert abs(q(1) - 0.1 / (2.5 * 2 * math.log(2) ** 2)) <= 1e-15
    assert abs(q(5) - 0.1 / (2.5 * 6 * math.log(6) ** 2)) <= 1e-15
    # summable: total failure probability stays below p
    assert sum(q(t) for t in range(1, 200000)) < 0.1


def test_default_params():
    p1 = make_params(mu=0.2, l1=1.0, d=16)  # Option I
    assert p1.rho == DEFAULT_RHO[True] == 1.0 / 121.0
    assert p1.delta(3) == 0.1  # mu / (2 L1), constant
    p2 = make_params(mu=0.0, l1=1.0, d=9)  # Option II
    assert p2.rho == DEFAULT_RHO[False] == 1.0 / 81.0
    assert abs(p2.delta(1) - 0.5 / 2**0.25) <= 1e-15


# ---------------------------------------------------------------------------
# state evolution


def test_init_at_center_gives_zero_auxiliary():
    params = make_params(mu=0.5, l1=2.0, d=6)
    state = learner_init(params, np.random.default_rng(2))
    assert np.max(np.abs(dense_w(state))) == 0.0
    assert state.t == 0
    assert_bitwise(played_matrix(state, params), 2.5 * np.eye(6))


def test_fold_stores_w_in_c_order():
    # the J-symmetric projection of a large matrix comes back in Fortran order;
    # the folded base, which every product reads, and the dense view are C-ordered
    rng = np.random.default_rng(12)
    structure = JSymmetric(300, 300)
    model = new_model(structure, 600)
    model.append([(rng.standard_normal(600), rng.standard_normal(600)) for _ in range(3)])
    model.fold()
    state = LearnerState(0, model, 1.0, None, rng)
    assert state.model.base.flags.c_contiguous and dense_w(state).flags.c_contiguous


def test_zero_loss_observation_leaves_w_unchanged():
    params = make_params(mu=0.4, l1=1.0, d=5)
    state = learner_init(params, np.random.default_rng(4))
    b = played_matrix(state, params)
    s = np.array([1.0, 0, 0, 0, 0])
    observe(state, LossObservation(u=b @ s, s=s), params)
    assert np.max(np.abs(dense_w(state))) == 0.0


def test_gradient_step_moves_w_as_expected():
    # first round: no separator correction, W+ = -rho * grad / L1 from W0 = 0
    l1 = 1.0
    params = make_params(mu=0.4, l1=l1, d=2, rho=0.01)
    state = learner_init(params, np.random.default_rng(5))
    b0 = played_matrix(state, params)
    obs = LossObservation(u=np.array([2.0, 0.0]), s=np.array([1.0, 0.0]))
    expected = -params.rho * loss_gradient(b0, obs) / l1
    observe(state, obs, params)
    assert np.allclose(dense_w(state), expected, atol=1e-14)
    assert state.t == 1


def test_loss_decreases_after_observation_general_structure():
    rng = np.random.default_rng(6)
    params = make_params(mu=0.2, l1=1.0, d=8, rho=0.5)
    state = learner_init(params, rng)
    a = played_matrix(state, params) + 0.3 * rng.standard_normal((8, 8))
    s = rng.standard_normal(8)
    obs = LossObservation(u=a @ s, s=s)
    before = loss_value(played_matrix(state, params), obs)
    observe(state, obs, params)
    after = loss_value(played_matrix(state, params), obs)
    assert after <= before


def test_played_matrices_stay_feasible_option_one():
    rng = np.random.default_rng(7)
    d, mu, l1 = 12, 0.3, 1.5
    params = make_params(mu=mu, l1=l1, d=d, structure=Symmetric())
    state = learner_init(params, rng)
    target = np.diag(rng.uniform(mu, l1, size=d))
    for _ in range(40):
        s = rng.standard_normal(d)
        observe(state, LossObservation(u=target @ s, s=s), params)
        b = played_matrix(state, params)
        w_apply, _, c1, c0 = current_matrix(state, params)
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= mu / 2 - 1e-9
        assert np.linalg.norm(b, 2) <= 6.5 * l1 + 1e-9
        assert np.array_equal(b, b.T)
        v = rng.standard_normal(d)
        assert np.allclose(c1 * w_apply(v) + c0 * v, b @ v)


def test_played_matrices_stay_feasible_option_two():
    rng = np.random.default_rng(8)
    m = n = 5
    d, l1 = m + n, 1.0
    params = make_params(mu=0.0, l1=l1, d=d,
                         structure=JSymmetric(m, n))
    state = learner_init(params, rng)
    c = rng.standard_normal((m, n))
    c *= 0.8 * l1 / np.linalg.svd(c, compute_uv=False)[0]
    target = np.block([[np.zeros((m, m)), c], [-c.T, np.zeros((n, n))]])
    sgn = np.concatenate([np.ones(m), -np.ones(n)])
    for _ in range(40):
        s = rng.standard_normal(d)
        observe(state, LossObservation(u=target @ s, s=s), params)
        b = played_matrix(state, params)
        assert np.linalg.eigvalsh(0.5 * (b + b.T))[0] >= -1e-8 * l1
        assert np.linalg.norm(b, 2) <= 4.0 * l1 + 1e-9
        assert np.array_equal(b, sgn[:, None] * b.T * sgn[None, :])
