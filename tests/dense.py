"""Dense forms of the learner's W and played B, the surrogate loss and its
gradient, and the oracle's separator S, for checks only; and the learner's
model of a given dense W.

The solver never forms any of these: it reads W through its model's products
and S through its rank-one factors.  Each formula here is the one the checks
were written against, so the bitwise assertions that use them hold as they are.
"""

import numpy as np

from qnpe.learner import PatternValues, new_model, project_subspace


def stored_model(structure, d, w):
    """The dense W = w (None for 0) as the learner stores it for the
    structure: w as LowRank's base, or its entries on the pattern as the
    values of PatternValues."""
    model = new_model(structure, d)
    if w is not None:
        if isinstance(model, PatternValues):
            model.values[:] = w.take(model.flat)
        else:
            model.base, model.base_sq = w, float(np.vdot(w, w))
    return model


def dense_w(state):
    """W as a dense C-ordered array, exactly in its subspace: P(model.dense())."""
    return np.ascontiguousarray(project_subspace(state.model.structure, state.model.dense()))


def from_hat(b_hat, params):
    """B = L1 B_hat + (L1 + mu) I."""
    b = np.multiply(params.l1, b_hat)
    b.flat[:: b.shape[0] + 1] += params.l1 + params.mu
    return b


def played_matrix(state, params):
    """The played B = L1 W / scale + (L1 + mu) I."""
    return from_hat(dense_w(state) / state.scale, params)


def loss_value(b, obs):
    """||u - B s||^2 / ||s||^2."""
    s2 = float(obs.s @ obs.s)
    resid = obs.u - b @ obs.s
    return float(resid @ resid) / s2


def loss_gradient(b, obs):
    """grad of ||u - B s||^2 / ||s||^2 in B: the rank-one -2 (u - B s) s^T / ||s||^2."""
    s2 = float(obs.s @ obs.s)
    return -2.0 * np.outer(obs.u - b @ obs.s, obs.s) / s2


def dense_s(res):
    """The separator S = c a b^T of a Case II oracle result; None in Case I."""
    if res.factors is None:
        return None
    c, a, b = res.factors
    return c * np.outer(a, b)
