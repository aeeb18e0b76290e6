"""The composed approximate separation oracle on the learner's W."""

from __future__ import annotations

import numpy as np

from .problems import Symmetric
from .spectral import SepCase, SepResult, ext_evec, max_svec


def sep_feasible(w, fro: float, delta: float, q: float, rng: np.random.Generator) -> SepResult:
    """Composed separation oracle for the transformed feasible set, at the
    learner's model w of W (a LowRank or PatternValues), read only through
    its products: w.matvec, or the two operators w.oracle_operators() builds
    for its structure w.structure.  fro = ||W||_F, which the caller already
    holds from the clip.

    For Symmetric structure the eigenvalue constraint already implies the
    operator-norm constraint, so the extreme-eigenvalue oracle alone suffices.
    Otherwise both sub-oracles are queried with failure budget q/2 each and
    the larger gamma wins (ties go to the eigenvalue oracle).  A Case II
    result carries the oracle's rank-one S; the learner steps along its
    projection P(S), which has the same inner product with any W in the
    subspace.  The result carries the matvecs of every oracle that ran.

    Case I is certified exactly, with no Lanczos, from the Frobenius norm:
    ||sym(W)||_op <= ||W||_op <= ||W||_F, so ||W||_F <= 1 answers ext_evec
    and ||W||_F <= 3 answers max_svec, each with gamma the bound itself and
    no matvecs.  The operators are built only once that certificate fails.

    Preconditions, not checked here: delta > 0, q in (0, 1) and w in the
    structural subspace; the learner gives all three by construction.
    """
    d = w.shape[0]
    # fro is NaN for a non-finite W: no certificate, and Lanczos raises.  Each certified
    # call draws the start vector its Lanczos run would have drawn, so the rng stream,
    # and every later Ritz vector and separator, stay unchanged.
    symmetric = isinstance(w.structure, Symmetric)
    if fro <= 1.0:  # answers both oracles
        rng.standard_normal(d)
        if not symmetric:
            rng.standard_normal(2 * d)
        return SepResult(gamma=fro, case=SepCase.CASE_I)
    if symmetric:
        return ext_evec(w.matvec, d, delta, q, rng, symmetric=True)

    apply_sym, apply_aug = w.oracle_operators()
    r1 = ext_evec(apply_sym, d, delta, q / 2, rng, symmetric=False)
    if fro <= 3.0:
        rng.standard_normal(2 * d)
        r2 = SepResult(gamma=fro / 3.0, case=SepCase.CASE_I)
    else:
        r2 = max_svec(apply_aug, d, delta, q / 2, rng)
    chosen = r1 if r1.gamma >= r2.gamma else r2
    chosen.matvecs = r1.matvecs + r2.matvecs
    return chosen
