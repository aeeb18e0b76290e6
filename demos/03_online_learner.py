"""Drive the online learner directly: feed it secant-style observations from a
fixed symmetric Jacobian and watch the model-mismatch loss fall while every
played matrix stays inside the feasible set (checked densely).

Run:  python3 demos/03_online_learner.py
"""

import numpy as np

from qnpe import Learner, Symmetric, observe_loss
from qnpe.learner import current_matrix

d, mu, l1 = 20, 0.3, 1.0
rng = np.random.default_rng(2)

# mu > 0: Option I.  The default step size is very conservative (it backs the
# worst-case regret bound); a larger one shows the tracking behaviour within a
# short demo
learner = Learner(Symmetric(), d, mu, l1, rng, rho=0.3)  # W_0 = 0: the center (L1 + mu) I

# the hidden Jacobian the learner is trying to match
q = np.linalg.qr(rng.standard_normal((d, d)))[0]
target = (q * rng.uniform(mu, l1, size=d)) @ q.T

oracle_matvecs = 0
print(" t    loss        ||B - A||_F   lam_min(sym B)   ||B||_op")
for t in range(1, 51):
    s = rng.standard_normal(d)
    w_apply, _, c1, c0 = current_matrix(learner)  # the played B = c1 W + c0 I
    # the round: the loss ||u - B s||^2 / ||s||^2 of the played B at u = A s, then the step
    loss = observe_loss(learner, s, target @ s, c1 * w_apply(s) + c0 * s)
    oracle_matvecs += learner.last_sep.matvecs  # the W-products of this round's oracle
    if t % 5 == 0 or t == 1:
        _, _, c1, c0 = current_matrix(learner)
        b = c1 * learner.model.dense() + c0 * np.eye(d)  # the new B, formed for the checks
        lam = np.linalg.eigvalsh(0.5 * (b + b.T))[0]
        print(f"{t:3d}  {loss:10.4e}  {np.linalg.norm(b - target):11.4e}  "
              f"{lam:13.4f}  {np.linalg.norm(b, 2):9.4f}")

print(f"\nfeasibility floor lam >= mu/2 = {mu / 2}, ceiling ||B|| <= 6.5 L1 = {6.5 * l1}")
print(f"separation oracle calls made: {learner.t}, "
      f"oracle matvecs spent: {oracle_matvecs}")
