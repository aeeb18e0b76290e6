"""The benchmark's four workloads.

Each workload is one problem family at a fixed size, one solver preset, and
the layer it was chosen to load or to bypass (see README.md).  A seed fixes a
set of `instances` problems and their starting points z0 = z* + N(0, I); the
counts of a single instance vary by up to 20% from seed to seed, so a run
solves every instance of the set and reports means over them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import qnpe
from qnpe import Mode, PrimalDualBox, Problem, SolverConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # name of a qnpe.make_* problem generator
    params: dict  # generator keyword arguments, except the seed
    mode: Mode
    config: dict  # SolverConfig keyword arguments besides the mode
    to_target: bool  # solve to stop_tolerance; hitting the cap is a failure
    instances: int  # problem instances per seed
    tiny_params: dict  # a d <= 40 version of params for the harness self-test

    def solver_config(self) -> SolverConfig:
        return SolverConfig(mode=self.mode, **self.config)

    def build(self, seed: int, index: int) -> Problem:
        """Instance `index` of the set fixed by `seed`."""
        problem_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        return getattr(qnpe, self.generator)(**self.params, seed=problem_seed)

    def initial_point(self, problem: Problem, seed: int, index: int) -> np.ndarray:
        rng = np.random.default_rng([seed, index, 1])
        return problem.known_root + rng.standard_normal(problem.dim)

    def gap_spec(self, problem: Problem) -> PrimalDualBox | None:
        """The unit-box gap the CLI verifies monotone minimax runs with."""
        if self.mode is not Mode.MONOTONE:
            return None
        m, n = problem.structure.m, problem.structure.n
        return PrimalDualBox(x_lo=-np.ones(m), x_hi=np.ones(m), y_lo=-np.ones(n), y_hi=np.ones(n))

    def tiny(self) -> "Workload":
        return replace(self, params=self.tiny_params, instances=2)


CRITERION_09 = {"rho": 0.5, "alpha2": 0.45, "beta": 0.9}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-oracle",
            why=(
                "make_sparse_equation d=300 avg_degree=4 mu=0.1 to ||F||<=1e-8: oracle-bound, "
                "non-symmetric so ext_evec and max_svec run every learner round, plus a CSR "
                "rebuild per iteration"
            ),
            generator="make_sparse_equation",
            params={"d": 300, "avg_degree": 4, "mu": 0.1, "l1": 1.0},
            mode=Mode.STRONGLY_MONOTONE,
            config={"stop_tolerance": 1e-8, "max_iterations": 400},
            to_target=True,
            instances=6,
            tiny_params={"d": 40, "avg_degree": 3, "mu": 0.1, "l1": 1.0},
        ),
        Workload(
            name="quadratic-learner",
            why=(
                "make_quadratic_min d=800 mu=0.01, 100 iterations: dense-learner-bound, "
                "Symmetric needs only ext_evec, so d x d W/B updates, project_subspace and "
                "the subspace check dominate"
            ),
            generator="make_quadratic_min",
            params={"d": 800, "mu": 0.01, "l1": 1.0},
            mode=Mode.STRONGLY_MONOTONE,
            config={"max_iterations": 100},
            to_target=False,
            instances=4,
            tiny_params={"d": 40, "mu": 0.01, "l1": 1.0},
        ),
        Workload(
            name="logsumexp-operator",
            why=(
                "make_logsumexp_min d=200 n_terms=4000, criterion-09 preset, to ||F||<=1e-8: "
                "operator-bound, learner on a third of iterations; the bypass for learner "
                "and oracle changes"
            ),
            generator="make_logsumexp_min",
            params={"d": 200, "n_terms": 4000, "mu": 0.01, "smoothing": 0.5},
            mode=Mode.STRONGLY_MONOTONE,
            config={**CRITERION_09, "stop_tolerance": 1e-8, "max_iterations": 400},
            to_target=True,
            instances=8,
            tiny_params={"d": 20, "n_terms": 200, "mu": 0.01, "smoothing": 0.5},
        ),
        Workload(
            name="minimax-monotone",
            why=(
                "make_bilinear_minimax m=n=300 mu=0, monotone, 100 iterations: the only "
                "monotone-path workload, Option II learner, JSymmetric, CGLS, averaged "
                "iterate, unit-box gap"
            ),
            generator="make_bilinear_minimax",
            params={"m": 300, "n": 300, "mu": 0.0, "l1": 1.0},
            mode=Mode.MONOTONE,
            config={"max_iterations": 100},
            to_target=False,
            instances=3,
            tiny_params={"m": 20, "n": 20, "mu": 0.0, "l1": 1.0},
        ),
    )
}
