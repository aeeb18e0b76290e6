"""Offline re-verification of the per-iteration guarantees from recorded
traces.  Verification is separated from solving so the hot loop
stays lean: the trace records everything needed."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .driver import FLOOR_SLACK, Mode, SolverConfig
from .problems import PrimalDualBox, Problem, evaluate_gap
from .trace import RunTrace


@dataclass
class CertificateCheck:
    name: str
    passed: bool
    worst_margin: float  # >= 0 means satisfied; the most negative value seen
    detail: str = ""


@dataclass
class CertificateReport:
    checks: list[CertificateCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status} {c.name}: worst margin {c.worst_margin:.3e} {c.detail}".rstrip())
        return out


def verify_iteration_certificates(
    trace: RunTrace,
    problem: Problem,
    config: SolverConfig,
    gap_spec: PrimalDualBox | None = None,
) -> CertificateReport:
    """Re-check the guarantees from the rows (Σ η included), z0, z_bar, final_dist
    and final_norm_F.  A check of the dist or a margin column is skipped when the
    whole column is NaN (an unknown root, an EG trace); one NaN in it fails it."""
    report = CertificateReport()
    rows = trace.rows
    if not rows:
        # the solver stopped before taking a step; fine iff it started at a root
        at_root = trace.final_norm_F <= config.stop_tolerance
        report.checks.append(
            CertificateCheck(
                "converged-at-start",
                at_root,
                config.stop_tolerance - trace.final_norm_F,
                "no iterations recorded",
            )
        )
        return report

    l1 = problem.l1
    mu = problem.mu if config.mode is Mode.STRONGLY_MONOTONE else 0.0
    dists = trace.dists()

    # per-iteration contraction / nonexpansion
    if not np.all(np.isnan(dists)):
        if config.mode is Mode.STRONGLY_MONOTONE:
            worst = _worst([dists[i] ** 2 / (1.0 + 2.0 * row.eta * mu) * (1.0 + 1e-8)
                            - dists[i + 1] ** 2 for i, row in enumerate(rows)])
            report.checks.append(
                CertificateCheck("per-iteration-contraction", worst >= 0, worst)
            )
        else:
            worst = _worst(dists[:-1] + 1e-10 - dists[1:])
            report.checks.append(CertificateCheck("nonexpansion", worst >= 0, worst))

        # cumulative displacement bound
        total_sq = sum(r.step_norm**2 for r in rows)
        bound = dists[0] ** 2 / (1.0 - config.alpha1 - config.alpha2) * (1.0 + 1e-6)
        margin = bound - total_sq
        report.checks.append(CertificateCheck("cumulative-displacement", margin >= 0, margin))

    # step-size floor
    floor = config.step_size_floor(l1)
    worst = _worst([r.eta for r in rows]) - (floor - FLOOR_SLACK)
    report.checks.append(CertificateCheck("step-size-floor", worst >= 0, worst))

    # operator-evaluation budget (trace rows count one base eval + trials per iteration)
    budget = config.eval_budget(len(rows))
    margin = budget - rows[-1].cum_evals
    report.checks.append(
        CertificateCheck("operator-eval-budget", margin >= 0, margin, f"budget {budget:.1f}")
    )

    # accepted line-search condition margins, recorded at acceptance time, each
    # held to a rounding tolerance scaled by its own step
    for name, column in (("inexact-solve-condition", "cond_a_margin"),
                         ("proximal-condition", "cond_b_margin")):
        margins = [getattr(r, column) for r in rows]
        if not all(map(math.isnan, margins)):
            ok = all(m >= -1e-9 * max(1.0, r.step_norm) for m, r in zip(margins, rows))
            report.checks.append(CertificateCheck(name, ok, _worst(margins)))

    # backtracking lower bound: a step accepted after an observed rejection has
    # eta > alpha2 beta ||s~|| / ||F(z~) - F(z) - B s~|| = alpha2 beta / sqrt(loss)
    # (NaN: no observation, 0: an underflowed one; a negative loss fails)
    observed = [r for r in rows if r.loss != 0 and not math.isnan(r.loss)]
    if observed:
        scale = config.alpha2 * config.beta * (1 - 1e-10)
        worst = _worst([r.eta - scale / math.sqrt(r.loss) if r.loss > 0 else -math.inf
                        for r in observed])
        report.checks.append(CertificateCheck("backtracking-lower-bound", worst > 0, worst))

    # averaged-iterate gap bound (monotone mode), by default on the unit box for
    # a problem whose generator supplies a closed-form gap
    if gap_spec is None and problem.gap is not None:
        m, n = problem.structure.m, problem.structure.n
        gap_spec = PrimalDualBox(-np.ones(m), np.ones(m), -np.ones(n), np.ones(n))
    if (
        config.mode is Mode.MONOTONE
        and gap_spec is not None
        and trace.z_bar is not None
        and trace.eta_sum > 0
        and trace.z0 is not None
    ):
        gap = evaluate_gap(problem, trace.z_bar, gap_spec)
        bound = _max_sq_distance(trace.z0, gap_spec) / (2.0 * trace.eta_sum) * (1.0 + 1e-6)
        margin = bound - gap
        report.checks.append(
            CertificateCheck("averaged-gap-bound", margin >= 0, margin, f"gap {gap:.3e}")
        )

    return report


def _worst(margins) -> float:
    """The smallest margin, or NaN if any is NaN (numpy's min propagates NaN,
    where Python's min skips one unless it comes first)."""
    return float(np.min(margins))


def _max_sq_distance(z0: np.ndarray, box: PrimalDualBox) -> float:
    """max over the box of ||z0 - z||^2, attained coordinate-wise at a corner."""
    lo = np.concatenate([box.x_lo, box.y_lo])
    hi = np.concatenate([box.x_hi, box.y_hi])
    return float(np.maximum((z0 - lo) ** 2, (z0 - hi) ** 2).sum())
