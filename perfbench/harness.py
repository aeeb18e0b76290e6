"""Runs one workload for a fixed time, checks every operation and computes the
metrics.

One operation is one `qnpe.solve` call followed by its verification.  The loop
is closed: a single caller starts the next operation only after the previous
one has returned, cycling through the seed's instances so that each is
solved repeatedly.  The untraced run (trace=False) gives the end-to-end
metrics; the traced run (trace=True) alternates untraced and traced solves of
the same instance and gives the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import qnpe
from qnpe import Problem, RunTrace
from tracing import Tracer, layer_metrics
from workloads import Workload

# Metrics in the result line, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iterations": "count",
    "operator_evals": "count",
    "matvecs": "count",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in report order.  max_svec and the gap evaluation take no
# time on the workloads that bypass them, so the result line carries their
# call counts and the report alone their times.
LAYERS = [
    "problems.eval_calls",
    "problems.eval_s",
    "driver.self_s",
    "driver.eg_s",
    "line_search.self_s",
    "line_search.trials",
    "line_search.backtracked_iters",
    "line_search.accept_ratio",
    "linear_solver.calls",
    "linear_solver.s",
    "linear_solver.iterations",
    "linear_solver.matvecs",
    "linear_solver.unconverged",
    "learner.observe_calls",
    "learner.observe_self_s",
    "learner.current_matrix_s",
    "separation.calls",
    "separation.self_s",
    "separation.case2_ratio",
    "spectral.ext_evec_s",
    "spectral.max_svec_s",
    "spectral.max_svec_calls",
    "spectral.lanczos_s",
    "spectral.lanczos_calls",
    "spectral.lanczos_steps",
    "spectral.oracle_matvecs",
    "certificates.verify_s",
    "certificates.gap_s",
    "certificates.gap_calls",
    "certificates.failed_checks",
    "trace.to_csv_s",
    "trace.from_csv_s",
    "trace.csv_bytes",
    "bench.trace_overhead",
]
PER_LAYER = [n for n in LAYERS if n not in ("spectral.max_svec_s", "certificates.gap_s")]
# Printed with the end-to-end metrics but carrying no bound: see README.md.
REPORT_ONLY = {
    "final_dist": "norm",
    "eg_final_dist": "norm",
    "dist_vs_eg": "ratio",
    "avg_gap": "gap",
    "failure_rate": "fraction",
}
MIN_SETUPS = 16


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in REPORT_ONLY:
        return REPORT_ONLY[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio") or name == "bench.trace_overhead":
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


@dataclass
class Instance:
    index: int
    problem: Problem
    z0: np.ndarray
    gap_spec: object
    counts: tuple | None = None  # (iterations, evals, matvecs, final_dist) of the first solve
    z_bar: np.ndarray | None = None
    solve_s: list[float] = field(default_factory=list)
    traced_solve_s: list[float] = field(default_factory=list)


@dataclass
class Run:
    workload: Workload
    instances: list[Instance]
    setup_s: list[float]
    config: qnpe.SolverConfig
    tracer: Tracer | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layer_rows: list[dict] = field(default_factory=list)

    def operation(self, inst: Instance, traced: bool = False, tamper=None) -> None:
        """Solve `inst` once and verify the result; a failure is recorded, not raised."""
        self.attempted += 1
        try:
            reasons = self._operation(inst, traced, tamper)
        except Exception:
            reasons = ["raised " + traceback.format_exc().strip().replace("\n", " | ")]
        if reasons:
            self.failures.append(f"instance {inst.index}: " + "; ".join(reasons))

    def _operation(self, inst: Instance, traced: bool, tamper) -> list[str]:
        tracer = self.tracer if traced else None
        span = tracer.span if tracer else (lambda name: nullcontext())
        offset = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.op += 1
        with tracer.installed(inst.problem) if tracer else nullcontext():
            start = time.perf_counter()
            with span("driver.solve"):
                _, z_bar, trace = qnpe.solve(inst.problem, self.config, z0=inst.z0)
            elapsed = time.perf_counter() - start
            if tamper is not None:
                tamper(trace)
            with span("certificates.verify"):
                report = qnpe.verify_iteration_certificates(
                    trace, inst.problem, self.config, gap_spec=inst.gap_spec
                )
            with span("trace.to_csv"):
                text = qnpe.trace_to_csv(trace)
            with span("trace.from_csv"):
                parsed = qnpe.trace_from_csv(text)

        reasons = [f"certificate {c.name} failed" for c in report.checks if not c.passed]
        if qnpe.trace_to_csv(parsed) != text:
            reasons.append("trace CSV round trip is not byte-identical")
        if self.workload.to_target and trace.final_norm_F > self.config.stop_tolerance:
            reasons.append(f"cap hit with final_norm_F {trace.final_norm_F:.3e}")
        counts = (trace.iterations, trace.total_evals, trace.total_matvecs, trace.final_dist)
        if inst.counts is None:
            inst.counts, inst.z_bar = counts, z_bar
        elif counts != inst.counts:
            what = "traced" if traced else "repeated"
            reasons.append(f"{what} solve gave {counts}, first solve {inst.counts}")
        if tracer:
            row, broken = layer_metrics(tracer.spans[offset:], offset, trace)
            row["certificates.failed_checks"] = sum(not c.passed for c in report.checks)
            row["trace.csv_bytes"] = len(text.encode())
            self.layer_rows.append(row)
            reasons += broken
        if not reasons:
            (inst.traced_solve_s if traced else inst.solve_s).append(elapsed)
        return reasons


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None) -> Run:
    """Build the seed's instances, timing at least MIN_SETUPS generator calls."""
    problems: dict[int, Problem] = {}
    setup_s = []
    for k in range(max(MIN_SETUPS, workload.instances)):
        index = k % workload.instances
        start = time.perf_counter()
        problem = workload.build(seed, index)
        setup_s.append(time.perf_counter() - start)
        problems.setdefault(index, problem)
    instances = [
        Instance(i, p, workload.initial_point(p, seed, i), workload.gap_spec(p))
        for i, p in sorted(problems.items())
    ]
    return Run(workload, instances, setup_s, workload.solver_config(), tracer)


def warm_up(workload: Workload) -> None:
    """Solve a tiny instance once, so that lazy imports and first-call costs
    fall outside the measured solves."""
    tiny = workload.tiny()
    problem = tiny.build(0, 0)
    qnpe.solve(problem, tiny.solver_config(), z0=tiny.initial_point(problem, 0, 0))


def measure(run: Run, seconds: float) -> None:
    """Closed loop for `seconds`, one instance per round, no round started that
    would end past the deadline.

    An untraced round is one operation; the loop solves every instance at
    least once and one of them twice.  A traced round is an untraced and a
    traced operation on the same instance, in alternating order; the loop
    makes at least one.
    """
    warm_up(run.workload)
    k = len(run.instances)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        inst = run.instances[rounds % k]
        start = time.perf_counter()
        if run.tracer is None:
            run.operation(inst)
        else:
            for traced in (False, True) if rounds % 2 == 0 else (True, False):
                run.operation(inst, traced=traced)
        rounds += 1
        now = time.perf_counter()
        minimum = 1 if run.tracer else k + 1
        if rounds >= minimum and now + (now - start) > deadline:
            return


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def tail_note(samples: list[float]) -> str:
    """The sample count, plus the highest percentile with ten samples beyond it."""
    note = f"n={len(samples)}"
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            q = np.percentile(samples, p)
            return f"{note} p{p}={q:.4g}"
    return note


def baseline(run: Run, instances: list[Instance]) -> list[float]:
    """EG final distance at step 1/L1 with as many evaluations as qnpe used.

    EG spends 2 evaluations per iteration plus a final one, so it gets
    floor((evals - 1) / 2) iterations.
    """
    dists = []
    if run.tracer:
        run.tracer.op += 1
    for inst in instances:
        problem = inst.problem
        n_iters = (inst.counts[1] - 1) // 2
        with run.tracer.span("driver.eg") if run.tracer else nullcontext():
            _, _, eg = qnpe.extragradient_baseline(problem, 1.0 / problem.l1, n_iters, z0=inst.z0)
        dists.append(eg.final_dist)
    return dists


def end_to_end(run: Run) -> tuple[dict, dict]:
    """(metrics for the result line, notes) of an untraced run; see README.md."""
    solved = [i for i in run.instances if i.solve_s]
    if not solved:
        return {}, {}
    medians = [statistics.median(i.solve_s) for i in solved]
    all_solves = [t for i in solved for t in i.solve_s]
    metrics = {
        "setup_s": statistics.median(run.setup_s),
        "solve_s": statistics.fmean(medians),
        "iterations": statistics.fmean(i.counts[0] for i in solved),
        "operator_evals": statistics.fmean(i.counts[1] for i in solved),
        "matvecs": statistics.fmean(i.counts[2] for i in solved),
        "final_dist": _geomean([i.counts[3] for i in solved]),
    }
    eg = baseline(run, solved)
    metrics["eg_final_dist"] = _geomean(eg)
    metrics["dist_vs_eg"] = _geomean([i.counts[3] / d for i, d in zip(solved, eg)])
    if solved[0].gap_spec is not None:
        metrics["avg_gap"] = statistics.fmean(
            qnpe.evaluate_gap(i.problem, i.z_bar, i.gap_spec) for i in solved
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failure_rate"] = len(run.failures) / run.attempted
    notes = {
        "setup_s": f"median of {len(run.setup_s)} generator calls",
        "solve_s": f"mean of {len(solved)} instance medians, {tail_note(all_solves)}",
        "final_dist": f"geometric mean over {len(solved)} instances",
        "eg_final_dist": "extragradient, step 1/L1, same evaluations",
        "dist_vs_eg": "final_dist / eg_final_dist, geometric mean",
        "failure_rate": f"{len(run.failures)} of {run.attempted} operations",
    }
    return metrics, notes


def per_layer(run: Run) -> tuple[dict, dict]:
    """(metrics, notes) of a traced run: means per traced solve."""
    rows = run.layer_rows
    traced = [i for i in run.instances if i.traced_solve_s and i.solve_s]
    if not rows or not traced:
        return {}, {}
    metrics = {name: statistics.fmean(r[name] for r in rows) for name in rows[0]}
    eg_start = len(run.tracer.spans)
    baseline(run, traced)
    metrics["driver.eg_s"] = statistics.fmean(
        s.seconds for s in run.tracer.spans[eg_start:] if s.name == "driver.eg"
    )
    metrics["bench.trace_overhead"] = sum(
        statistics.median(i.traced_solve_s) for i in traced
    ) / sum(statistics.median(i.solve_s) for i in traced)
    metrics = {name: metrics[name] for name in LAYERS}
    notes = {
        "problems.eval_calls": f"mean over {len(rows)} traced solves",
        "bench.trace_overhead": f"traced / untraced solve_s over {len(traced)} instances",
    }
    return metrics, notes
