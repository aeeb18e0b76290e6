"""Per-layer tracing of qnpe from outside the package.

`Tracer.installed` swaps the module attributes that qnpe's callers look up
for wrappers that record one span per call (name, start, end, parent span,
operation id) and return the wrapped function's result unchanged.  The driver
imports its collaborators by name, so the wrappers go on `qnpe.driver`, not
on the modules that define the functions.  Spans stay in memory until the
run writes them out.

Self time is a span's duration minus the durations of its direct children;
calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from qnpe import Problem, RunTrace, SepCase

NS = 1e-9

# (module, attribute, span name, info extracted from (args, kwargs, result))
PATCHES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("driver", "backtrack", "line_search", lambda a, k, r: (r.trial_count, r.backtracked)),
    ("driver", "observe_loss", "learner.observe", None),
    ("driver", "current_matrix", "learner.current_matrix", None),
    (
        "line_search",
        "linear_solve",
        "linear_solver",
        lambda a, k, r: (r.iterations, r.matvecs, r.converged),
    ),
    ("learner", "sep_feasible", "separation", lambda a, k, r: (r.case,)),
    # a symmetric ext_evec step costs one matvec, a symmetrized one two
    ("separation", "ext_evec", "spectral.ext_evec", lambda a, k, r: (1 if k.get("symmetric") else 2,)),
    ("separation", "max_svec", "spectral.max_svec", lambda a, k, r: (2,)),
    ("spectral", "lanczos", "spectral.lanczos", lambda a, k, r: (r.steps_taken,)),
    ("certificates", "evaluate_gap", "certificates.gap", None),
)


@dataclass(slots=True)
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into Tracer.spans, -1 for a root span
    op: int
    info: tuple = ()

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * NS


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter_ns(), 0, parent, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, problem: Problem) -> Iterator["Tracer"]:
        """Wrap every patched layer and `problem.eval`; restore them on exit."""
        saved = []
        try:
            for module_name, attr, name, info in PATCHES:
                module = importlib.import_module(f"qnpe.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, info))
            saved.append((problem, "eval", problem.eval))
            problem.eval = self.wrap("problems.eval", problem.eval)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_csv(self) -> str:
        lines = ["name,start_ns,end_ns,parent,op"]
        lines += [f"{s.name},{s.start},{s.end},{s.parent},{s.op}" for s in self.spans]
        return "\n".join(lines) + "\n"


def layer_metrics(spans: list[Span], offset: int, trace: RunTrace) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced operation, and its broken count identities.

    `spans` are the operation's spans and `offset` the index of the first of
    them in the tracer, so that parent indices resolve.
    """
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= offset:
            child_s[s.parent - offset] += s.seconds
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s.name] += s.seconds
        self_s[s.name] += s.seconds - child_s[i]
        calls[s.name] += 1

    def by_name(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def parent_name(s: Span) -> str:
        return spans[s.parent - offset].name if s.parent >= offset else ""

    searches = by_name("line_search")
    trials = sum(s.info[0] for s in searches)
    solves = by_name("linear_solver")
    solver_matvecs = sum(s.info[1] for s in solves)
    seps = by_name("separation")
    # each Lanczos step applies its parent oracle's operator once
    oracle_matvecs = sum(
        s.info[0] * spans[s.parent - offset].info[0] for s in by_name("spectral.lanczos")
    )
    evals_in_search = sum(1 for s in by_name("problems.eval") if parent_name(s) == "line_search")

    m = {
        "problems.eval_calls": calls["problems.eval"],
        "problems.eval_s": total["problems.eval"],
        "driver.self_s": self_s["driver.solve"],
        "line_search.self_s": self_s["line_search"],
        "line_search.trials": trials,
        "line_search.backtracked_iters": sum(1 for s in searches if s.info[1]),
        "line_search.accept_ratio": len(searches) / trials if trials else 1.0,
        "linear_solver.calls": len(solves),
        "linear_solver.s": total["linear_solver"],
        "linear_solver.iterations": sum(s.info[0] for s in solves),
        "linear_solver.matvecs": solver_matvecs,
        "linear_solver.unconverged": sum(1 for s in solves if not s.info[2]),
        "learner.observe_calls": calls["learner.observe"],
        "learner.observe_self_s": self_s["learner.observe"],
        "learner.current_matrix_s": total["learner.current_matrix"],
        "separation.calls": len(seps),
        "separation.self_s": self_s["separation"],
        "separation.case2_ratio": (
            sum(1 for s in seps if s.info[0] is SepCase.CASE_II) / len(seps) if seps else 0.0
        ),
        "spectral.ext_evec_s": total["spectral.ext_evec"],
        "spectral.max_svec_s": total["spectral.max_svec"],
        "spectral.max_svec_calls": calls["spectral.max_svec"],
        "spectral.lanczos_s": total["spectral.lanczos"],
        "spectral.lanczos_calls": calls["spectral.lanczos"],
        "spectral.lanczos_steps": sum(s.info[0] for s in by_name("spectral.lanczos")),
        "spectral.oracle_matvecs": oracle_matvecs,
        "certificates.verify_s": total["certificates.verify"],
        "certificates.gap_s": total["certificates.gap"],
        "certificates.gap_calls": calls["certificates.gap"],
        "trace.to_csv_s": total["trace.to_csv"],
        "trace.from_csv_s": total["trace.from_csv"],
    }

    broken = []
    if m["problems.eval_calls"] != trace.total_evals:
        broken.append(f"eval calls {m['problems.eval_calls']} != total_evals {trace.total_evals}")
    if solver_matvecs + oracle_matvecs != trace.total_matvecs:
        broken.append(
            f"solver {solver_matvecs} + oracle {oracle_matvecs} matvecs "
            f"!= total_matvecs {trace.total_matvecs}"
        )
    if trials != evals_in_search:
        broken.append(f"line-search trials {trials} != evaluations inside it {evals_in_search}")
    return m, broken
