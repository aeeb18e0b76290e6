"""Per-iteration run traces with CSV export.

The CSV format is versioned via the leading comment line `# qnpe-trace-v1`
and has a fixed column order; floats are written with full repr precision so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

TRACE_VERSION = "qnpe-trace-v1"


@dataclass
class TraceRow:
    k: int
    eta: float
    theta: float
    norm_F: float
    dist: float  # ||z_k - z*||, nan when the root is unknown
    step_norm: float  # ||z_hat_k - z_k||
    backtracked: bool  # trials > 1
    trials: int  # operator evaluations after F(z_k): line-search trials, 1 for EG
    loss: float  # model-mismatch loss, nan when not backtracked
    cond_a_margin: float  # rhs - lhs of the inner-solve condition at acceptance
    cond_b_margin: float  # rhs - lhs of the proximal condition at acceptance
    cum_evals: int  # adds 1 + trials per row
    cum_matvecs: int

    def as_list(self) -> list:
        return [getattr(self, c) for c in COLUMNS]


COLUMNS = [f.name for f in fields(TraceRow)]  # the CSV's column order
_PARSERS = {int: int, float: float, bool: lambda text: text == "1"}  # by field type
_COLUMN_PARSERS = [_PARSERS[t] for t in map(get_type_hints(TraceRow).get, COLUMNS)]


@dataclass
class RunTrace:
    solver: str
    rows: list[TraceRow] = field(default_factory=list)
    z0: np.ndarray | None = None
    z_final: np.ndarray | None = None
    z_bar: np.ndarray | None = None
    eta_sum: float = 0.0
    final_norm_F: float = math.nan
    final_dist: float = math.nan
    total_evals: int = 0  # every F evaluation, so the last row's cum_evals + 1 (1 with no rows)
    total_matvecs: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def dists(self) -> np.ndarray:
        """Distances ||z_k - z*|| for k = 0..N, including the final iterate."""
        return np.array([r.dist for r in self.rows] + [self.final_dist])


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def trace_to_csv(trace: RunTrace) -> str:
    lines = [f"# {TRACE_VERSION}", ",".join(COLUMNS)]
    for row in trace.rows:
        lines.append(",".join(_fmt(v) for v in row.as_list()))
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str) -> RunTrace:
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or lines[0] != f"# {TRACE_VERSION}":
        raise ValueError("missing or unknown trace version header")
    header = lines[1].split(",")
    if header != COLUMNS:
        raise ValueError("unexpected trace columns")
    trace = RunTrace(solver="")
    for i, ln in enumerate(lines[2:], start=3):
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise ValueError(f"trace line {i} has {len(parts)} fields, expected {len(COLUMNS)}")
        trace.rows.append(TraceRow(*(parse(v) for parse, v in zip(_COLUMN_PARSERS, parts))))
    return trace

