"""Trace container and its CSV serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnpe import RunTrace, trace_from_csv, trace_to_csv
from qnpe.trace import TRACE_VERSION, TraceRow

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def make_row(k=0, **kw):
    base = dict(k=k, eta=0.5, theta=1.0, norm_F=1.0, dist=2.0, step_norm=0.1,
                backtracked=True, trials=2, loss=0.3, cond_a_margin=0.01,
                cond_b_margin=0.02, cum_evals=3, cum_matvecs=7)
    base.update(kw)
    return TraceRow(**base)


def rows_equal(a, b):
    for name in ("k", "trials", "cum_evals", "cum_matvecs", "backtracked"):
        if getattr(a, name) != getattr(b, name):
            return False
    for name in ("eta", "theta", "norm_F", "dist", "step_norm", "loss",
                 "cond_a_margin", "cond_b_margin"):
        x, y = getattr(a, name), getattr(b, name)
        if math.isnan(x) != math.isnan(y):
            return False
        if not math.isnan(x) and x != y:
            return False
    return True


def test_csv_header_and_version():
    trace = RunTrace(solver="qnpe", rows=[make_row()])
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == f"# {TRACE_VERSION}"
    assert lines[1].startswith("k,eta,theta,")
    assert len(lines) == 3


def test_csv_roundtrip_exact_including_nan():
    rows = [make_row(0), make_row(1, backtracked=False, trials=1, loss=math.nan,
                                  dist=math.nan, eta=1 / 3)]
    back = trace_from_csv(trace_to_csv(RunTrace(solver="qnpe", rows=rows)))
    assert len(back.rows) == 2
    for a, b in zip(rows, back.rows):
        assert rows_equal(a, b)


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        trace_from_csv("k,eta\n0,0.5\n")
    with pytest.raises(ValueError):
        trace_from_csv("# qnpe-trace-v0\nk,eta\n0,0.5\n")


@pytest.mark.parametrize("edit", [lambda p: p + ["1"], lambda p: p[:-1]],
                         ids=["extra-field", "missing-field"])
def test_csv_rejects_a_row_with_the_wrong_field_count(edit):
    lines = trace_to_csv(RunTrace(solver="qnpe", rows=[make_row(0), make_row(1)])).splitlines()
    lines[3] = ",".join(edit(lines[3].split(",")))
    with pytest.raises(ValueError, match="line 4"):
        trace_from_csv("\n".join(lines) + "\n")


def test_serialization_is_deterministic():
    trace = RunTrace(solver="qnpe", rows=[make_row(i) for i in range(5)])
    assert trace_to_csv(trace) == trace_to_csv(trace)


def test_dists_appends_final():
    trace = RunTrace(solver="qnpe", rows=[make_row(dist=3.0)], final_dist=1.5)
    assert np.array_equal(trace.dists(), [3.0, 1.5])


@given(
    st.lists(
        st.tuples(finite, finite, st.booleans(), st.integers(1, 9)),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip_property(entries):
    rows = [
        make_row(i, eta=abs(eta), loss=loss, backtracked=bt, trials=tr)
        for i, (eta, loss, bt, tr) in enumerate(entries)
    ]
    back = trace_from_csv(trace_to_csv(RunTrace(solver="qnpe", rows=rows)))
    assert len(back.rows) == len(rows)
    for a, b in zip(rows, back.rows):
        assert rows_equal(a, b)
