"""qnpe benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload sparse-oracle --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; qnpe is imported from its `src/`.
With --trace 0 the result line carries the end-to-end metrics, with --trace 1
the per-layer metrics of the traced run.  The report above the result line
also names the metrics that carry no regression bound, the environment and
every failed operation.  The full result goes to perfbench/out/, the traced
run's spans too.  Exit status: 0 when every operation passed its checks, 1
when one failed, 2 when qnpe cannot be imported.
"""

from __future__ import annotations

import os
import sys

# BLAS must be pinned to one thread before numpy is first imported, so that
# iteration counts repeat exactly and timings are single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def import_program():
    """qnpe from this checkout's src/, or None when it is not there."""
    try:
        import qnpe
    except ImportError as exc:
        print(f"perfbench: cannot import qnpe from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(qnpe.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: qnpe found at {qnpe.__file__}, not under {SRC}", file=sys.stderr)
        return None
    return qnpe


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and summarise one workload; the result as a dict."""
    import harness
    from tracing import Tracer

    tracer = Tracer() if trace else None
    bench = harness.set_up(workload, seed, tracer)
    harness.measure(bench, seconds)
    summarise = harness.per_layer if trace else harness.end_to_end
    report, notes = summarise(bench)
    declared = harness.PER_LAYER if trace else list(harness.END_TO_END)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "params": workload.params,
        "solver": {"mode": workload.mode.value, **workload.config},
        "instances": workload.instances,
        "environment": environment(),
        "report": {
            n: {"value": v, "unit": harness.unit(n), "note": notes.get(n, "")}
            for n, v in report.items()
        },
        "metrics": {n: {"value": report[n], "unit": harness.unit(n)} for n in declared if n in report},
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "failures": bench.failures,
        "spans": tracer.to_csv() if tracer else None,
    }


def print_report(result: dict) -> None:
    env = result["environment"]
    print(
        f"perfbench {result['workload']} seed={result['seed']} trace={result['trace']} "
        f"seconds={result['seconds']:g} instances={result['instances']}"
    )
    print("params " + json.dumps(result["params"]) + " solver " + json.dumps(result["solver"]))
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in result["report"].items():
        bounded = "" if name in result["metrics"] else "  (reported only)"
        print(f"  {name:32s} {m['value']:<14.6g} {m['unit']:8s} {m['note']}{bounded}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print_report(result)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        (OUT / f"{stem}-spans.csv").write_text(spans)
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    ok = result["failed"] == 0 and bool(result["metrics"])
    line = {
        "correct": ok,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
