"""Benchmark command-line harness.

Subcommands:
    qnpe run <config> --out <dir>       run configured (problem, solver) pairs
    qnpe compare <config> --out <dir>   accuracy-vs-cost comparison table
    qnpe verify <dir>                   re-check certificates from saved traces

The config file is a single JSON document:

    {
      "problems": [{"family": "quadratic_min", "d": 10, "mu": 0.1,
                    "l1": 1.0, "seed": 7}],
      "solvers": [{"name": "qnpe", "mode": "strongly_monotone",
                   "max_iterations": 50},
                  {"name": "eg", "step_size": 0.5, "n_iters": 200}],
      "repetitions": 1
    }

Exit codes: 0 success, 2 config/input error, 3 certificate failure,
4 solver error.  Identical config + seed produce byte-identical trace CSVs.
A run that fails writes run_*.error.json, naming the exception and holding
its traceback, in place of its trace; the other runs of the batch still complete and write theirs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certificates import verify_iteration_certificates
from .driver import Mode, SolverConfig, extragradient_baseline, solve
from .problems import (
    JSymmetric,
    PrimalDualBox,
    Problem,
    problem_from_descriptor,
)
from .trace import RunTrace, trace_from_csv, trace_to_csv

log = logging.getLogger("qnpe")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_SOLVER = 4

ERROR_SUFFIX = ".error.json"  # a failed run's file, next to the completed runs' sidecars


class ConfigError(ValueError):
    pass


@dataclass
class RunSpec:
    run_id: str
    problem_desc: dict
    problem: Problem  # built once per descriptor and shared by its runs
    solver_desc: dict
    rep: int
    seed_override: int | None
    debug: bool


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("problems", "solvers"):
        if key not in cfg or not isinstance(cfg[key], list) or not cfg[key]:
            raise ConfigError(f"config field '{key}' must be a nonempty list")
        if not all(isinstance(entry, dict) for entry in cfg[key]):
            raise ConfigError(f"every entry of config field '{key}' must be a JSON object")
    reps = cfg.get("repetitions", 1)
    if not isinstance(reps, int) or reps < 1:
        raise ConfigError("field 'repetitions' must be a positive integer")
    return cfg


def _build_problem(desc: dict) -> Problem:
    try:
        return problem_from_descriptor(desc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad problem descriptor {desc!r}: {exc}") from exc


def _solver_config(desc: dict, problem: Problem, seed: int, debug: bool) -> SolverConfig:
    mode_raw = desc.get("mode", "strongly_monotone")
    try:
        mode = Mode(mode_raw)
    except ValueError as exc:
        raise ConfigError(f"unknown mode {mode_raw!r}") from exc
    if mode is Mode.STRONGLY_MONOTONE and problem.mu <= 0:
        raise ConfigError(
            f"solver {desc.get('name')!r} requests strongly_monotone mode "
            f"but the problem has mu = {problem.mu}"
        )
    kwargs = {
        k: desc[k]
        for k in (
            "alpha1",
            "alpha2",
            "beta",
            "sigma0",
            "p",
            "max_iterations",
            "stop_tolerance",
            "rho",
            "radius",
            "max_backtracks",
        )
        if k in desc
    }
    try:
        return SolverConfig(mode=mode, rng_seed=seed, debug_certificates=debug, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"solver {desc.get('name')!r}: {exc}") from exc


def _eg_params(desc: dict, problem: Problem) -> tuple[float, int]:
    """The EG entry's (step_size, n_iters), defaulting to 0.5/L1 and 200."""
    step = desc.get("step_size", 0.5 / problem.l1)
    n_iters = desc.get("n_iters", 200)
    top = 1.0 / problem.l1
    if isinstance(step, bool) or not isinstance(step, (int, float)) or not 0 < step <= top:
        raise ConfigError(f"solver 'eg': step_size must lie in (0, 1/L1] = (0, {top}]")
    if isinstance(n_iters, bool) or not isinstance(n_iters, int) or n_iters < 1:
        raise ConfigError("solver 'eg': n_iters must be a positive integer")
    return step, n_iters


def _initial_point(solver_desc: dict, problem: Problem, run_seed: int) -> np.ndarray | None:
    """Optional gaussian starting point: {"z0_scale": s} draws s * N(0, I)
    with a seed derived from the run seed; omit for the zero vector."""
    scale = solver_desc.get("z0_scale")
    if scale is None:
        return None
    rng = np.random.default_rng([int(run_seed), 0x5EED])
    return scale * rng.standard_normal(problem.dim)


def _default_gap_spec(problem: Problem):
    if isinstance(problem.structure, JSymmetric):
        m, n = problem.structure.m, problem.structure.n
        return PrimalDualBox(
            x_lo=-np.ones(m), x_hi=np.ones(m), y_lo=-np.ones(n), y_hi=np.ones(n)
        )
    return None


def _execute_run(spec: RunSpec) -> dict:
    """One run's result; a run that raises carries the error in place of a
    trace, so that one bad run does not abort the batch."""
    problem = spec.problem
    base_seed = spec.seed_override if spec.seed_override is not None else spec.problem_desc.get("seed", 0)
    run_seed = base_seed + spec.rep
    solver = spec.solver_desc
    name = solver.get("name", "qnpe")
    result = {
        "run_id": spec.run_id,
        "solver": name,
        "rep": spec.rep,
        "seed": run_seed,
        "problem": spec.problem_desc,
        "solver_desc": solver,
    }
    z0 = _initial_point(solver, problem, run_seed)
    t0 = time.perf_counter()
    try:
        if name == "eg":
            _, _, trace = extragradient_baseline(problem, *_eg_params(solver, problem), z0=z0)
            report = None
        else:  # qnpe; cmd_run has rejected every other name
            config = _solver_config(solver, problem, run_seed, spec.debug)
            _, _, trace = solve(problem, config, z0=z0)
            gap_spec = _default_gap_spec(problem) if config.mode is Mode.MONOTONE else None
            report = verify_iteration_certificates(trace, problem, config, gap_spec=gap_spec)
    except Exception as exc:  # solver-side failure of this run only
        return {**result, "error": type(exc).__name__, "message": str(exc),
                "traceback": traceback.format_exc()}
    return {**result, "trace": trace, "report": report, "wall_time": time.perf_counter() - t0}


def _write_run(out_dir: Path, result: dict) -> dict:
    trace: RunTrace = result["trace"]
    csv_path = out_dir / f"{result['run_id']}.csv"
    csv_path.write_text(trace_to_csv(trace))

    sidecar = {
        "run_id": result["run_id"],
        "solver": result["solver"],
        "solver_desc": result["solver_desc"],
        "rep": result["rep"],
        "seed": result["seed"],
        "problem": result["problem"],
        "meta": trace.meta,
        "z0": trace.z0.tolist() if trace.z0 is not None else None,
        "z_final": trace.z_final.tolist() if trace.z_final is not None else None,
        "z_bar": trace.z_bar.tolist() if trace.z_bar is not None else None,
        "eta_sum": trace.eta_sum,
        "final_norm_F": trace.final_norm_F,
        "final_dist": trace.final_dist,
        "total_evals": trace.total_evals,
        "total_matvecs": trace.total_matvecs,
    }
    (out_dir / f"{result['run_id']}.json").write_text(json.dumps(sidecar, indent=2))

    summary = {
        "run_id": result["run_id"],
        "solver": result["solver"],
        "iterations": trace.iterations,
        "final_norm_F": trace.final_norm_F,
        "final_dist": trace.final_dist,
        "operator_evals": trace.total_evals,
        "matvecs": trace.total_matvecs,
        "wall_time": result["wall_time"],
    }
    if result["report"] is not None:
        summary["certificates_passed"] = result["report"].all_passed
        summary["certificates"] = result["report"].lines()
    return summary


def _make_specs(cfg: dict, seed_override: int | None, debug: bool) -> list[RunSpec]:
    specs = []
    reps = cfg.get("repetitions", 1)
    for pi, pdesc in enumerate(cfg["problems"]):
        problem = _build_problem(pdesc)
        for si, sdesc in enumerate(cfg["solvers"]):
            name = sdesc.get("name", "qnpe")
            for rep in range(reps):
                specs.append(
                    RunSpec(
                        run_id=f"run_p{pi}_{name}{si}_rep{rep}",
                        problem_desc=pdesc,
                        problem=problem,
                        solver_desc=sdesc,
                        rep=rep,
                        seed_override=seed_override,
                        debug=debug,
                    )
                )
    return specs


def _run_all(specs: list[RunSpec], threads: int) -> list[dict]:
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_execute_run, specs))
    return [_execute_run(s) for s in specs]


def cmd_run(config_path: str, out_dir: str, seed: int | None, threads: int, debug: bool) -> int:
    try:
        cfg = _load_config(config_path)
        specs = _make_specs(cfg, seed, debug)
        # validate every pair before running anything
        for spec in specs:
            name = spec.solver_desc.get("name", "qnpe")
            if name == "qnpe":
                _solver_config(spec.solver_desc, spec.problem, 0, debug)
            elif name == "eg":
                _eg_params(spec.solver_desc, spec.problem)
            else:
                raise ConfigError(f"unknown solver name {name!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))

    results = _run_all(specs, threads)
    failed = [r for r in results if "error" in r]
    for r in failed:
        print(f"solver error in {r['run_id']}: {r['message']}", file=sys.stderr)
        (out / f"{r['run_id']}{ERROR_SUFFIX}").write_text(json.dumps(r, indent=2))
    summaries = [_write_run(out, r) for r in results if "error" not in r]
    (out / "summary.json").write_text(json.dumps(summaries, indent=2))

    cert_lines = []
    all_pass = True
    for s in summaries:
        if "certificates" in s:
            cert_lines.append(f"== {s['run_id']} ==")
            cert_lines.extend(s["certificates"])
            all_pass = all_pass and s["certificates_passed"]
    (out / "certificates.txt").write_text("\n".join(cert_lines) + "\n" if cert_lines else "")

    for s in summaries:
        log.info(
            "%s: %d iters, final ||F|| = %.3e", s["run_id"], s["iterations"], s["final_norm_F"]
        )
    if not all_pass:
        print("certificate failure; see certificates.txt", file=sys.stderr)
    if failed:
        return EXIT_SOLVER
    return EXIT_OK if all_pass else EXIT_CERTIFICATE


def _sidecars(out: Path) -> list[Path]:
    """The completed runs' sidecars, without the failed runs' error files."""
    return sorted(p for p in out.glob("run_*.json") if not p.name.endswith(ERROR_SUFFIX))


def _cost_to_accuracy(trace: RunTrace, eps: float) -> tuple:
    """First (iterations, evals, matvecs) reaching distance <= eps (falls back
    to the operator norm when the root is unknown); z_k costs iterations 0..k-1."""
    use_dist = all(math.isfinite(r.dist) for r in trace.rows)
    evals = matvecs = 0
    for row in trace.rows:
        value = row.dist if use_dist else row.norm_F
        if value <= eps:
            return row.k, evals, matvecs
        evals, matvecs = row.cum_evals, row.cum_matvecs
    final = trace.final_dist if use_dist else trace.final_norm_F
    if final <= eps and trace.rows:
        return trace.rows[-1].k + 1, evals, matvecs
    return None, None, None


def cmd_compare(config_path: str, out_dir: str, seed: int | None, threads: int, debug: bool) -> int:
    try:
        cfg = _load_config(config_path)
        if len(cfg["solvers"]) < 2:
            raise ConfigError("compare needs at least 2 solvers")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    code = cmd_run(config_path, out_dir, seed, threads, debug)
    if code == EXIT_CONFIG:
        return code

    out = Path(out_dir)
    rows = []
    for sidecar_path in _sidecars(out):
        sidecar = json.loads(sidecar_path.read_text())
        trace = trace_from_csv((out / f"{sidecar['run_id']}.csv").read_text())
        trace.final_dist = sidecar["final_dist"]
        trace.final_norm_F = sidecar["final_norm_F"]
        for eps in (1e-2, 1e-4, 1e-6):
            iters, evals, mv = _cost_to_accuracy(trace, eps)
            rows.append(
                {
                    "run_id": sidecar["run_id"],
                    "solver": sidecar["solver"],
                    "epsilon": eps,
                    "iterations": iters,
                    "operator_evals": evals,
                    "matvecs": mv,
                }
            )

    csv_lines = ["run_id,solver,epsilon,iterations,operator_evals,matvecs"]
    txt_lines = [f"{'run':28s} {'solver':8s} {'eps':>8s} {'iters':>8s} {'evals':>8s} {'matvecs':>8s}"]
    for r in rows:
        costs = [r[c] for c in ("iterations", "operator_evals", "matvecs")]
        csv_lines.append(
            f"{r['run_id']},{r['solver']},{r['epsilon']:g},"
            + ",".join("" if c is None else str(c) for c in costs)
        )
        txt_lines.append(
            f"{r['run_id']:28s} {r['solver']:8s} {r['epsilon']:>8g} "
            + " ".join(f"{'-' if c is None else c:>8}" for c in costs)
        )
    (out / "compare.csv").write_text("\n".join(csv_lines) + "\n")
    (out / "compare.txt").write_text("\n".join(txt_lines) + "\n")
    return code


def cmd_verify(trace_dir: str) -> int:
    out = Path(trace_dir)
    if not out.is_dir():
        print(f"not a directory: {trace_dir}", file=sys.stderr)
        return EXIT_CONFIG
    sidecars = _sidecars(out)
    if not sidecars:
        print("no run sidecars found", file=sys.stderr)
        return EXIT_CONFIG

    any_fail = False
    problems: dict[str, Problem] = {}  # one build per distinct descriptor
    for sidecar_path in sidecars:
        try:  # every field is read here: a malformed sidecar is corrupt run data
            sidecar = json.loads(sidecar_path.read_text())
            run_id, solver = sidecar["run_id"], sidecar["solver"]
            trace = trace_from_csv((out / f"{run_id}.csv").read_text())
            if solver != "qnpe":
                continue
            trace.meta = sidecar["meta"]
            trace.z0, trace.z_final, trace.z_bar = (
                None if sidecar[k] is None else np.array(sidecar[k])
                for k in ("z0", "z_final", "z_bar"))
            trace.eta_sum, trace.final_norm_F, trace.final_dist = (
                sidecar["eta_sum"], sidecar["final_norm_F"], sidecar["final_dist"])
            problem_desc, solver_desc, seed = (
                sidecar["problem"], sidecar["solver_desc"], sidecar["seed"])
            if not (isinstance(problem_desc, dict) and isinstance(solver_desc, dict)):
                raise TypeError("fields 'problem' and 'solver_desc' must be JSON objects")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"corrupt run data {sidecar_path.name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        key = json.dumps(problem_desc, sort_keys=True)
        try:
            if key not in problems:
                problems[key] = _build_problem(problem_desc)
            problem = problems[key]
            config = _solver_config(solver_desc, problem, seed, False)
        except ConfigError as exc:
            print(f"bad sidecar {sidecar_path.name}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        gap_spec = _default_gap_spec(problem) if config.mode is Mode.MONOTONE else None
        report = verify_iteration_certificates(trace, problem, config, gap_spec=gap_spec)
        for line in report.lines():
            print(f"{run_id}: {line}")
        any_fail = any_fail or not report.all_passed
    return EXIT_CERTIFICATE if any_fail else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qnpe", description="QNPE benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run configured experiments")
    p_run.add_argument("config")
    p_run.add_argument("--out", required=True)

    p_cmp = sub.add_parser("compare", help="compare solvers at target accuracies")
    p_cmp.add_argument("config")
    p_cmp.add_argument("--out", required=True)

    p_ver = sub.add_parser("verify", help="re-check certificates from a run directory")
    p_ver.add_argument("trace_dir")

    for p in (p_run, p_cmp):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--debug-certificates", action="store_true")

    args = parser.parse_args(argv)
    logging.basicConfig(level=os.environ.get("QNPE_LOG", "WARNING").upper())

    if args.command == "run":
        return cmd_run(args.config, args.out, args.seed, args.threads, args.debug_certificates)
    if args.command == "compare":
        return cmd_compare(args.config, args.out, args.seed, args.threads, args.debug_certificates)
    return cmd_verify(args.trace_dir)


if __name__ == "__main__":
    sys.exit(main())
