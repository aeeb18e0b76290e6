"""Benchmark command-line harness.

Subcommands:
    qnpe run <config> --out <dir>       run configured (problem, solver) pairs
    qnpe compare <config> --out <dir>   accuracy-vs-cost comparison table
    qnpe verify <dir>                   re-check certificates from saved traces

The config is one JSON object with "problems", "solvers" and "repetitions"
(schema in README.md).  It is parsed once, before anything is written, into
one checked RunSpec per run; a problem entry is its generator's keyword
arguments and a qnpe entry holds SolverConfig fields, so those objects' own
checks reject an unknown field or a value out of range.  The CLI checks only
the JSON shape, unknown keys, z0_scale, repetitions, --seed and --threads.

Exit codes: 0 success, 2 config/input error, 3 certificate failure,
4 solver error.  Identical config + seed produce byte-identical trace CSVs.
A run that fails writes run_*.error.json, naming the exception and holding
its traceback, in place of its trace; the other runs still complete.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .certificates import verify_iteration_certificates
from .driver import SolverConfig, check_extragradient, check_mode, extragradient_baseline, solve
from .problems import GenerationError, Problem, problem_from_descriptor, require
from .trace import RunTrace, trace_from_csv, trace_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_SOLVER = 4

ERROR_SUFFIX = ".error.json"  # a failed run's file, next to the completed runs' sidecars

CONFIG_FIELDS = {"problems", "solvers", "repetitions"}
# the fields a solver entry may hold besides "name" and "z0_scale"
SOLVER_FIELDS = {
    "qnpe": {f.name for f in fields(SolverConfig)} - {"rng_seed"},
    "eg": {"step_size", "n_iters"},
}
# the sidecar's copies of the trace's start/end points and totals
POINT_FIELDS = ("z0", "z_final", "z_bar")
TOTAL_FIELDS = ("eta_sum", "final_norm_F", "final_dist", "total_evals", "total_matvecs")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunSpec:
    """One checked run: everything `_execute_run` reads."""

    run_id: str
    problem_desc: dict  # the config's entries, copied to the sidecar as given
    solver_desc: dict
    problem: Problem  # built once per descriptor and shared by its runs
    rep: int
    seed: int
    z0_scale: float | None
    solver: SolverConfig | tuple[float, int]  # qnpe's config, or EG's (step_size, n_iters)


@contextmanager
def _config_errors(what: str = ""):
    """The library's own checks, reported as a ConfigError about `what`."""
    try:
        yield
    except (ValueError, TypeError, GenerationError) as exc:
        raise ConfigError(f"{what}: {exc}" if what else str(exc)) from exc


def _problem(desc: dict, cache: dict[str, Problem]) -> Problem:
    """The problem a descriptor names, built once per distinct descriptor."""
    key = json.dumps(desc, sort_keys=True)
    if key not in cache:
        with _config_errors(f"bad problem descriptor {desc!r}"):
            cache[key] = problem_from_descriptor(desc)
    return cache[key]


def _parse_solver(desc: dict, problem: Problem,
                  seed: int) -> tuple[float | None, SolverConfig | tuple[float, int]]:
    """A solver entry's z0_scale, and the SolverConfig or the EG
    (step_size, n_iters) it asks for."""
    name = desc.get("name", "qnpe")
    if not isinstance(name, str) or name not in SOLVER_FIELDS:
        raise ConfigError(f"unknown solver name {name!r}")
    params = {k: v for k, v in desc.items() if k not in ("name", "z0_scale")}
    unknown = sorted(params.keys() - SOLVER_FIELDS[name])
    if unknown:
        raise ConfigError(f"solver {name!r}: unknown fields {unknown}")
    with _config_errors(f"solver {name!r}"):
        z0_scale = desc.get("z0_scale")
        if z0_scale is not None:
            require("z0_scale", z0_scale)
        if name == "eg":
            step = params.get("step_size", 0.5 / problem.l1)
            n_iters = params.get("n_iters", 200)
            check_extragradient(problem, step, n_iters)
            return z0_scale, (step, n_iters)
        config = SolverConfig(**{"mode": "strongly_monotone", **params}, rng_seed=seed)
        check_mode(problem, config)
        return z0_scale, config


def _parse_config(path: str, seed: int | None, threads: int) -> tuple[dict, list[RunSpec]]:
    """The config file, and its runs with every entry checked, once the
    command line's --seed and --threads are."""
    with _config_errors():
        if seed is not None:
            require("--seed", seed, lambda s: s >= 0, ">= 0", integer=True)
        require("--threads", threads, lambda t: t >= 1, ">= 1", integer=True)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(cfg.keys() - CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config fields {unknown}")
    for key in ("problems", "solvers"):
        if key not in cfg or not isinstance(cfg[key], list) or not cfg[key]:
            raise ConfigError(f"config field '{key}' must be a nonempty list")
        if not all(isinstance(entry, dict) for entry in cfg[key]):
            raise ConfigError(f"every entry of config field '{key}' must be a JSON object")
    reps = cfg.get("repetitions", 1)
    with _config_errors():
        require("repetitions", reps, lambda r: r >= 1, ">= 1", integer=True)

    problems: dict[str, Problem] = {}
    specs = []
    for pi, pdesc in enumerate(cfg["problems"]):
        problem = _problem(pdesc, problems)
        for si, sdesc in enumerate(cfg["solvers"]):
            name = sdesc.get("name", "qnpe")
            for rep in range(reps):
                run_seed = (seed if seed is not None else pdesc["seed"]) + rep
                z0_scale, solver = _parse_solver(sdesc, problem, run_seed)
                specs.append(RunSpec(
                    run_id=f"run_p{pi}_{name}{si}_rep{rep}",
                    problem_desc=pdesc,
                    solver_desc=sdesc,
                    problem=problem,
                    rep=rep,
                    seed=run_seed,
                    z0_scale=z0_scale,
                    solver=solver,
                ))
    return cfg, specs


def _execute_run(spec: RunSpec) -> dict:
    """One run's result; a run that raises carries the error in place of a
    trace, so that one bad run does not abort the batch."""
    problem, solver = spec.problem, spec.solver
    result = {
        "run_id": spec.run_id,
        "solver": "qnpe" if isinstance(solver, SolverConfig) else "eg",
        "rep": spec.rep,
        "seed": spec.seed,
        "problem": spec.problem_desc,
        "solver_desc": spec.solver_desc,
    }
    t0 = time.perf_counter()
    try:
        z0 = None
        if spec.z0_scale is not None:  # s * N(0, I), seeded from the run seed
            rng = np.random.default_rng([int(spec.seed), 0x5EED])
            z0 = spec.z0_scale * rng.standard_normal(problem.dim)
        if isinstance(solver, SolverConfig):
            _, _, trace = solve(problem, solver, z0=z0)
            report = verify_iteration_certificates(trace, problem, solver)
        else:
            _, _, trace = extragradient_baseline(problem, *solver, z0=z0)
            report = None
    except Exception as exc:  # solver-side failure of this run only
        return {**result, "error": type(exc).__name__, "message": str(exc),
                "traceback": traceback.format_exc()}
    return {**result, "trace": trace, "report": report, "wall_time": time.perf_counter() - t0}


def _write_run(out_dir: Path, result: dict) -> dict:
    trace: RunTrace = result["trace"]
    csv_path = out_dir / f"{result['run_id']}.csv"
    csv_path.write_text(trace_to_csv(trace))

    sidecar = {k: result[k] for k in ("run_id", "solver", "solver_desc", "rep", "seed", "problem")}
    sidecar["meta"] = trace.meta
    for k in POINT_FIELDS:
        z = getattr(trace, k)
        sidecar[k] = z.tolist() if z is not None else None
    sidecar.update((k, getattr(trace, k)) for k in TOTAL_FIELDS)
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


def _run_batch(cfg: dict, specs: list[RunSpec], out: Path,
               threads: int) -> tuple[int, list[dict]]:
    """Run the checked specs and write every output file; returns the exit
    code and the runs' results, failed ones included."""
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))

    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(_execute_run, specs))
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

    if not all_pass:
        print("certificate failure; see certificates.txt", file=sys.stderr)
    code = EXIT_SOLVER if failed else EXIT_OK if all_pass else EXIT_CERTIFICATE
    return code, results


def cmd_run(config_path: str, out_dir: str, seed: int | None, threads: int) -> int:
    try:
        cfg, specs = _parse_config(config_path, seed, threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _run_batch(cfg, specs, Path(out_dir), threads)[0]


def _sidecars(out: Path) -> list[Path]:
    """The completed runs' sidecars, without the failed runs' error files."""
    return sorted(p for p in out.glob("run_*.json") if not p.name.endswith(ERROR_SUFFIX))


def _read_run(path: Path, cache: dict[str, Problem]) -> tuple[
        RunTrace, Problem, SolverConfig | tuple[float, int]]:
    """A sidecar's run: its trace, with the sidecar's points and totals
    restored, its problem (built once per descriptor in `cache`) and its solver."""
    try:
        sidecar = json.loads(path.read_text())
        trace = trace_from_csv((path.parent / f"{sidecar['run_id']}.csv").read_text())
        for k in ("meta", "problem", "solver_desc"):
            if not isinstance(sidecar[k], dict):
                raise TypeError(f"field {k!r} must be a JSON object")
        trace.solver, trace.meta = sidecar["solver"], sidecar["meta"]
        for k in POINT_FIELDS:
            setattr(trace, k, None if sidecar[k] is None else np.array(sidecar[k], dtype=float))
        for k in TOTAL_FIELDS:
            setattr(trace, k, sidecar[k])
        problem = _problem(sidecar["problem"], cache)
        if any(getattr(trace, k) is not None and getattr(trace, k).shape != (problem.dim,)
               for k in POINT_FIELDS):
            raise ValueError(f"an iterate is not a vector of the problem's dimension {problem.dim}")
        _, solver = _parse_solver(sidecar["solver_desc"], problem, sidecar["seed"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"corrupt run data {path.name}: {exc}") from exc
    return trace, problem, solver


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
    if final <= eps:  # also a run that stopped at its start, with no rows
        return len(trace.rows), evals, matvecs
    return None, None, None


def cmd_compare(config_path: str, out_dir: str, seed: int | None, threads: int) -> int:
    try:
        cfg, specs = _parse_config(config_path, seed, threads)
        if len(cfg["solvers"]) < 2:
            raise ConfigError("compare needs at least 2 solvers")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir)
    code, results = _run_batch(cfg, specs, out, threads)
    csv_lines = ["run_id,solver,epsilon,iterations,operator_evals,matvecs"]
    txt_lines = [f"{'run':28s} {'solver':8s} {'eps':>8s} {'iters':>8s} {'evals':>8s} {'matvecs':>8s}"]
    # this batch's completed runs only, whatever else the directory holds
    for r in sorted((r for r in results if "error" not in r), key=lambda r: r["run_id"]):
        for eps in (1e-2, 1e-4, 1e-6):
            costs = _cost_to_accuracy(r["trace"], eps)  # (iterations, evals, matvecs)
            csv_lines.append(f"{r['run_id']},{r['solver']},{eps:g},"
                             + ",".join("" if c is None else str(c) for c in costs))
            txt_lines.append(f"{r['run_id']:28s} {r['solver']:8s} {eps:>8g} "
                             + " ".join(f"{'-' if c is None else c:>8}" for c in costs))
    (out / "compare.csv").write_text("\n".join(csv_lines) + "\n")
    (out / "compare.txt").write_text("\n".join(txt_lines) + "\n")
    return code


def cmd_verify(trace_dir: str) -> int:
    sidecars = _sidecars(Path(trace_dir))
    if not sidecars:
        print(f"no run sidecars found in {trace_dir}", file=sys.stderr)
        return EXIT_CONFIG

    any_fail = False
    problems: dict[str, Problem] = {}  # one build per distinct descriptor
    for path in sidecars:
        try:
            trace, problem, solver = _read_run(path, problems)
        except ConfigError as exc:
            print(exc, file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(solver, SolverConfig):
            continue  # an EG run has no certificates
        report = verify_iteration_certificates(trace, problem, solver)
        for line in report.lines():
            print(f"{path.stem}: {line}")
        any_fail = any_fail or not report.all_passed
    return EXIT_CERTIFICATE if any_fail else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="qnpe", description="QNPE benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "run configured experiments"),
                            ("compare", "compare solvers at target accuracies")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1)
    p_ver = sub.add_parser("verify", help="re-check certificates from a run directory")
    p_ver.add_argument("trace_dir")

    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args.trace_dir)
    command = cmd_run if args.command == "run" else cmd_compare
    return command(args.config, args.out, args.seed, args.threads)


if __name__ == "__main__":
    sys.exit(main())
