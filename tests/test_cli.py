"""End-to-end CLI behaviour: exit codes, output layout, verification, and the
comparison report."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qnpe.cli import SOLVER_FIELDS

QNPE = [sys.executable, "-c", "import sys; from qnpe.cli import main; sys.exit(main())"]


def run_cli(*args, **kw):
    return subprocess.run(QNPE + list(args), capture_output=True, text=True, **kw)


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


BASIC = {
    "problems": [{"family": "quadratic_min", "d": 8, "mu": 0.2, "l1": 1.0, "seed": 3}],
    "solvers": [
        {"name": "qnpe", "mode": "strongly_monotone", "max_iterations": 400,
         "z0_scale": 1.0},
    ],
    "repetitions": 2,
}


def test_run_happy_path(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASIC)
    out = tmp_path / "out"
    proc = run_cli("run", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "config.json").is_file()
    assert (out / "summary.json").is_file()
    assert (out / "certificates.txt").is_file()
    csvs = sorted(out.glob("run_*.csv"))
    sidecars = sorted(out.glob("run_*.json"))
    assert len(csvs) == 2 and len(sidecars) == 2
    assert csvs[0].read_text().startswith("# qnpe-trace-v1\n")
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 2
    assert all(s["certificates_passed"] for s in summary)
    assert all(s["final_norm_F"] <= 1e-9 for s in summary)
    # repetitions derive distinct seeds, so the traces differ
    assert csvs[0].read_text() != csvs[1].read_text()


def test_run_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", str(bad), "--out", str(tmp_path / "o")).returncode == 2
    cfg = write_config(tmp_path / "empty.json", {"problems": [], "solvers": []})
    assert run_cli("run", cfg, "--out", str(tmp_path / "o2")).returncode == 2


def test_run_mode_mismatch_exits_2(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "problems": [{"family": "bilinear_minimax", "m": 3, "n": 3, "mu": 0.0,
                          "l1": 1.0, "seed": 0}],
            "solvers": [{"name": "qnpe", "mode": "strongly_monotone"}],
        },
    )
    proc = run_cli("run", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "strongly_monotone" in proc.stderr


def test_run_out_of_range_constant_exits_2(tmp_path):
    cfg = dict(BASIC, solvers=[dict(BASIC["solvers"][0], alpha2=0.7)])
    path = write_config(tmp_path / "cfg.json", cfg)
    proc = run_cli("run", path, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "alpha2" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_readme_lists_the_qnpe_solver_fields():
    """README's list of the fields a qnpe solver entry accepts is the CLI's."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"accepting the `SolverConfig` fields ([^)]*)\)", readme)
    assert listed is not None
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == SOLVER_FIELDS["qnpe"]


QNPE_ENTRY = {"name": "qnpe", "mode": "strongly_monotone"}


@pytest.mark.parametrize("fields, message", [
    ({"solvers": [{"name": "eg", "step_size": 2.0, "n_iters": 20}]}, "step_size"),  # l1 = 1
    ({"solvers": [dict(QNPE_ENTRY, max_backtracks=0)]}, "max_backtracks"),
    ({"solvers": [dict(QNPE_ENTRY, rho=-1)]}, "rho"),
    ({"solvers": [dict(QNPE_ENTRY, radius=4.0)]}, "radius"),  # the clip radius is sqrt(dim)
    ({"solvers": [dict(QNPE_ENTRY, max_iterations="10")]}, "max_iterations"),
    ({"solvers": [dict(QNPE_ENTRY, max_iterations=2.5)]}, "max_iterations"),
    ({"solvers": [dict(QNPE_ENTRY, max_backtracks=2.5)]}, "max_backtracks"),
    ({"solvers": [dict(QNPE_ENTRY, stop_tolerance="x")]}, "stop_tolerance"),
    ({"solvers": [dict(QNPE_ENTRY, sigma0=1.0)]}, "sigma0"),  # the first trial step is the floor
    ({"solvers": [dict(QNPE_ENTRY, alpha1=0.25)]}, "alpha1"),  # fixed by the theory
    ({"solvers": [dict(QNPE_ENTRY, p=0.1)]}, "'p'"),  # fixed by the theory
    ({"solvers": [dict(QNPE_ENTRY, max_iteration=3)]}, "max_iteration"),
    ({"problems": [dict(BASIC["problems"][0], mu_=0.5)]}, "mu_"),
    ({"repetitions": True}, "repetitions"),
], ids=["eg_step_size", "qnpe_max_backtracks", "qnpe_negative_rho",
        "qnpe_radius_unknown_field", "qnpe_string_max_iterations", "qnpe_fractional_max_iterations",
        "qnpe_fractional_max_backtracks", "qnpe_string_stop_tolerance", "qnpe_sigma0",
        "qnpe_alpha1", "qnpe_p",
        "qnpe_misspelt_field", "misspelt_problem_field", "boolean_repetitions"])
def test_run_invalid_solver_field_exits_2_and_writes_nothing(tmp_path, fields, message):
    path = write_config(tmp_path / "cfg.json", dict(BASIC, **fields))
    proc = run_cli("run", path, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: ") and message in proc.stderr
    assert not (tmp_path / "o").exists()


def test_failed_run_leaves_the_rest_of_the_batch(tmp_path):
    failing = {"name": "qnpe", "mode": "strongly_monotone",
               "z0_scale": 1e308}  # ||F(z0)|| overflows
    cfg = dict(BASIC, solvers=[BASIC["solvers"][0], failing,
                               {"name": "eg", "step_size": 0.5, "n_iters": 20}])
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    proc = run_cli("run", path, "--out", str(out))
    assert proc.returncode == 4
    errors = sorted(out.glob("run_*.error.json"))
    assert [p.name for p in errors] == [f"run_p0_qnpe1_rep{r}.error.json" for r in range(2)]
    error = json.loads(errors[0].read_text())
    assert error["error"] == "SolverError"
    assert error["message"].startswith("iteration 0, driver: ")
    assert "at the base point" in error["message"] and "SolverError" in error["traceback"]
    assert error["run_id"] in proc.stderr
    completed = sorted(f"run_p0_{s}_rep{r}" for s in ("qnpe0", "eg2") for r in range(2))
    assert sorted(p.stem for p in out.glob("run_*.csv")) == completed
    for run_id in completed:
        assert (out / f"{run_id}.json").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(s["run_id"] for s in summary) == completed
    assert run_cli("verify", str(out)).returncode == 0  # the error files are not sidecars
    proc = run_cli("compare", path, "--out", str(tmp_path / "cmp"))
    assert proc.returncode == 4
    compared = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()[1:]
    assert sorted({r.split(",")[0] for r in compared}) == completed


@pytest.mark.parametrize("scale", ["big", True, float("inf"), float("nan"), [1.0]],
                         ids=["string", "bool", "inf", "nan", "list"])
def test_run_bad_z0_scale_exits_2_and_writes_nothing(tmp_path, capsys, scale):
    import qnpe.cli

    bad = dict(BASIC["solvers"][0], z0_scale=scale)
    path = tmp_path / "cfg.json"  # json.dumps writes inf and nan as Infinity and NaN
    path.write_text(json.dumps(dict(BASIC, solvers=[BASIC["solvers"][0], bad])))
    out = tmp_path / "out"
    assert qnpe.cli.cmd_run(str(path), str(out), None, 1) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "z0_scale" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["problems", "solvers"])
def test_run_non_object_entry_exits_2_and_writes_nothing(tmp_path, capsys, key):
    import qnpe.cli

    cfg = write_config(tmp_path / "cfg.json", dict(BASIC, **{key: [[1]]}))
    out = tmp_path / "out"
    assert qnpe.cli.cmd_run(cfg, str(out), None, 1) == 2
    assert f"config error: every entry of config field '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_run_unknown_solver_exits_2(tmp_path):
    cfg = dict(BASIC, solvers=[{"name": "newton"}])
    path = write_config(tmp_path / "cfg.json", cfg)
    assert run_cli("run", path, "--out", str(tmp_path / "o")).returncode == 2


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", dict(BASIC, repetitions=1))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", cfg, "--out", str(out_a), "--seed", "1").returncode == 0
    assert run_cli("run", cfg, "--out", str(out_b), "--seed", "2").returncode == 0
    a = next(out_a.glob("run_*.csv")).read_text()
    b = next(out_b.glob("run_*.csv")).read_text()
    assert a != b


def test_threads_match_serial(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASIC)
    out_s, out_t = tmp_path / "serial", tmp_path / "threaded"
    assert run_cli("run", cfg, "--out", str(out_s)).returncode == 0
    assert run_cli("run", cfg, "--out", str(out_t), "--threads", "4").returncode == 0
    for p in sorted(out_s.glob("run_*.csv")):
        assert p.read_text() == (out_t / p.name).read_text()


def test_verify_round_trip_and_tampering(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", BASIC)
    out = tmp_path / "out"
    assert run_cli("run", cfg, "--out", str(out)).returncode == 0
    proc = run_cli("verify", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout and "FAIL" not in proc.stdout

    # halve one recorded step size below the floor: verification must fail
    csv_path = sorted(out.glob("run_*.csv"))[0]
    lines = csv_path.read_text().splitlines()
    parts = lines[2].split(",")
    parts[1] = repr(float(parts[1]) * 1e-6)
    lines[2] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    assert run_cli("verify", str(out)).returncode == 3


def test_verify_empty_dir_exits_2(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert run_cli("verify", str(empty)).returncode == 2
    assert run_cli("verify", str(tmp_path / "missing")).returncode == 2


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda sc: {k: v for k, v in sc.items() if k != "meta"},
        lambda sc: list(sc.values()),
        lambda sc: {**sc, "problem": [1]},
        lambda sc: {**sc, "solver_desc": [1]},
        lambda sc: {**sc, "meta": [1]},
        lambda sc: {**sc, "z_final": ["a"]},
        lambda sc: {**sc, "z_final": sc["z_final"][1:]},
    ],
    ids=["without-meta", "a-list", "problem-not-an-object", "solver_desc-not-an-object",
         "meta-not-an-object", "z_final-not-numbers", "z_final-wrong-length"],
)
def test_verify_reports_a_malformed_sidecar_as_corrupt_run_data(tmp_path, capsys, corrupt):
    import qnpe.cli

    cfg = write_config(tmp_path / "cfg.json", dict(BASIC, repetitions=1))
    out = tmp_path / "out"
    assert qnpe.cli.cmd_run(cfg, str(out), None, 1) == 0
    (path,) = out.glob("run_*.json")
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    assert qnpe.cli.cmd_verify(str(out)) == 2
    assert "corrupt run data" in capsys.readouterr().err


def test_compare_produces_report(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        {
            "problems": [{"family": "quadratic_min", "d": 20, "mu": 0.1, "l1": 1.0,
                          "seed": 5}],
            "solvers": [
                {"name": "qnpe", "mode": "strongly_monotone", "max_iterations": 300,
                 "stop_tolerance": 1e-12, "z0_scale": 2.0},
                {"name": "eg", "step_size": 0.5, "n_iters": 800, "z0_scale": 2.0},
            ],
            "repetitions": 1,
        },
    )
    out = tmp_path / "cmp"
    proc = run_cli("compare", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "compare.csv").is_file()
    assert (out / "compare.txt").is_file()
    text = (out / "compare.csv").read_text()
    assert "1e-06" in text or "1e-6" in text
    # EG reaches every target with no matvecs: 0 is shown as 0, not as the
    # '-' that means "not reached"
    eg_rows = [ln.split() for ln in (out / "compare.txt").read_text().splitlines()[1:]
               if ln.split()[1] == "eg"]
    assert len(eg_rows) == 3 and all(r[-1] == "0" for r in eg_rows)
    # reaching z_k costs the evaluations of iterations 0..k-1: two each for EG
    assert ["101", "202"] in [r[3:5] for r in eg_rows]
    assert all(int(r[4]) == 2 * int(r[3]) for r in eg_rows)


def test_compare_reports_only_its_own_batch(tmp_path):
    """A directory reused across commands: compare tabulates the runs of its
    own config, not the sidecars an earlier run left there."""
    problem = {"family": "quadratic_min", "d": 6, "mu": 0.2, "l1": 1.0}
    solvers = [{"name": "qnpe", "mode": "strongly_monotone", "max_iterations": 30},
               {"name": "eg", "step_size": 0.5, "n_iters": 30}]
    out = tmp_path / "st"
    earlier = write_config(tmp_path / "earlier.json", {
        "problems": [dict(problem, seed=1), dict(problem, seed=2)],
        "solvers": solvers, "repetitions": 2})
    assert run_cli("run", earlier, "--out", str(out)).returncode == 0
    assert len(list(out.glob("run_*.json"))) == 8
    cfg = write_config(tmp_path / "cfg.json", {"problems": [dict(problem, seed=1)],
                                               "solvers": solvers, "repetitions": 1})
    proc = run_cli("compare", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert [s["run_id"] for s in summary] == ["run_p0_qnpe0_rep0", "run_p0_eg1_rep0"]
    rows = [ln.split(",") for ln in (out / "compare.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[1]) for r in rows[::3]] == [("run_p0_eg1_rep0", "eg"),
                                                 ("run_p0_qnpe0_rep0", "qnpe")]
    assert len(rows) == 6


def test_compare_counts_a_run_that_starts_at_a_root(tmp_path):
    """z0 = z* = 0: qnpe stops before iteration 0 and records no rows, yet it
    has reached every target at no cost, as EG from the same start has."""
    cfg = write_config(tmp_path / "cfg.json", {
        "problems": [{"family": "bilinear_minimax", "m": 4, "n": 4, "mu": 0.0, "l1": 1.0,
                      "seed": 2}],
        "solvers": [{"name": "qnpe", "mode": "monotone", "z0_scale": 0.0},
                    {"name": "eg", "step_size": 0.5, "n_iters": 5, "z0_scale": 0.0}],
        "repetitions": 1})
    out = tmp_path / "cmp"
    proc = run_cli("compare", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "summary.json").read_text())[0]["iterations"] == 0
    rows = [ln.split() for ln in (out / "compare.txt").read_text().splitlines()[1:]]
    assert {r[1] for r in rows} == {"qnpe", "eg"} and len(rows) == 6
    assert all(r[3:] == ["0", "0", "0"] for r in rows)


def test_problems_built_once_per_descriptor(tmp_path, monkeypatch):
    import qnpe.cli

    calls = []
    build = qnpe.cli.problem_from_descriptor
    monkeypatch.setattr(qnpe.cli, "problem_from_descriptor",
                        lambda desc: calls.append(desc) or build(desc))
    cfg = dict(BASIC, solvers=[
        {"name": "qnpe", "mode": "strongly_monotone", "max_iterations": 20},
        {"name": "eg", "step_size": 0.5, "n_iters": 20},
    ])
    path = write_config(tmp_path / "cfg.json", cfg)
    assert qnpe.cli.cmd_run(path, str(tmp_path / "o"), None, 1) == 0
    assert len(calls) == 1  # P=1 problem, S=2 solvers, R=2 repetitions
    calls.clear()
    assert qnpe.cli.cmd_verify(str(tmp_path / "o")) == 0
    assert len(calls) == 1
