import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from grasppr import bench_io
from grasppr.cli import main

K3 = "3 3\n1 2 1\n2 3 1\n1 3 1\n"
LOP4 = "t\n4\n0 3 9 1\n2 0 4 0\n5 1 0 2\n0 8 3 0\n"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def k3_path(tmp_path):
    path = tmp_path / "k3.el"
    path.write_text(K3)
    return str(path)


@pytest.fixture
def lop_path(tmp_path):
    path = tmp_path / "toy.mat"
    path.write_text(LOP4)
    return str(path)


def _run_experiments(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def _solve(args, capsys):
    code = main(["solve", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_summary_format(k3_path, capsys):
    code, out, _ = _solve(["--problem", "maxcut", "--instance", k3_path, "--iters", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "instance=k3 problem=maxcut variant=grasp seed=1 best=2 iterations=5 restarts=0"
    assert lines[1].startswith("elapsed_s=") and len(lines[1].split(".")[-1]) == 3


def test_solve_first_line_deterministic(lop_path, capsys):
    args = ["--problem", "lop", "--instance", lop_path, "--iters", "20", "--seed", "7"]
    _, out_a, _ = _solve(args, capsys)
    _, out_b, _ = _solve(args, capsys)
    assert out_a.splitlines()[0] == out_b.splitlines()[0]


def test_solve_evolutionary_with_time_budget(k3_path, capsys):
    code, out, _ = _solve(
        ["--problem", "maxcut", "--instance", k3_path, "--variant", "evolutionary_pr", "--time", "0.3"],
        capsys,
    )
    assert code == 0
    assert "variant=evolutionary_pr" in out and "best=2" in out


def test_solve_writes_solution_file(lop_path, k3_path, tmp_path, capsys):
    out_file = tmp_path / "best.txt"
    code, _, _ = _solve(
        ["--problem", "lop", "--instance", lop_path, "--iters", "5", "--out", str(out_file)], capsys
    )
    assert code == 0
    order = out_file.read_text()
    assert order.endswith("\n") and sorted(order.split()) == ["0", "1", "2", "3"]
    code, _, _ = _solve(
        ["--problem", "maxcut", "--instance", k3_path, "--iters", "5", "--out", str(out_file)], capsys
    )
    assert code == 0
    bits = out_file.read_text().strip()
    assert len(bits) == 3 and set(bits) <= {"0", "1"}


def test_solve_profile_writes_trajectory(k3_path, tmp_path, capsys):
    prof = tmp_path / "prof.csv"
    args = ["--problem", "maxcut", "--instance", k3_path, "--iters", "5", "--profile", str(prof)]
    assert main(["profile", *args]) == 64  # no such subcommand
    capsys.readouterr()
    assert not prof.exists()
    code, out, _ = _solve(args, capsys)
    assert code == 0
    lines = prof.read_text().splitlines()
    assert lines[0] == "elapsed_s,objective"
    objs = [int(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs)
    assert objs[:-1] == sorted(set(objs[:-1]))  # one row per strict improvement
    assert f"best={objs[-1]}" in out


def test_validate_lop(lop_path, capsys):
    code = main(["validate", "--problem", "lop", "--instance", lop_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "lop n=4 entries=16 wmin=0 wmax=9\n"


def test_validate_maxcut(k3_path, capsys):
    code = main(["validate", "--problem", "maxcut", "--instance", k3_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "maxcut n=3 edges=3 wmin=1 wmax=1\n"


def test_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("t\n1\n0\n")
    code = main(["validate", "--problem", "lop", "--instance", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and str(bad) in err
    code, _, _ = _solve(["--problem", "lop", "--instance", str(bad), "--iters", "1"], capsys)
    assert code == 2


def test_superscript_digit_exits_2(tmp_path, capsys):
    bad = tmp_path / "sup.mat"
    bad.write_text("x\n2\n1 \u00b2 3 4\n")
    code = main(["validate", "--problem", "lop", "--instance", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 3, col 3: matrix entry is not an integer" in err


def test_non_utf8_instance_exits_2(tmp_path, capsys):
    # read as UTF-8 whatever the locale: the bad byte is a parse error at its line
    bad = tmp_path / "bad.el"
    bad.write_bytes(b"3 1\n1 2 \xff\n")
    code = main(["validate", "--problem", "maxcut", "--instance", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{bad}: line 2, col 5: not UTF-8: byte 0xff" in err


def test_missing_instance_exits_74(tmp_path, capsys):
    code, _, err = _solve(
        ["--problem", "lop", "--instance", str(tmp_path / "nope.mat"), "--iters", "1"], capsys
    )
    assert code == 74 and "error:" in err


def test_usage_errors_exit_64(k3_path, capsys):
    # no stopping rule
    code, _, err = _solve(["--problem", "maxcut", "--instance", k3_path], capsys)
    assert code == 64 and "stopping rule" in err
    # unknown flag
    assert main(["solve", "--problem", "maxcut", "--instance", k3_path, "--fast"]) == 64
    capsys.readouterr()
    # bad option value
    code, _, err = _solve(
        ["--problem", "maxcut", "--instance", k3_path, "--iters", "1", "--direction", "up"], capsys
    )
    assert code == 64 and "direction" in err
    # a number with a digit separator
    code, _, err = _solve(["--problem", "maxcut", "--instance", k3_path, "--iters", "1_0"], capsys)
    assert code == 64 and "iters: expected an integer, got '1_0'" in err
    # a time limit that never expires
    for budget in ("nan", "inf"):
        code, _, err = _solve(["--problem", "maxcut", "--instance", k3_path, "--time", budget], capsys)
        assert code == 64 and "time_limit must be finite" in err
    # restarts with a variant that has no dynamic loop
    code, _, err = _solve(["--problem", "maxcut", "--instance", k3_path, "--iters", "1", "--kappa", "2"], capsys)
    assert code == 64 and "restart_kappa applies only to dynamic_pr and evolutionary_pr" in err
    # bad subcommand / no subcommand
    assert main(["conquer"]) == 64
    capsys.readouterr()
    assert main([]) == 64
    capsys.readouterr()


def test_help_enumerates_options(capsys):
    code = main(["solve", "--help"])
    out = capsys.readouterr().out
    assert code == 0
    for flag in (
        "--problem", "--instance", "--seed", "--time", "--iters", "--config",
        "--variant", "--direction", "--step", "--rcl-size", "--trunc", "--min-dist",
        "--inpath-ls", "--depth", "--alpha-min", "--alpha-max", "--rcl-mode",
        "--elite-k", "--dth", "--guide", "--kappa", "--static-sample", "--out", "--profile",
    ):
        assert flag in out
    assert "default grasp" in out and "default 3" in out and "default best" in out


def test_config_file_defaults_and_flag_precedence(lop_path, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# defaults\niters=2\nseed=5\nelite-k=4\n")
    code, out, _ = _solve(["--problem", "lop", "--instance", lop_path, "--config", str(config)], capsys)
    assert code == 0
    assert "iterations=2" in out and "seed=5" in out
    code, out, _ = _solve(
        ["--problem", "lop", "--instance", lop_path, "--config", str(config), "--iters", "6"], capsys
    )
    assert code == 0
    assert "iterations=6" in out and "seed=5" in out  # flag wins, config fills the rest


def test_config_file_rejects_unknown_keys(lop_path, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("banana=1\n")
    code, _, err = _solve(
        ["--problem", "lop", "--instance", lop_path, "--iters", "1", "--config", str(config)], capsys
    )
    assert code == 64 and "banana" in err
    config.write_text("elite-k\n")
    code, _, err = _solve(
        ["--problem", "lop", "--instance", lop_path, "--iters", "1", "--config", str(config)], capsys
    )
    assert code == 64 and "key=value" in err


def test_config_file_holds_only_its_own_commands_keys(lop_path, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seeds = 5,6\n")
    code, _, err = _solve(
        ["--problem", "lop", "--instance", lop_path, "--iters", "1", "--config", str(config)], capsys
    )
    assert code == 64 and "unknown key 'seeds'" in err
    config.write_text("seed = 5\n")
    code = main([
        "bench", "--problem", "lop", "--instances", str(_write_bench_dir(tmp_path)), "--method", "grasp",
        "--iters", "1", "--config", str(config), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 64 and "unknown key 'seed'" in err
    assert not (tmp_path / "o").exists()


def test_non_utf8_config_file_exits_64(lop_path, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"iters = 3\r\nseed = \xe9\n")
    code, _, err = _solve(["--problem", "lop", "--instance", lop_path, "--config", str(config)], capsys)
    assert code == 64
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{config}: line 2, col 8: not UTF-8: byte 0xe9" in err


def test_repeated_keys_exit_64(lop_path, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("iters = 3\niters = 7\n")
    code, _, err = _solve(["--problem", "lop", "--instance", lop_path, "--config", str(config)], capsys)
    assert code == 64 and "repeated key 'iters'" in err
    code = main([
        "bench", "--problem", "lop", "--instances", str(_write_bench_dir(tmp_path)),
        "--method", "grasp:elite-k=2:elite-k=3", "--iters", "1", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 64 and "repeated key 'elite-k'" in err
    assert not (tmp_path / "o").exists()


def test_method_spec_value_may_hold_colons(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    base = ["bench", "--problem", "lop", "--instances", str(inst_dir), "--seeds", "1,2", "--iters", "4"]
    runs = {
        "spec": ["--method", "dynamic_pr:inpath-ls=every:3"],
        "flag": ["--inpath-ls", "every:3", "--method", "dynamic_pr"],
    }
    results = {}
    for name, extra in runs.items():
        assert main([*base, *extra, "--out", str(tmp_path / name)]) == 0, name
        rows = [line.split(",") for line in (tmp_path / name / "results.csv").read_text().splitlines()[1:]]
        results[name] = sorted((r[1], r[2], r[3], r[4]) for r in rows)  # instance, seed, best, iterations
    capsys.readouterr()
    assert len(results["spec"]) == 2 * 2
    assert results["spec"] == results["flag"]


def _write_bench_dir(tmp_path):
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    (inst_dir / "a.mat").write_text(LOP4)
    (inst_dir / "b.mat").write_text("u\n3\n0 7 2\n1 0 5\n4 2 0\n")
    return inst_dir


def _mask_elapsed(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    for row in rows[1:]:
        row[5] = "X"
    return rows


def test_bench_end_to_end_and_determinism(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    base = [
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "grasp", "--method", "grasp:depth=best",
        "--seeds", "1,2", "--iters", "3",
    ]
    code = main([*base, "--out", str(tmp_path / "run1")])
    out = capsys.readouterr().out
    assert code == 0
    assert "method,#Best,%Dev,#Best_k,%Dev_k" in out
    assert "wrote" in out
    results = (tmp_path / "run1" / "results.csv").read_text()
    lines = results.splitlines()
    assert lines[0] == "method,instance,seed,best_objective,iterations,elapsed_s,restarts"
    assert len(lines) == 1 + 2 * 2 * 2
    labels = {line.split(",")[0] for line in lines[1:]}
    assert labels == {"grasp", "grasp:depth=best"}  # raw specs are the labels
    stats = (tmp_path / "run1" / "stats.csv").read_text().splitlines()
    assert stats[0] == "method,#Best,%Dev,#Best_k,%Dev_k"
    assert len(stats) == 3
    # identical config under both labels: both methods win both instances
    for line in stats[1:]:
        method, best, dev, best_k, dev_k = line.split(",")
        assert (best, dev, best_k, dev_k) == ("2", "0.000", "NA", "NA")

    code = main([*base, "--out", str(tmp_path / "run2")])
    capsys.readouterr()
    assert code == 0
    rerun = (tmp_path / "run2" / "results.csv").read_text()
    assert _mask_elapsed(results) == _mask_elapsed(rerun)


def test_bench_parallel_jobs_match(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    base = [
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "dynamic_pr:elite-k=3", "--seeds", "1,2,3", "--iters", "4",
    ]
    assert main([*base, "--out", str(tmp_path / "seq"), "--jobs", "1"]) == 0
    assert main([*base, "--out", str(tmp_path / "par"), "--jobs", "4"]) == 0
    capsys.readouterr()
    seq = (tmp_path / "seq" / "results.csv").read_text()
    par = (tmp_path / "par" / "results.csv").read_text()
    assert _mask_elapsed(seq) == _mask_elapsed(par)


def test_bench_parses_each_file_once_per_grid(tmp_path, capsys):
    # cells run instance by instance, so a worker's one-entry parse cache holds
    # across methods: each toy is parsed once to validate it and once in the grid
    with mock.patch.object(bench_io, "load_instance", wraps=bench_io.load_instance) as load:
        code = main([
            "bench", "--problem", "maxcut", "--instances", str(ROOT / "instances" / "toy"),
            "--method", "grasp", "--method", "semigreedy", "--seeds", "1,2", "--iters", "2", "--jobs", "1",
            "--out", str(tmp_path / "o"),
        ])
    capsys.readouterr()
    assert code == 0
    assert load.call_count == 8  # 4 toys


def test_bench_out_that_is_a_file_fails_before_any_cell(tmp_path, capsys):
    out = tmp_path / "o"
    out.write_text("not a directory\n")
    with mock.patch.object(bench_io, "run_grid") as run_grid:
        code = main([
            "bench", "--problem", "maxcut", "--instances", str(ROOT / "instances" / "toy"),
            "--method", "grasp", "--iters", "2", "--out", str(out),
        ])
    err = capsys.readouterr().err
    assert code == 74 and err.startswith("error:")
    run_grid.assert_not_called()
    assert out.read_text() == "not a directory\n"


def test_bench_best_known_column(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    best_known = tmp_path / "best.csv"
    best_known.write_text("instance,value\na,14\nb,14\n")
    code = main([
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "grasp", "--seeds", "1", "--iters", "5",
        "--best-known", str(best_known), "--out", str(tmp_path / "bk"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    stats = (tmp_path / "bk" / "stats.csv").read_text().splitlines()
    method, best, dev, best_k, dev_k = stats[1].split(",")
    assert best_k != "NA" and dev_k != "NA"
    assert "wrote" in out


def test_bench_rejects_duplicate_method_labels(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    code = main([
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "grasp", "--method", "grasp",
        "--iters", "1", "--out", str(tmp_path / "dup"),
    ])
    err = capsys.readouterr().err
    assert code == 64 and "duplicate" in err


def test_bench_rejects_duplicate_seeds(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    for seeds in ("1,1", "2,1,02"):
        code = main([
            "bench", "--problem", "lop", "--instances", str(inst_dir),
            "--method", "grasp", "--seeds", seeds, "--iters", "1", "--out", str(tmp_path / "dup"),
        ])
        err = capsys.readouterr().err
        assert code == 64 and "duplicate seeds" in err
        assert not (tmp_path / "dup").exists()


def test_seeds_outside_u64_are_usage_errors(tmp_path, lop_path, capsys):
    # 2^64 + 1 and -(2^64 - 1) would run seed 1's stream
    inst_dir = _write_bench_dir(tmp_path)
    for seeds in ("1,18446744073709551617", "-1"):
        code = main([
            "bench", "--problem", "lop", "--instances", str(inst_dir),
            "--method", "grasp", "--seeds", seeds, "--iters", "1", "--out", str(tmp_path / "wide"),
        ])
        err = capsys.readouterr().err
        assert code == 64 and "0..2^64-1" in err
        assert not (tmp_path / "wide").exists()
    args = ["--problem", "lop", "--instance", lop_path, "--iters", "1", "--seed=-18446744073709551615"]
    code, out, err = _solve(args, capsys)
    assert code == 64 and out == "" and "0..2^64-1" in err
    result = _run_experiments("--seeds", "1,18446744073709551617", "--out", str(tmp_path / "exp"))
    assert result.returncode == 2 and result.stderr.startswith("usage:") and "0..2^64-1" in result.stderr
    assert not (tmp_path / "exp").exists()


def test_bench_rejects_bad_method_specs(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    base = [
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--iters", "1", "--out", str(tmp_path / "bad"),
    ]
    for spec, fragment in (
        ("grasp:depth", "key=value"),
        ("warp", "variant"),
        ("grasp:warmth=1", "warmth"),
        (":depth=best", "empty variant"),
    ):
        code = main([*base, "--method", spec])
        err = capsys.readouterr().err
        assert code == 64, spec
        assert fragment in err
    # a baseline kappa fails on the first method it does not apply to, before any cell runs
    code = main([*base, "--kappa", "3", "--method", "dynamic_pr", "--method", "grasp"])
    err = capsys.readouterr().err
    assert code == 64 and "method 'grasp': restart_kappa applies only to" in err
    assert not (tmp_path / "bad").exists()


def test_bench_empty_instance_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    code = main([
        "bench", "--problem", "lop", "--instances", str(empty),
        "--method", "grasp", "--iters", "1", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 64 and "no instances" in err


def test_bench_missing_best_known_file(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    code = main([
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "grasp", "--iters", "1",
        "--best-known", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o"),
    ])
    capsys.readouterr()
    assert code == 74


def test_bench_non_utf8_best_known_file_exits_2(tmp_path, capsys):
    inst_dir = _write_bench_dir(tmp_path)
    best_known = tmp_path / "best.csv"
    best_known.write_bytes(b"instance,value\na,14\nb,\x8014\n")
    code = main([
        "bench", "--problem", "lop", "--instances", str(inst_dir),
        "--method", "grasp", "--iters", "1",
        "--best-known", str(best_known), "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "line 3, col 3: not UTF-8: byte 0x80" in err
    assert not (tmp_path / "o").exists()


def test_bench_parse_error_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    # every instance file is parsed before the grid, so a malformed one after a
    # good one is a parse error (exit 2) at its line and column, with no cell run
    inst_dir = tmp_path / "graphs"
    inst_dir.mkdir()
    (inst_dir / "a.el").write_text(K3)
    (inst_dir / "b.el").write_text("3 2\n1 2 1\n2 x 1\n")
    monkeypatch.setattr(bench_io, "run_cell", lambda spec: pytest.fail(f"cell ran: {spec}"))
    code = main([
        "bench", "--problem", "maxcut", "--instances", str(inst_dir),
        "--method", "grasp", "--iters", "1", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and f"{inst_dir / 'b.el'}: line 3, col 3: " in err
    assert not (tmp_path / "o" / "results.csv").exists()


def test_bench_failed_cell_keeps_the_other_rows(tmp_path, capsys, monkeypatch):
    inst_dir = _write_bench_dir(tmp_path)
    out = tmp_path / "o"
    base = ["bench", "--problem", "lop", "--instances", str(inst_dir), "--method", "grasp",
            "--seeds", "1,2", "--iters", "2", "--out", str(out)]
    assert main(base) == 0
    complete = _mask_elapsed((out / "results.csv").read_text())
    real_run = bench_io.run

    def crash_on_seed_2(instance, cfg):
        if cfg.seed == 2 and instance.n == 4:
            raise RuntimeError("injected crash")
        return real_run(instance, cfg)

    monkeypatch.setattr(bench_io, "run", crash_on_seed_2)
    capsys.readouterr()
    code = main(base)
    err = capsys.readouterr().err
    assert code == 1 and "1 of 4 cells failed" in err and "instance=a seed=2" in err
    assert _mask_elapsed((out / "results.csv").read_text()) == [row for row in complete if row[1:3] != ["a", "2"]]
    assert (out / "failures.csv").read_text() == "method,instance,seed,message\ngrasp,a,2,injected crash\n"
    assert not (out / "stats.csv").exists()  # the earlier run's table is gone too
    monkeypatch.setattr(bench_io, "run", real_run)
    assert main(base) == 0
    assert (out / "stats.csv").exists() and not (out / "failures.csv").exists()


def test_an_experiment_is_the_cli(tmp_path, capsys):
    result = _run_experiments("--only", "1", "--iters", "2", "--seeds", "1", "--jobs", "1", "--out", str(tmp_path / "exp"))
    assert result.returncode == 0, result.stderr
    for problem in ("lop", "maxcut"):
        slug = f"exp1_construction_{problem}"
        code = main([
            "bench", "--problem", problem, "--instances", str(ROOT / "instances" / "toy"),
            "--method", "semigreedy:rcl-mode=value", "--method", "semigreedy:rcl-mode=card",
            "--seeds", "1", "--iters", "2", "--jobs", "1", "--out", str(tmp_path / "direct" / slug),
        ])
        assert code == 0
        exp, direct = tmp_path / "exp" / slug, tmp_path / "direct" / slug
        assert (exp / "stats.csv").read_bytes() == (direct / "stats.csv").read_bytes()
        assert _mask_elapsed((exp / "results.csv").read_text()) == _mask_elapsed((direct / "results.csv").read_text())
    capsys.readouterr()
    result = _run_experiments("--only", "7", "--seeds", "1", "--profile-time", "0.05", "--out", str(tmp_path / "exp"))
    assert result.returncode == 0, result.stderr
    profiles = sorted((tmp_path / "exp" / "exp7_profiles").glob("*.csv"))
    assert len(profiles) == 6
    assert all(p.read_text().splitlines()[0] == "elapsed_s,objective" for p in profiles)
