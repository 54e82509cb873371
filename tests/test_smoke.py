"""End-to-end runs of the paths no benchmark workload or experiment reaches.

Stagnation restarts, greedy construction, back-and-forward walks, a diversity
threshold while the pool fills, pdelta guides and a best-known file run through
`grasppr bench`; values that only the instance constructors refuse through
`grasppr validate`. The console module (`python -m grasppr`) and the usage
errors of `scripts/run_experiments.py` run in a new process, as a user starts
them.
"""

import csv

import pytest

from grasppr.cli import main
from test_cli import ROOT, _python, _run_experiments

TOYS = ROOT / "instances" / "toy"
GREEDY = "semigreedy:alpha-max=0"


def _bench(tmp_path, problem, *args):
    out = tmp_path / "out"
    assert main(["bench", "--problem", problem, "--instances", str(TOYS), *args, "--out", str(out)]) == 0
    return out


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_kappa_restarts_every_dynamic_run(tmp_path):
    # a restart needs kappa iterations without a new incumbent after the first one,
    # so kappa 3 in 15 iterations restarts every dynamic_pr run on the toys
    out = _bench(tmp_path, "maxcut", "--method", "grasp", "--method", "dynamic_pr:elite-k=3:kappa=3",
                 "--seeds", "1,2", "--iters", "15")
    rows = [r for r in _rows(out / "results.csv") if r["method"].startswith("dynamic_pr")]
    assert len(rows) == 4 * 2 and all(int(r["restarts"]) > 0 for r in rows)


@pytest.mark.parametrize("problem, other, iters", [
    ("maxcut", "static_pr:direction=bf", "5"),
    # a dynamic_pr pool still filling up replaces its members within the threshold
    ("lop", "dynamic_pr:dth=6:elite-k=4", "15"),
])
def test_greedy_rows_agree_across_seeds(tmp_path, problem, other, iters):
    # alpha 0 draws nothing, so both seeds build the same solutions
    out = _bench(tmp_path, problem, "--method", GREEDY, "--method", other, "--seeds", "1,2", "--iters", iters)
    best = {}
    for r in _rows(out / "results.csv"):
        if r["method"] == GREEDY:
            best.setdefault(r["instance"], set()).add(r["best_objective"])
    assert len(best) == 4 and all(len(v) == 1 for v in best.values())


def test_pdelta_guides_with_a_best_known_file(tmp_path):
    # 133 is mc-n14-w's maximum cut, by enumeration of all 2^14 partitions
    best_known = tmp_path / "best-known.csv"
    best_known.write_text("instance,best_known\nmc-n14-w,133\n")
    out = _bench(tmp_path, "maxcut", "--method", "dynamic_pr:guide=pdelta:elite-k=3", "--seeds", "1", "--iters", "8",
                 "--best-known", str(best_known))
    rows = _rows(out / "stats.csv")
    assert rows and all(r["#Best_k"] != "NA" for r in rows)


@pytest.mark.parametrize("problem, name, text, located", [
    ("lop", "bad.mat", "bad\n2\n0 1\n2147483648 0\n", "line 4, col 1: matrix entry outside 32-bit range"),
    ("maxcut", "bad.el", "3 1\n1 4 5\n", "line 2, col 3: vertex id out of range"),
])
def test_a_value_the_constructor_refuses_is_located(tmp_path, capsys, problem, name, text, located):
    # int() reads every value, so the bulk read declines only at the constructor
    # and the located reader must find the line and column
    bad = tmp_path / name
    bad.write_text(text)
    assert main(["validate", "--problem", problem, "--instance", str(bad)]) == 2
    assert f"{bad}: {located}" in capsys.readouterr().err


def test_python_m_grasppr_solves_with_a_config_file(tmp_path):
    config = tmp_path / "solve.cfg"
    config.write_text("variant = dynamic_pr\niters = 20\nseed = 3\nelite-k = 4\n")
    result = _python("-m", "grasppr", "solve", "--problem", "lop", "--instance", str(TOYS / "lop-n10-a.mat"),
                     "--config", str(config))
    assert result.returncode == 0, result.stderr
    summary = result.stdout.split()
    assert summary[:4] == ["instance=lop-n10-a", "problem=lop", "variant=dynamic_pr", "seed=3"]
    assert "iterations=20" in summary


@pytest.mark.parametrize("bad", [
    ("--only", "9"), ("--iters", "0"), ("--jobs", "0"), ("--profile-time", "0"),
    ("--iters", "1_0"), ("--profile-time", "0_05"),
])
def test_run_experiments_bad_argument_is_a_usage_error(tmp_path, bad):
    # before any cell runs; the flags ahead of the bad one make a value wrongly
    # accepted run one short experiment, not the whole protocol
    out = tmp_path / "exp"
    result = _run_experiments("--only", "7", "--profile-time", "0.01", *bad, "--out", str(out))
    assert result.returncode == 2 and result.stderr.startswith("usage:"), result.stderr
    assert not out.exists()
