#!/usr/bin/env python3
"""Desk-scale rerun of the seven-experiment benchmark protocol on the bundled toys.

Experiments 1-6 are the rows of EXPERIMENTS, so a new one of their kind is one
more row. Each runs `grasppr bench` once per problem and writes
results/<slug>_<problem>/results.csv and stats.csv (the four summary columns),
each method labelled by its method spec. Experiment 4 relinks in each
problem's default direction, its experiment-3 winner. Experiment 7 runs
`grasppr solve --profile` for incumbent-trajectory CSVs of one instance per
problem. Budgets are iteration-based so reruns are reproducible; experiment 7
is wall-clock-based by design. A command that fails ends the script with its
exit code.
"""

import argparse
import math
import sys
from pathlib import Path

from grasppr import bench_io, cli

ROOT = Path(__file__).resolve().parent.parent
TOYS = ROOT / "instances" / "toy"

# key: (output slug, method specs); each experiment runs once per problem,
# into <slug>_<problem>
EXPERIMENTS = {
    "1": ("exp1_construction", ["semigreedy:rcl-mode=value", "semigreedy:rcl-mode=card"]),
    "2": ("exp2_local_search", ["grasp:depth=first", "grasp:depth=best"]),
    "3": ("exp3_direction", [f"static_pr:direction={d}:inpath-ls=none" for d in ("forward", "backward", "mixed")]),
    "4": ("exp4_inpath_ls",
          [f"static_pr:direction={{direction}}:inpath-ls={p}" for p in ("none", "all", "every:5", "best")]),
    "5": ("exp5_step", ["static_pr:step=greedy", "static_pr:step=grpr", "static_pr:step=grpr:trunc=0.5"]),
    "6": ("exp6_strategy", ["static_pr", "dynamic_pr", "evolutionary_pr"]),
}
# {direction} in a spec: each problem's default direction, its experiment-3 winner
DIRECTION = {p: bench_io.build_run_config(p, {}, 1, None, 1).pr.direction for p in bench_io.PROBLEMS}


def grasppr(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def run_experiment(key, args, out_root):
    slug, specs = EXPERIMENTS[key]
    for problem in bench_io.PROBLEMS:
        print(f"== {slug}_{problem}", flush=True)
        methods = [arg for spec in specs for arg in ("--method", spec.format(direction=DIRECTION[problem]))]
        grasppr("bench", "--problem", problem, "--instances", TOYS, *methods,
                "--seeds", ",".join(map(str, args.seeds)), "--iters", args.iters, "--jobs", args.jobs,
                "--out", out_root / f"{slug}_{problem}")


def exp7_profiles(args, out_root):
    targets = {bench_io.LOP: "lop-n12-a.mat", bench_io.MAXCUT: "mc-n14-w.el"}
    out = out_root / "exp7_profiles"
    out.mkdir(parents=True, exist_ok=True)
    for problem, fname in targets.items():
        for variant in ("semigreedy", "grasp", "evolutionary_pr"):
            grasppr("solve", "--problem", problem, "--instance", TOYS / fname, "--variant", variant,
                    "--seed", args.seeds[0], "--time", args.profile_time,
                    "--profile", out / f"{Path(fname).stem}-{variant}.csv")


# bench_io's option parsers refuse 1_0, which int / float read as 10, as the CLI
# does; argparse reports their OptionError (a ValueError) as a usage error
def integer(raw):
    return bench_io.int_option("integer", raw)


def number(raw):
    return bench_io.float_option("number", raw)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=integer, default=300, help="iteration budget per cell (default 300)")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    ap.add_argument("--jobs", type=integer, default=4, help="worker processes (default 4)")
    ap.add_argument("--profile-time", type=number, default=2.0,
                    help="seconds per experiment-7 run (default 2.0)")
    ap.add_argument("--out", default=str(ROOT / "results"), help="output root (default results/)")
    keys = [*EXPERIMENTS, "7"]
    ap.add_argument("--only", choices=keys, help="run a single experiment: 1..7")
    args = ap.parse_args()
    # checked here, so a bad value is a usage error before any cell runs
    if args.iters < 1:
        ap.error(f"--iters must be >= 1, got {args.iters}")
    if args.jobs < 1:
        ap.error(f"--jobs must be >= 1, got {args.jobs}")
    if not (args.profile_time > 0 and math.isfinite(args.profile_time)):
        ap.error(f"--profile-time must be finite and > 0, got {args.profile_time}")
    try:
        args.seeds = bench_io.seed_list(args.seeds)
    except bench_io.OptionError as exc:
        ap.error(str(exc))

    out_root = Path(args.out)
    for key in [args.only] if args.only else keys:
        if key == "7":
            exp7_profiles(args, out_root)
        else:
            run_experiment(key, args, out_root)
    print(f"done; outputs under {out_root}")


if __name__ == "__main__":
    main()
