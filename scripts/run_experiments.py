#!/usr/bin/env python3
"""Desk-scale rerun of the seven-experiment benchmark protocol on the bundled toys.

Experiments 1-6 run `grasppr bench` and write results/<exp>/results.csv and
stats.csv (the four summary columns), each method labelled by its method spec;
experiment 7 runs `grasppr solve --profile` for incumbent-trajectory CSVs of
one instance per problem. Budgets are iteration-based so reruns are
reproducible; experiment 7 is wall-clock-based by design. A command that fails
ends the script with its exit code.
"""

import argparse
import math
import sys
from pathlib import Path

from grasppr import bench_io, cli

ROOT = Path(__file__).resolve().parent.parent
TOYS = ROOT / "instances" / "toy"
PROBLEMS = (bench_io.LOP, bench_io.MAXCUT)


def grasppr(*argv):
    code = cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def bench(slug, problem, specs, args, out_root):
    print(f"== {slug}", flush=True)
    methods = [arg for spec in specs for arg in ("--method", spec)]
    grasppr("bench", "--problem", problem, "--instances", TOYS, *methods,
            "--seeds", ",".join(map(str, args.seeds)), "--iters", args.iters, "--jobs", args.jobs,
            "--out", out_root / slug)


def exp1_construction(args, out_root):
    for problem in PROBLEMS:
        specs = ["semigreedy:rcl-mode=value", "semigreedy:rcl-mode=card"]
        bench(f"exp1_construction_{problem}", problem, specs, args, out_root)


def exp2_local_search(args, out_root):
    for problem in PROBLEMS:
        bench(f"exp2_local_search_{problem}", problem, ["grasp:depth=first", "grasp:depth=best"], args, out_root)


def exp3_direction(args, out_root):
    for problem in PROBLEMS:
        specs = [f"static_pr:direction={d}:inpath-ls=none" for d in ("forward", "backward", "mixed")]
        bench(f"exp3_direction_{problem}", problem, specs, args, out_root)


def exp4_inpath_ls(args, out_root):
    # directions fixed to each problem's exp-3 winner
    direction = {bench_io.LOP: "mixed", bench_io.MAXCUT: "forward"}
    for problem in PROBLEMS:
        specs = [f"static_pr:direction={direction[problem]}:inpath-ls={p}" for p in ("none", "all", "every:5", "best")]
        bench(f"exp4_inpath_ls_{problem}", problem, specs, args, out_root)


def exp5_step_selection(args, out_root):
    for problem in PROBLEMS:
        specs = ["static_pr:step=greedy", "static_pr:step=grpr", "static_pr:step=grpr:trunc=0.5"]
        bench(f"exp5_step_{problem}", problem, specs, args, out_root)


def exp6_strategy(args, out_root):
    for problem in PROBLEMS:
        bench(f"exp6_strategy_{problem}", problem, ["static_pr", "dynamic_pr", "evolutionary_pr"], args, out_root)


def exp7_profiles(args, out_root):
    targets = {bench_io.LOP: "lop-n12-a.mat", bench_io.MAXCUT: "mc-n14-w.el"}
    out = out_root / "exp7_profiles"
    out.mkdir(parents=True, exist_ok=True)
    for problem, fname in targets.items():
        for variant in ("semigreedy", "grasp", "evolutionary_pr"):
            grasppr("solve", "--problem", problem, "--instance", TOYS / fname, "--variant", variant,
                    "--seed", args.seeds[0], "--time", args.profile_time,
                    "--profile", out / f"{Path(fname).stem}-{variant}.csv")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=300, help="iteration budget per cell (default 300)")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default 1,2,3)")
    ap.add_argument("--jobs", type=int, default=4, help="worker processes (default 4)")
    ap.add_argument("--profile-time", type=float, default=2.0,
                    help="seconds per experiment-7 run (default 2.0)")
    ap.add_argument("--out", default=str(ROOT / "results"), help="output root (default results/)")
    steps = {
        "1": exp1_construction,
        "2": exp2_local_search,
        "3": exp3_direction,
        "4": exp4_inpath_ls,
        "5": exp5_step_selection,
        "6": exp6_strategy,
        "7": exp7_profiles,
    }
    ap.add_argument("--only", choices=sorted(steps), help="run a single experiment: 1..7")
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
    chosen = [args.only] if args.only else sorted(steps)
    for key in chosen:
        steps[key](args, out_root)
    print(f"done; outputs under {out_root}")


if __name__ == "__main__":
    main()
