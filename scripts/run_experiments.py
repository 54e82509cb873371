#!/usr/bin/env python3
"""Desk-scale rerun of the seven-experiment benchmark protocol on the bundled toys.

Experiments 1-6 write results/<exp>/results.csv and stats.csv (the four
summary columns); experiment 7 records incumbent-trajectory CSVs for one
instance per problem. Budgets are iteration-based so reruns are reproducible;
experiment 7 is wall-clock-based by design.
"""

import argparse
import math
from pathlib import Path

from grasppr import bench_io, drivers, load_instance

ROOT = Path(__file__).resolve().parent.parent
TOYS = ROOT / "instances" / "toy"
PROBLEMS = (bench_io.LOP, bench_io.MAXCUT)


def toy_paths(problem):
    return sorted(TOYS.glob(bench_io.INSTANCE_GLOB[problem]))


def run_table(slug, problem, methods, args, out_root):
    cells = [
        bench_io.CellSpec(problem, str(p), p.stem, label, tuple(sorted(opts.items())), seed, None, args.iters)
        for label, opts in methods
        for p in toy_paths(problem)
        for seed in args.seeds
    ]
    rows = bench_io.run_grid(cells, args.jobs)
    out = out_root / slug
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.csv", "w") as sink:
        bench_io.write_results_csv(rows, sink)
    stats = bench_io.compute_stats(bench_io.aggregate_best(rows), method_order=[m for m, _ in methods])
    with open(out / "stats.csv", "w") as sink:
        bench_io.write_stats_csv(stats, sink)
    print(f"== {slug} ({problem}, {len(stats.instances)} instances x {len(args.seeds)} seeds)")
    for r in stats.rows:
        dev = "NA" if r.dev_pct is None else f"{r.dev_pct:.3f}"
        print(f"   {r.method:<28} #Best={r.best:<3} %Dev={dev}")


def exp1_construction(args, out_root):
    methods = [
        ("semigreedy-value", {"variant": "semigreedy", "rcl-mode": "value"}),
        ("semigreedy-card", {"variant": "semigreedy", "rcl-mode": "card"}),
    ]
    for problem in PROBLEMS:
        run_table(f"exp1_construction_{problem}", problem, methods, args, out_root)


def exp2_local_search(args, out_root):
    methods = [
        ("grasp-first", {"variant": "grasp", "depth": "first"}),
        ("grasp-best", {"variant": "grasp", "depth": "best"}),
    ]
    for problem in PROBLEMS:
        run_table(f"exp2_local_search_{problem}", problem, methods, args, out_root)


def exp3_direction(args, out_root):
    for problem in PROBLEMS:
        methods = [
            (f"static-{d}", {"variant": "static_pr", "direction": d, "inpath-ls": "none"})
            for d in ("forward", "backward", "mixed")
        ]
        run_table(f"exp3_direction_{problem}", problem, methods, args, out_root)


def exp4_inpath_ls(args, out_root):
    # directions fixed to each problem's exp-3 winner
    direction = {bench_io.LOP: "mixed", bench_io.MAXCUT: "forward"}
    for problem in PROBLEMS:
        methods = [
            (f"static-ls-{p.replace(':', '')}",
             {"variant": "static_pr", "direction": direction[problem], "inpath-ls": p})
            for p in ("none", "all", "every:5", "best")
        ]
        run_table(f"exp4_inpath_ls_{problem}", problem, methods, args, out_root)


def exp5_step_selection(args, out_root):
    for problem in PROBLEMS:
        methods = [
            ("static-greedy", {"variant": "static_pr", "step": "greedy"}),
            ("static-grpr", {"variant": "static_pr", "step": "grpr"}),
            ("static-grpr-trunc.5", {"variant": "static_pr", "step": "grpr", "trunc": "0.5"}),
        ]
        run_table(f"exp5_step_{problem}", problem, methods, args, out_root)


def exp6_strategy(args, out_root):
    for problem in PROBLEMS:
        methods = [
            ("static", {"variant": "static_pr"}),
            ("dynamic", {"variant": "dynamic_pr"}),
            ("evolutionary", {"variant": "evolutionary_pr"}),
        ]
        run_table(f"exp6_strategy_{problem}", problem, methods, args, out_root)


def exp7_profiles(args, out_root):
    targets = {bench_io.LOP: "lop-n12-a.mat", bench_io.MAXCUT: "mc-n14-w.el"}
    out = out_root / "exp7_profiles"
    out.mkdir(parents=True, exist_ok=True)
    for problem, fname in targets.items():
        instance = load_instance(TOYS / fname, problem)
        for variant in ("semigreedy", "grasp", "evolutionary_pr"):
            # the CLI's translation, so each problem's relinking defaults apply
            cfg = bench_io.build_run_config(problem, {"variant": variant}, args.seeds[0], args.profile_time, None)
            report = drivers.run(instance, cfg)
            dest = out / f"{Path(fname).stem}-{variant}.csv"
            with open(dest, "w") as sink:
                bench_io.emit_profile(report, sink)
            print(f"   {dest.name}: best={report.best_objective} iterations={report.iterations}")


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
