"""Command-line surface: solve one instance, benchmark a grid, validate files.

Exit codes: 0 success, 2 instance parse failure, 64 bad flags or options,
74 I/O failure, 1 benchmark cell crash (bench still writes the completed
rows and a failures.csv). The search flags are the rows of
bench_io.OPTIONS, and their values stay strings until one shared translation
layer (bench_io.build_run_config) parses them, so command line, config file
and benchmark method specs all validate identically.

Config-file lines and method-spec parts share one key=value reader, where an
unknown or repeated key is a usage error. A config file fills only the unset
flags of its own command.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import bench_io
from .bench_io import BenchError, CellSpec, OptionError, ParseError, float_option, int_option
from .drivers import run

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_IO = 74

_SOLVE_KEYS = bench_io.OPTION_KEYS + ("time", "iters", "seed")
_BENCH_KEYS = bench_io.OPTION_KEYS + ("time", "iters", "seeds")
_SPEC_KEYS = tuple(key for key in bench_io.OPTION_KEYS if key != "variant")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_option_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("search options")
    for opt in bench_io.OPTIONS:
        g.add_argument(f"--{opt.key}", metavar=opt.metavar, help=opt.help)


def _add_stop_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time", metavar="S", help="wall-clock budget in seconds")
    p.add_argument("--iters", metavar="N", help="iteration budget")
    p.add_argument("--config", metavar="FILE", help="flat key=value defaults; explicit flags win")


def build_parser() -> _Parser:
    parser = _Parser(prog="grasppr", description="GRASP with path relinking for ordering and cut problems.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar="COMMAND")

    p = sub.add_parser("solve", help="run one configured search on one instance")
    p.add_argument("--problem", required=True, choices=list(bench_io.PROBLEMS), help="problem kind")
    p.add_argument("--instance", required=True, metavar="PATH", help="instance file")
    p.add_argument("--seed", metavar="U64", help="random seed (default 1)")
    _add_stop_flags(p)
    _add_option_flags(p)
    p.add_argument("--out", metavar="PATH", help="write the best solution to this file")
    p.add_argument("--profile", metavar="PATH", help="write the incumbent trajectory CSV to this file")
    p.set_defaults(func=_cmd_solve)

    b = sub.add_parser("bench", help="run a (method x instance x seed) grid and tabulate results")
    b.add_argument("--problem", required=True, choices=list(bench_io.PROBLEMS), help="problem kind")
    b.add_argument("--instances", required=True, metavar="DIR",
                   help="directory scanned for *.mat (lop) or *.el (maxcut) files")
    b.add_argument("--method", action="append", required=True, metavar="SPEC",
                   help="method spec 'variant[:key=value...]'; repeat for several methods")
    b.add_argument("--seeds", metavar="LIST", help="comma-separated seeds (default 1)")
    b.add_argument("--jobs", metavar="N", help="concurrent worker processes (default 1)")
    b.add_argument("--best-known", metavar="FILE", help="'instance,value' lines for the _k statistics")
    b.add_argument("--out", required=True, metavar="DIR",
                   help="directory for results.csv and stats.csv, or failures.csv in place of stats.csv when a cell fails")
    _add_stop_flags(b)
    _add_option_flags(b)
    b.set_defaults(func=_cmd_bench)

    v = sub.add_parser("validate", help="parse an instance file and print a summary")
    v.add_argument("--problem", required=True, choices=list(bench_io.PROBLEMS), help="problem kind")
    v.add_argument("--instance", required=True, metavar="PATH", help="instance file")
    v.set_defaults(func=_cmd_validate)
    return parser


def _read_pairs(items: Iterable[tuple[str, str]], keys: Sequence[str]) -> dict[str, str]:
    """(where, 'key=value') items as a dict; a part without '=', an unknown key or a repeated key is an OptionError."""
    pairs: dict[str, str] = {}
    for where, item in items:
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise OptionError(f"{where}expected key=value, got {item!r}")
        if key not in keys:
            raise OptionError(f"{where}unknown key {key!r}")
        if key in pairs:
            raise OptionError(f"{where}repeated key {key!r}")
        pairs[key] = value.strip()
    return pairs


def _fill_from_config(args, keys: Sequence[str]) -> None:
    """Set each flag left unset from the --config file, whose keys must be this command's."""
    if not args.config:
        return
    try:
        lines = bench_io.read_utf8(args.config).splitlines()
    except ParseError as exc:
        raise OptionError(f"{args.config}: {exc}") from None
    items = [(f"{args.config}:{ln}: ", raw) for ln, raw in enumerate(lines, start=1)
             if raw.strip() and not raw.strip().startswith("#")]
    flags = vars(args)
    for key, value in _read_pairs(items, keys).items():
        if flags[key.replace("-", "_")] is None:
            flags[key.replace("-", "_")] = value


def _options(args) -> dict[str, str]:
    """The search options set by a flag or by the config file."""
    values = {key: getattr(args, key.replace("-", "_")) for key in bench_io.OPTION_KEYS}
    return {key: value for key, value in values.items() if value is not None}


def _stop_limits(args) -> tuple[Optional[float], Optional[int]]:
    time_limit = float_option("time", args.time) if args.time is not None else None
    iteration_limit = int_option("iters", args.iters) if args.iters is not None else None
    if time_limit is None and iteration_limit is None:
        raise OptionError("need a stopping rule: --time and/or --iters")
    return time_limit, iteration_limit


def _cmd_solve(args) -> int:
    _fill_from_config(args, _SOLVE_KEYS)
    time_limit, iteration_limit = _stop_limits(args)
    seed = int_option("seed", args.seed) if args.seed is not None else 1

    instance = bench_io.load_instance(args.instance, args.problem)
    cfg = bench_io.build_run_config(args.problem, _options(args), seed, time_limit, iteration_limit)

    report = run(instance, cfg)
    stem = Path(args.instance).stem
    print(
        f"instance={stem} problem={args.problem} variant={cfg.variant} seed={cfg.seed} "
        f"best={report.best_objective} iterations={report.iterations} restarts={report.restarts}"
    )
    print(f"elapsed_s={report.elapsed_s:.3f}")
    if args.out:
        Path(args.out).write_text(bench_io.serialize_solution(report.best_solution) + "\n")
    if args.profile:
        with open(args.profile, "w") as sink:
            bench_io.emit_profile(report, sink)
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = bench_io.load_instance(args.instance, args.problem)
    if args.problem == bench_io.LOP:
        flat = [w for row in instance.cost for w in row]
        print(f"lop n={instance.n} entries={instance.n * instance.n} wmin={min(flat)} wmax={max(flat)}")
    else:
        weights = [w for _, _, w in instance.edges]
        wmin, wmax = (min(weights), max(weights)) if weights else (0, 0)
        print(f"maxcut n={instance.n} edges={instance.m} wmin={wmin} wmax={wmax}")
    return EXIT_OK


def _parse_method_spec(spec: str) -> dict[str, str]:
    variant, colon, rest = spec.partition(":")
    if not variant.strip():
        raise OptionError("empty variant")
    # split only at a ':' that starts a new key=value part, so a value keeps its own ':'
    parts = re.split(r":(?=[^:=]*=)", rest) if colon else []
    return {"variant": variant.strip(), **_read_pairs((("", part) for part in parts), _SPEC_KEYS)}


def _cmd_bench(args) -> int:
    _fill_from_config(args, _BENCH_KEYS)
    time_limit, iteration_limit = _stop_limits(args)
    seeds = bench_io.seed_list(args.seeds) if args.seeds is not None else [1]
    jobs = int_option("jobs", args.jobs) if args.jobs is not None else 1
    if jobs < 1:
        raise OptionError("jobs must be >= 1")

    labels = args.method
    if len(set(labels)) != len(labels):
        raise OptionError("duplicate method specs")
    methods = []
    for spec in labels:
        try:  # validate now so a bad spec fails before any cell runs
            merged = {**_options(args), **_parse_method_spec(spec)}
            bench_io.build_run_config(args.problem, merged, seeds[0], time_limit, iteration_limit)
        except OptionError as exc:
            raise OptionError(f"method {spec!r}: {exc}") from None
        methods.append((spec, tuple(sorted(merged.items()))))

    instance_dir = Path(args.instances)
    paths = sorted(instance_dir.glob(bench_io.INSTANCE_GLOB[args.problem]))
    if not paths:
        raise OptionError(
            f"no instances matching {bench_io.INSTANCE_GLOB[args.problem]!r} in {instance_dir}"
        )
    for p in paths:  # parse each file now, so a malformed one is a parse error before any cell runs
        bench_io.load_instance(p, args.problem)
    best_known = bench_io.read_best_known(args.best_known) if args.best_known else None
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before any cell runs

    cells = [
        CellSpec(args.problem, str(p), p.stem, label, options, seed, time_limit, iteration_limit)
        for p in paths
        for label, options in methods
        for seed in seeds
    ]
    failed: Optional[BenchError] = None
    try:
        rows = bench_io.run_grid(cells, jobs)
    except BenchError as exc:
        failed, rows = exc, exc.rows

    with open(out_dir / "results.csv", "w") as sink:
        bench_io.write_results_csv(rows, sink)
    # a table an earlier run left in out_dir would be read as this run's
    (out_dir / ("stats.csv" if failed else "failures.csv")).unlink(missing_ok=True)
    if failed:
        with open(out_dir / "failures.csv", "w") as sink:
            bench_io.write_failures_csv(failed.failures, sink)
        raise failed  # no statistics from a grid with holes; main exits 1
    stats = bench_io.compute_stats(rows, labels, best_known)
    with open(out_dir / "stats.csv", "w") as sink:
        bench_io.write_stats_csv(stats, sink)
    bench_io.write_stats_csv(stats, sys.stdout)
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'stats.csv'}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    try:
        return args.func(args)
    except OptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    raise SystemExit(main(sys.argv[1:]))
