"""Instance file I/O, benchmark grid execution, and results/statistics tables.

Two instance grammars are supported. Ordering matrices: a free-text name
line, the dimension n, then n*n whitespace-separated integers in row-major
order with insignificant line breaks. Weighted graphs: a header "n m"
followed by m lines "i j w" with 1-based endpoints; duplicate edges merge by
summing their weights. Both parsers report positions (line, column) and
raise ParseError on any malformed text, never an unrelated exception.
"""

from __future__ import annotations

import csv
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain
from operator import eq
from pathlib import Path
from typing import IO, Iterable, Mapping, Optional, Sequence, Union

from .construction import CARDINALITY, VALUE, RclConfig
from .core import PartitionSolution, PermutationSolution, ProblemInstance, Solution
from .drivers import GRASP, VARIANTS, RunConfig, RunReport, run
from .elite_set import PROPORTIONAL_DELTA, UNIFORM
from .local_search import SearchDepth
from .lop import LopInstance
from .maxcut import MaxCutInstance
from .path_relinking import (
    BACK_AND_FORWARD,
    BACKWARD,
    FORWARD,
    LS_ALL,
    LS_BEST,
    LS_EVERY,
    LS_NONE,
    MIXED,
    PrConfig,
)

_INT32 = 1 << 31
_TOKEN = re.compile(r"\S+")

LOP = "lop"
MAXCUT = "maxcut"
PROBLEMS = (LOP, MAXCUT)

# filename conventions for instance directories
INSTANCE_GLOB = {LOP: "*.mat", MAXCUT: "*.el"}


class ParseError(ValueError):
    """Malformed instance text, with a 1-based position when known."""

    def __init__(self, message: str, line: Optional[int] = None, col: Optional[int] = None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BenchError(RuntimeError):
    """A benchmark cell crashed; the message names method, instance and seed."""


@dataclass(frozen=True)
class _Tok:
    text: str
    line: int
    col: int


def _tokenize_line(raw: str, line_no: int) -> list[_Tok]:
    # \s is Unicode whitespace, the same set str.isspace() accepts
    return [_Tok(m.group(), line_no, m.start() + 1) for m in _TOKEN.finditer(raw)]


def _is_int(text: str) -> bool:
    # isdecimal holds for exactly the characters int() reads as digits;
    # isdigit also holds for superscripts such as '²', which int() rejects
    body = text[1:] if text[:1] in "+-" else text
    return body.isdecimal()


def _as_int(tok: _Tok, what: str) -> int:
    if not _is_int(tok.text):
        raise ParseError(f"{what} is not an integer: {tok.text!r}", tok.line, tok.col)
    try:
        value = int(tok.text)
    except ValueError:  # more digits than int() converts, so far outside 32 bits
        raise ParseError(f"{what} outside 32-bit range: {len(tok.text)} characters", tok.line, tok.col) from None
    if not (-_INT32 <= value < _INT32):
        raise ParseError(f"{what} outside 32-bit range: {value}", tok.line, tok.col)
    return value


def _plain_ints(tokens: Iterable[str]) -> Optional[list[int]]:
    """The tokens as ints if int() takes each and all are in 32-bit range, else None.

    The fast paths below use it on text without '_': int() then accepts
    exactly the tokens _is_int does (an optional sign, then decimal digits),
    so None means _as_int raises on some token.
    """
    try:
        values = list(map(int, tokens))
    except ValueError:
        return None
    if values and (min(values) < -_INT32 or max(values) >= _INT32):
        return None
    return values


def parse_lolib(text: str) -> LopInstance:
    """Parse an ordering-cost matrix file.

    Leading lines that do not start with an integer are header text; the first
    is the customary instance name, further ones are tolerated with a warning.
    Well-formed text is read in bulk; anything else is reread token by token
    to raise a located ParseError.
    """
    lines = text.split("\n")
    skipped = 0
    for start, raw in enumerate(lines):
        first = raw.split(None, 1)
        if first and _is_int(first[0]):
            break
        if first:
            skipped += 1
    else:
        raise ParseError("no dimension line found", max(len(lines), 1))
    if skipped > 1:
        warnings.warn(f"skipped {skipped - 1} unexpected header line(s)", stacklevel=2)

    values = _lolib_fast(lines, start)
    if values is None:
        values = _lolib_located(lines, start)
    n = values[0]
    return LopInstance([values[i : i + n] for i in range(1, len(values), n)])


def _lolib_fast(lines: list[str], start: int) -> Optional[list[int]]:
    """[n, entries...] if lines[start:] hold n >= 2 and n*n plain 32-bit ints, else None."""
    body = "\n".join(lines[start:])
    values = None if "_" in body else _plain_ints(body.split())
    if values is None or values[0] < 2 or len(values) != values[0] * values[0] + 1:
        return None
    return values


def _lolib_located(lines: list[str], start: int) -> list[int]:
    """[n, entries...] of lines[start:], or a ParseError at the first bad token."""
    flat = [t for ln, raw in enumerate(lines[start:], start=start + 1) for t in _tokenize_line(raw, ln)]
    n = _as_int(flat[0], "dimension n")
    if n <= 1:
        raise ParseError(f"n must be >= 2, got {n}", flat[0].line, flat[0].col)

    entries = flat[1:]
    need = n * n
    if len(entries) < need:
        raise ParseError(f"expected {need} matrix entries, found {len(entries)}", len(lines))
    if len(entries) > need:
        extra = entries[need]
        raise ParseError(f"expected {need} matrix entries, found {len(entries)}", extra.line, extra.col)
    return [n] + [_as_int(t, "matrix entry") for t in entries]


def serialize_lolib(instance: LopInstance, name: str = "instance") -> str:
    out = [name, str(instance.n)]
    for row in instance.cost:
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


def parse_edge_list(text: str) -> MaxCutInstance:
    """Parse a weighted graph: "n m" header, then m "i j w" lines (1-based ids).

    Well-formed text is read in bulk; anything else is reread token by token
    to raise a located ParseError.
    """
    parsed = _edge_list_fast(text)
    if parsed is None:
        parsed = _edge_list_located(text)
    try:
        return MaxCutInstance(*parsed)
    except ValueError as exc:  # duplicate edges whose summed weight leaves 32 bits
        raise ParseError(str(exc)) from None


def _edge_list_fast(text: str) -> Optional[tuple[int, list[tuple[int, int, int]]]]:
    """(n, 0-based edges) if every line and token is well formed, else None."""
    if "_" in text:
        return None
    rows = [toks for toks in map(str.split, text.split("\n")) if toks]
    if not rows or len(rows[0]) != 2 or any(len(toks) != 3 for toks in rows[1:]):
        return None
    values = _plain_ints(chain.from_iterable(rows))
    if values is None:
        return None
    n, m = values[0], values[1]
    us, vs, ws = values[2::3], values[3::3], values[4::3]
    if n < 1 or m != len(rows) - 1:
        return None
    if m and (min(us) < 1 or min(vs) < 1 or max(us) > n or max(vs) > n or any(map(eq, us, vs))):
        return None
    return n, [(u - 1, v - 1, w) for u, v, w in zip(us, vs, ws)]


def _edge_list_located(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """(n, 0-based edges) of text, or a ParseError at the first bad line or token."""
    rows = [toks for ln, raw in enumerate(text.split("\n"), start=1) for toks in [_tokenize_line(raw, ln)] if toks]
    if not rows:
        raise ParseError("empty input", 1)

    header = rows[0]
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', found {len(header)} token(s)", header[0].line, header[0].col)
    n = _as_int(header[0], "vertex count n")
    m = _as_int(header[1], "edge count m")
    if n < 1:
        raise ParseError(f"n must be >= 1, got {n}", header[0].line, header[0].col)
    if m < 0:
        raise ParseError(f"m must be >= 0, got {m}", header[1].line, header[1].col)

    body = rows[1:]
    if len(body) != m:
        if len(body) < m:
            last = body[-1][0].line if body else header[0].line
            raise ParseError(f"expected {m} edge lines, found {len(body)}", last)
        extra = body[m][0]
        raise ParseError(f"expected {m} edge lines, found {len(body)}", extra.line, extra.col)

    edges = []
    for toks in body:
        if len(toks) != 3:
            raise ParseError(f"edge line must be 'i j w', found {len(toks)} token(s)", toks[0].line, toks[0].col)
        i = _as_int(toks[0], "vertex id")
        j = _as_int(toks[1], "vertex id")
        w = _as_int(toks[2], "edge weight")
        if not (1 <= i <= n):
            raise ParseError(f"vertex id out of range 1..{n}: {i}", toks[0].line, toks[0].col)
        if not (1 <= j <= n):
            raise ParseError(f"vertex id out of range 1..{n}: {j}", toks[1].line, toks[1].col)
        if i == j:
            raise ParseError(f"self-loop at vertex {i}", toks[0].line, toks[0].col)
        edges.append((i - 1, j - 1, w))
    return n, edges


def serialize_edge_list(instance: MaxCutInstance) -> str:
    out = [f"{instance.n} {instance.m}"]
    for u, v, w in instance.edges:
        out.append(f"{u + 1} {v + 1} {w}")
    return "\n".join(out) + "\n"


def load_instance(path: Union[str, Path], problem: str) -> ProblemInstance:
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem!r}")
    text = Path(path).read_text()
    try:
        return parse_lolib(text) if problem == LOP else parse_edge_list(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.args[0]}") from None


def serialize_solution(solution: Solution) -> str:
    """One-line text form: space-separated order, or a 0/1 membership string."""
    if isinstance(solution, PermutationSolution):
        return " ".join(map(str, solution.order))
    if isinstance(solution, PartitionSolution):
        return "".join(map(str, solution.bits))
    raise TypeError(f"not a solution: {solution!r}")


# ---------------------------------------------------------------------------
# run configuration from flat string options (CLI flags, config files,
# benchmark method specs all funnel through here)

_DIRECTIONS = {
    "forward": FORWARD,
    "backward": BACKWARD,
    "bf": BACK_AND_FORWARD,
    "back_and_forward": BACK_AND_FORWARD,
    "mixed": MIXED,
}
_RCL_MODES = {"value": VALUE, "card": CARDINALITY}
_DEPTHS = {"first": SearchDepth.FIRST_IMPROVING, "best": SearchDepth.BEST_IMPROVING}
_GUIDES = (UNIFORM, PROPORTIONAL_DELTA)

# winners of the per-problem tuning runs, used when flags stay unset
_PROBLEM_PR_DEFAULTS = {
    LOP: {"direction": MIXED, "step": "grpr", "in_path_ls": LS_BEST, "ls_every": 5},
    MAXCUT: {"direction": FORWARD, "step": "greedy", "in_path_ls": LS_EVERY, "ls_every": 5},
}

OPTION_KEYS = (
    "variant",
    "direction",
    "step",
    "rcl-size",
    "trunc",
    "min-dist",
    "inpath-ls",
    "depth",
    "alpha-min",
    "alpha-max",
    "rcl-mode",
    "elite-k",
    "dth",
    "guide",
    "kappa",
    "static-sample",
)


class OptionError(ValueError):
    """A flag/config/method option failed to parse or validate."""


def _opt_int(options: dict, key: str) -> Optional[int]:
    if key not in options:
        return None
    raw = options.pop(key)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise OptionError(f"{key}: expected an integer, got {raw!r}") from None


def _opt_float(options: dict, key: str) -> Optional[float]:
    if key not in options:
        return None
    raw = options.pop(key)
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise OptionError(f"{key}: expected a number, got {raw!r}") from None


def _opt_choice(options: dict, key: str, table: Mapping[str, object]):
    if key not in options:
        return None
    raw = str(options.pop(key))
    if raw not in table:
        raise OptionError(f"{key}: expected one of {'|'.join(table)}, got {raw!r}")
    return table[raw]


def build_run_config(
    problem: str,
    options: Mapping[str, str],
    seed: int,
    time_limit: Optional[float],
    iteration_limit: Optional[int],
) -> RunConfig:
    """Translate flat string options into a validated RunConfig.

    Unset keys fall back to the per-problem defaults; unknown keys are errors.
    """
    if problem not in PROBLEMS:
        raise OptionError(f"unknown problem: {problem!r}")
    opts = dict(options)
    pr_defaults = _PROBLEM_PR_DEFAULTS[problem]

    variant = str(opts.pop("variant", GRASP))
    if variant not in VARIANTS:
        raise OptionError(f"variant: expected one of {'|'.join(VARIANTS)}, got {variant!r}")

    direction = _opt_choice(opts, "direction", _DIRECTIONS)
    step = _opt_choice(opts, "step", {"greedy": "greedy", "grpr": "grpr"})
    rcl_size = _opt_int(opts, "rcl-size")
    trunc = _opt_float(opts, "trunc")
    min_dist = _opt_int(opts, "min-dist")

    in_path_ls, ls_every = None, None
    if "inpath-ls" in opts:
        raw = str(opts.pop("inpath-ls"))
        if raw in (LS_NONE, LS_ALL, LS_BEST):
            in_path_ls = raw
        elif raw.startswith(f"{LS_EVERY}:"):
            in_path_ls = LS_EVERY
            try:
                ls_every = int(raw.split(":", 1)[1])
            except ValueError:
                raise OptionError(f"inpath-ls: bad period in {raw!r}") from None
        else:
            raise OptionError(f"inpath-ls: expected none|all|every:Q|best, got {raw!r}")

    depth = _opt_choice(opts, "depth", _DEPTHS)
    alpha_min = _opt_float(opts, "alpha-min")
    alpha_max = _opt_float(opts, "alpha-max")
    rcl_mode = _opt_choice(opts, "rcl-mode", _RCL_MODES)
    elite_k = _opt_int(opts, "elite-k")
    dth = _opt_int(opts, "dth")
    guide = _opt_choice(opts, "guide", {g: g for g in _GUIDES})
    kappa = _opt_int(opts, "kappa")
    static_sample = _opt_int(opts, "static-sample")

    if opts:
        raise OptionError(f"unknown option(s): {', '.join(sorted(opts))}")

    try:
        rcl = RclConfig(
            mode=rcl_mode if rcl_mode is not None else VALUE,
            alpha_low=alpha_min if alpha_min is not None else 0.0,
            alpha_high=alpha_max if alpha_max is not None else 0.3,
        )
        pr = PrConfig(
            direction=direction if direction is not None else pr_defaults["direction"],
            step=step if step is not None else pr_defaults["step"],
            rcl_size=rcl_size if rcl_size is not None else 3,
            truncation=trunc if trunc is not None else 1.0,
            min_distance=min_dist if min_dist is not None else 4,
            in_path_ls=in_path_ls if in_path_ls is not None else pr_defaults["in_path_ls"],
            ls_every=ls_every if ls_every is not None else pr_defaults["ls_every"],
        )
        return RunConfig(
            variant=variant,
            seed=seed,
            time_limit=time_limit,
            iteration_limit=iteration_limit,
            restart_kappa=kappa,
            rcl=rcl,
            depth=depth if depth is not None else SearchDepth.BEST_IMPROVING,
            pr=pr,
            elite_k=elite_k if elite_k is not None else 10,
            d_th=dth,
            guide_policy=guide if guide is not None else UNIFORM,
            static_sample=static_sample if static_sample is not None else 100,
        )
    except ValueError as exc:
        raise OptionError(str(exc)) from None


# ---------------------------------------------------------------------------
# benchmark grid

@dataclass(frozen=True)
class CellSpec:
    """One (method, instance, seed) cell; picklable for worker processes."""

    problem: str
    instance_path: str
    instance_name: str
    method: str  # display label
    options: tuple[tuple[str, str], ...]
    seed: int
    time_limit: Optional[float]
    iteration_limit: Optional[int]


@dataclass(frozen=True)
class RunRow:
    method: str
    instance: str
    seed: int
    best_objective: int
    iterations: int
    elapsed_s: float
    restarts: int


# The instance of the last file this process parsed inside run_grid, as
# {(problem, path): instance}: one entry, so consecutive cells on one file
# (how the grids here are ordered) share one parse and memory stays bounded.
# It is module state because pool workers get state only from an initializer
# while run_cell keeps its one-argument, by-name form. None outside run_grid,
# so nothing outlives a grid call in the calling process.
_last_instance: Optional[dict[tuple[str, str], ProblemInstance]] = None


def _keep_last_instance() -> None:
    """Start an empty reuse cache; the process pool runs this in each worker."""
    global _last_instance
    _last_instance = {}


def _cell_instance(spec: CellSpec) -> ProblemInstance:
    cache = _last_instance
    if cache is None:
        return load_instance(spec.instance_path, spec.problem)
    key = (spec.problem, spec.instance_path)
    if key not in cache:
        cache.clear()
        cache[key] = load_instance(spec.instance_path, spec.problem)
    return cache[key]


def run_cell(spec: CellSpec) -> RunRow:
    try:
        instance = _cell_instance(spec)
        cfg = build_run_config(spec.problem, dict(spec.options), spec.seed, spec.time_limit, spec.iteration_limit)
        report = run(instance, cfg)
        return RunRow(
            method=spec.method,
            instance=spec.instance_name,
            seed=spec.seed,
            best_objective=report.best_objective,
            iterations=report.iterations,
            elapsed_s=report.elapsed_s,
            restarts=report.restarts,
        )
    except Exception as exc:
        if _last_instance is not None:
            _last_instance.clear()  # a failed run may leave the instance's caches half updated
        raise BenchError(
            f"cell failed (method={spec.method} instance={spec.instance_name} seed={spec.seed}): {exc}"
        ) from exc


def run_grid(cells: Sequence[CellSpec], jobs: int = 1) -> list[RunRow]:
    """Execute all cells; results are independent of scheduling and job count.

    Each worker parses a file once for a run of consecutive cells on it; the
    file must not change during the call.
    """
    global _last_instance
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1 or len(cells) <= 1:
        _keep_last_instance()
        try:
            return [run_cell(c) for c in cells]
        finally:
            _last_instance = None
    with ProcessPoolExecutor(max_workers=jobs, initializer=_keep_last_instance) as pool:
        return list(pool.map(run_cell, cells))


RESULTS_HEADER = ["method", "instance", "seed", "best_objective", "iterations", "elapsed_s", "restarts"]


def write_results_csv(rows: Sequence[RunRow], sink: IO[str]) -> None:
    """One row per cell, sorted by (method, instance, seed) for stable diffs."""
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(RESULTS_HEADER)
    for r in sorted(rows, key=lambda r: (r.method, r.instance, r.seed)):
        w.writerow([r.method, r.instance, r.seed, r.best_objective, r.iterations, f"{r.elapsed_s:.6f}", r.restarts])


def aggregate_best(rows: Sequence[RunRow]) -> dict[tuple[str, str], int]:
    """Best objective per (method, instance) across seeds."""
    best: dict[tuple[str, str], int] = {}
    for r in rows:
        key = (r.method, r.instance)
        if key not in best or r.best_objective > best[key]:
            best[key] = r.best_objective
    return best


@dataclass
class StatsRow:
    method: str
    best: int  # instances on which the method attains the experiment best
    dev_pct: Optional[float]  # mean 100*(B_e - v)/B_e over instances with B_e > 0
    best_known: Optional[int]  # instances reaching at least the supplied best-known value
    dev_known_pct: Optional[float]  # signed; negative means better than best-known


@dataclass
class ExperimentStats:
    instances: list[str]
    rows: list[StatsRow]


def compute_stats(
    results: Mapping[tuple[str, str], int],
    best_known: Optional[Mapping[str, int]] = None,
    method_order: Optional[Sequence[str]] = None,
) -> ExperimentStats:
    """Per-method summary against the experiment best and optional best-known values.

    Deviations are undefined (reported as None) for instances whose reference
    value is <= 0; #Best counts use exact integer comparison and count every
    tied method.
    """
    methods = list(method_order) if method_order is not None else sorted({m for m, _ in results})
    instances = sorted({i for _, i in results})
    if not methods or not instances:
        raise ValueError("no results")
    for m in methods:
        for i in instances:
            if (m, i) not in results:
                raise ValueError(f"missing cell: method {m!r} on instance {i!r}")

    exp_best = {i: max(results[m, i] for m in methods) for i in instances}
    rows = []
    for m in methods:
        best = sum(1 for i in instances if results[m, i] == exp_best[i])
        devs = [
            100.0 * (exp_best[i] - results[m, i]) / exp_best[i]
            for i in instances
            if exp_best[i] > 0
        ]
        dev_pct = sum(devs) / len(devs) if devs else None

        best_k: Optional[int] = None
        dev_k: Optional[float] = None
        if best_known:
            known = [i for i in instances if i in best_known]
            if known:
                best_k = sum(1 for i in known if results[m, i] >= best_known[i])
                kdevs = [
                    100.0 * (best_known[i] - results[m, i]) / best_known[i]
                    for i in known
                    if best_known[i] > 0
                ]
                dev_k = sum(kdevs) / len(kdevs) if kdevs else None
        rows.append(StatsRow(m, best, dev_pct, best_k, dev_k))
    return ExperimentStats(instances, rows)


STATS_HEADER = ["method", "#Best", "%Dev", "#Best_k", "%Dev_k"]


def _fmt_stat(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_stats_csv(stats: ExperimentStats, sink: IO[str]) -> None:
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(STATS_HEADER)
    for r in stats.rows:
        w.writerow([r.method, r.best, _fmt_stat(r.dev_pct), _fmt_stat(r.best_known), _fmt_stat(r.dev_known_pct)])


def read_best_known(path: Union[str, Path]) -> dict[str, int]:
    """Load "instance,value" lines; blank lines and "#" comments are skipped.

    A header row is tolerated as the first line that is neither.
    """
    table: dict[str, int] = {}
    numbered = enumerate(Path(path).read_text().splitlines(), start=1)
    content = [(ln, raw) for ln, raw in numbered if raw.strip() and not raw.strip().startswith("#")]
    for k, (ln, raw) in enumerate(content):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'instance,value', got {raw!r}", ln)
        name, value = parts
        if not _is_int(value):
            if k == 0:
                continue  # header row
            raise ParseError(f"best-known value is not an integer: {value!r}", ln)
        try:
            table[name] = int(value)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"best-known value too long: {len(value)} characters", ln) from None
    return table


def emit_profile(report: RunReport, sink: IO[str]) -> None:
    """Incumbent trajectory: one row per improvement plus a closing row."""
    w = csv.writer(sink, lineterminator="\n")
    w.writerow(["elapsed_s", "objective"])
    for elapsed, objective in report.incumbent_series:
        w.writerow([f"{elapsed:.6f}", objective])
    w.writerow([f"{report.elapsed_s:.6f}", report.best_objective])
