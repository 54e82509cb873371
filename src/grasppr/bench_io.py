"""Instance file I/O, benchmark grid execution, and results/statistics tables.

Two instance grammars are supported. Ordering matrices: a free-text name
line, the dimension n, then n*n whitespace-separated integers in row-major
order with insignificant line breaks. Weighted graphs: a header "n m"
followed by m lines "i j w" with 1-based endpoints; duplicate edges merge by
summing their weights. Both parsers report positions (line, column) and
raise ParseError on any malformed text, never an unrelated exception.

The process pool is imported only when a grid runs with jobs > 1, and csv
only when a table is written, so a process that parses and solves loads
neither.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .construction import CARDINALITY, VALUE, RclConfig
from .core import _INT32, PartitionSolution, PermutationSolution, ProblemInstance, SearchDepth, Solution
from .drivers import VARIANTS, RunConfig, RunReport, run
from .elite_set import PROPORTIONAL_DELTA, UNIFORM
from .lop import LopInstance
from .maxcut import MaxCutInstance, check_vertex_count
from .path_relinking import (
    BACK_AND_FORWARD,
    BACKWARD,
    FORWARD,
    GREEDY,
    GREEDY_RANDOMIZED,
    LS_ALL,
    LS_BEST,
    LS_EVERY,
    LS_NONE,
    MIXED,
    PrConfig,
)

_TOKEN = re.compile(r"\S+")
_LINE = re.compile(r"^.*$", re.MULTILINE)  # the lines of text.split("\n"), one match at a time

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


class CellFailure(NamedTuple):
    """One benchmark cell that crashed, as a failures.csv row."""

    method: str
    instance: str
    seed: int
    message: str


class BenchError(RuntimeError):
    """Benchmark cells crashed; the message names the first one's method, instance and seed,
    rows holds the completed cells' rows in cell order, and failures one CellFailure per crash."""

    def __init__(self, message: str, rows: Sequence[RunRow] = (), failures: Sequence[CellFailure] = ()):
        super().__init__(message)
        self.rows = list(rows)
        self.failures = list(failures)


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


def _built(build: Callable[..., ProblemInstance], *args) -> ProblemInstance:
    """build(*args); a fault no token holds (say, a merged weight out of range) as an unplaced ParseError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_lolib(text: str) -> LopInstance:
    """Parse an ordering-cost matrix file.

    Leading lines that do not start with an integer are header text; the first
    is the customary instance name, further ones are tolerated with a warning.
    Text is read line by line by str.split and int() and handed to LopInstance; text that
    it or that fast read rejects is reread token by token to raise a located ParseError.
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

    inst = _lolib_fast(lines, start)
    return inst if inst is not None else _built(_square, _lolib_located(lines, start))


def _square(values: Sequence[int]) -> LopInstance:
    """LopInstance of [n, entries...] whose entries count n*n; a tuple's rows are the instance's own."""
    n = values[0]
    return LopInstance([values[i : i + n] for i in range(1, len(values), n)])


def _lolib_fast(lines: list[str], start: int) -> Optional[LopInstance]:
    """The instance of lines[start:] if int() reads n and n*n entries that LopInstance takes, else None.

    On text without '_', int() reads exactly the tokens _is_int accepts: both readers give the same values.
    """
    body = lines[start:]
    if any("_" in line for line in body):
        return None
    try:
        values = tuple(map(int, chain.from_iterable(map(str.split, body))))  # split line by line
        # n < 1 gives no rows, or a zero range() step: a ValueError either way
        return _square(values) if len(values) == values[0] * values[0] + 1 else None
    except ValueError:
        return None


def _lolib_located(lines: list[str], start: int) -> list[int]:
    """[n, entries...] of lines[start:] (dimension checked first), or a ParseError at the first bad token."""
    head = _tokenize_line(lines[start], start + 1)
    n = _as_int(head[0], "dimension n")
    if n <= 1:
        raise ParseError(f"n must be >= 2, got {n}", head[0].line, head[0].col)

    rest = enumerate(lines[start + 1 :], start=start + 2)
    entries = head[1:] + [t for ln, raw in rest for t in _tokenize_line(raw, ln)]
    need = n * n
    if len(entries) < need:
        raise ParseError(f"expected {need} matrix entries, found {len(entries)}", len(lines))
    if len(entries) > need:
        extra = entries[need]
        raise ParseError(f"expected {need} matrix entries, found {len(entries)}", extra.line, extra.col)
    return [n] + [_as_int(t, "matrix entry") for t in entries]


def serialize_lolib(instance: LopInstance, name: str = "instance") -> str:
    """The instance as parse_lolib reads it back, under a one-line name that cannot pass for the dimension."""
    first = name.removeprefix("\ufeff").split(None, 1)  # load_instance drops one leading byte-order mark
    if "\n" in name or "\r" in name or (first and _is_int(first[0])):
        raise ValueError(f"name {name!r} would not read back as a header line")
    out = [name, str(instance.n)]
    for row in instance.cost:
        out.append(" ".join(map(str, row)))
    return "\n".join(out) + "\n"


def parse_edge_list(text: str) -> MaxCutInstance:
    """Parse a weighted graph: "n m" header, then m "i j w" lines (1-based ids).

    Each edge goes to MaxCutInstance as its line is read by str.split and int(); text that
    it or that fast read rejects is reread token by token to raise a located ParseError.
    """
    inst = _edge_list_fast(text)
    return inst if inst is not None else _built(MaxCutInstance, *_edge_list_located(text))


def _edge_list_fast(text: str) -> Optional[MaxCutInstance]:
    """The graph of text if int() reads an "n m" line and m "i j w" lines that MaxCutInstance takes, else None."""
    try:
        return MaxCutInstance(*_edge_list_values(text))
    except ValueError:
        return None


def _edge_list_values(text: str) -> tuple[int, Iterator[tuple[int, int, int]]]:
    """(n, 0-based edges) read by str.split and int() alone. n is judged before any edge line is split,
    so a bad header costs no bulk read; the edges are read one line at a time as they are taken, and
    end in a ValueError unless the lines after the header are m "i j w" lines."""
    first = _TOKEN.search(text)
    if "_" in text or first is None:
        raise ValueError("no header line of plain ints")
    body = text.find("\n", first.start()) + 1 or len(text)  # the edge lines start here
    header = text[first.start() : body].split()
    if len(header) != 2:
        raise ValueError("not an 'n m' header")
    n, m = map(int, header)
    check_vertex_count(n)

    def edges(left: int) -> Iterator[tuple[int, int, int]]:
        for line in text[body:].split("\n"):
            if line and not line.isspace():
                u, v, w = line.split()  # a ValueError unless three tokens
                yield int(u) - 1, int(v) - 1, int(w)
                left -= 1
        if left:
            raise ValueError("not m 'i j w' lines")

    return n, edges(m)


def _edge_list_located(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """(n, 0-based edges) of text (header checked first), or a ParseError at the first bad line or token."""
    numbered = enumerate((line.group() for line in _LINE.finditer(text)), start=1)  # lazily: header first
    rows = (toks for ln, raw in numbered for toks in [_tokenize_line(raw, ln)] if toks)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty input", 1)
    if len(header) != 2:
        raise ParseError(f"header must be 'n m', found {len(header)} token(s)", header[0].line, header[0].col)
    n = _as_int(header[0], "vertex count n")
    m = _as_int(header[1], "edge count m")
    try:
        check_vertex_count(n)
    except ValueError as exc:
        raise ParseError(str(exc), header[0].line, header[0].col) from None
    if m < 0:
        raise ParseError(f"m must be >= 0, got {m}", header[1].line, header[1].col)

    body = list(rows)
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


def read_utf8(path: Union[str, Path]) -> str:
    """The file's text decoded as UTF-8 whatever the locale, with universal
    newlines and without one leading byte-order mark, which spreadsheet tools
    write; a byte that is not UTF-8 is a ParseError at its line and column."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _newlines(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"not UTF-8: byte 0x{data[exc.start]:02x}", head.count("\n") + 1, len(head) - head.rfind("\n")
        ) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    # the test first: replace() scans the whole text even when "\r" is absent
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_instance(path: Union[str, Path], problem: str) -> ProblemInstance:
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem: {problem!r}")
    try:
        text = read_utf8(path)
        return parse_lolib(text) if problem == LOP else parse_edge_list(text)
    except ParseError as exc:
        located = ParseError(f"{path}: {exc.args[0]}")
        located.line, located.col = exc.line, exc.col
        raise located from None


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


class OptionError(ValueError):
    """A flag/config/method option failed to parse or validate."""


def int_option(key: str, raw) -> int:
    # text without '_' or a true int only: int() would truncate 2.5, read True
    # as 1 and read 1_0 as 10, where the instance parsers reject '_'
    if (isinstance(raw, str) and "_" not in raw) or (isinstance(raw, int) and not isinstance(raw, bool)):
        try:
            return int(raw)
        except ValueError:
            pass
    raise OptionError(f"{key}: expected an integer, got {raw!r}")


def seed_list(raw: str) -> list[int]:
    """Comma-separated seeds in 0..2^64-1; a repeated seed is an OptionError."""
    seeds = [int_option("seeds", s) for s in raw.split(",")]
    if not all(0 <= s < 2**64 for s in seeds):
        raise OptionError(f"seeds: each must be in 0..2^64-1, got {raw!r}")
    if len(set(seeds)) != len(seeds):
        raise OptionError("duplicate seeds")
    return seeds


def float_option(key: str, raw) -> float:
    # float() would read True as 1.0 and 1_0 as 10.0
    if not isinstance(raw, bool) and not (isinstance(raw, str) and "_" in raw):
        try:
            return float(raw)
        except (TypeError, ValueError):
            pass
    raise OptionError(f"{key}: expected a number, got {raw!r}")


def _choice(table: Mapping[str, object]) -> Callable[[str, object], object]:
    def parse(key: str, raw) -> object:
        raw = str(raw)
        if raw not in table:
            raise OptionError(f"{key}: expected one of {'|'.join(table)}, got {raw!r}")
        return table[raw]

    return parse


def _names(*names: str) -> dict[str, str]:
    return {name: name for name in names}


def _inpath_ls(key: str, raw) -> dict[str, object]:
    raw = str(raw)
    if raw in (LS_NONE, LS_ALL, LS_BEST):
        return {"in_path_ls": raw}
    if not raw.startswith(f"{LS_EVERY}:"):
        raise OptionError(f"{key}: expected none|all|every:Q|best, got {raw!r}")
    try:
        return {"in_path_ls": LS_EVERY, "ls_every": int_option(key, raw.split(":", 1)[1])}
    except OptionError:
        raise OptionError(f"{key}: bad period in {raw!r}") from None


@dataclass(frozen=True)
class Option:
    """One search option: a flag, config-file key and method-spec key at once."""

    key: str
    config: str  # the config it sets: "run", "rcl" or "pr"
    field: Optional[str]  # None when parse returns {field: value} for several fields
    parse: Callable[[str, object], object]  # (key, raw text) -> value, or OptionError
    metavar: str
    help: str  # argparse help text, so a literal % is written %%


# Every search option, in the order flags are listed and parsed. Unset options
# keep the defaults of RunConfig, RclConfig and PrConfig.
OPTIONS = (
    Option("variant", "run", "variant", _choice(_names(*VARIANTS)), "V",
           "semigreedy | grasp | static_pr | dynamic_pr | evolutionary_pr (default grasp)"),
    Option("direction", "pr", "direction",
           _choice({"forward": FORWARD, "backward": BACKWARD, "bf": BACK_AND_FORWARD,
                    "back_and_forward": BACK_AND_FORWARD, "mixed": MIXED}), "D",
           "relink direction: forward | backward | bf | mixed (default: mixed for lop, forward for maxcut)"),
    Option("step", "pr", "step", _choice(_names(GREEDY, GREEDY_RANDOMIZED)), "S",
           "relink step selection: greedy | grpr (default: grpr for lop, greedy for maxcut)"),
    Option("rcl-size", "pr", "rcl_size", int_option, "N", "candidate moves kept per grpr step (default 3)"),
    Option("trunc", "pr", "truncation", float_option, "RHO",
           "fraction of each relink path walked, in (0,1] (default 1.0)"),
    Option("min-dist", "pr", "min_distance", int_option, "N",
           "skip relinking below this symmetric difference (default 4)"),
    Option("inpath-ls", "pr", None, _inpath_ls, "P",
           "local search along the path: none | all | every:Q | best (default: best for lop, every:5 for maxcut)"),
    Option("depth", "run", "depth",
           _choice({"first": SearchDepth.FIRST_IMPROVING, "best": SearchDepth.BEST_IMPROVING}), "D",
           "local search rule: first | best (default best)"),
    Option("alpha-min", "rcl", "alpha_low", float_option, "F",
           "lower end of the construction greediness range (default 0.0)"),
    Option("alpha-max", "rcl", "alpha_high", float_option, "F",
           "upper end of the construction greediness range; 0 means pure greedy (default 0.3)"),
    Option("rcl-mode", "rcl", "mode", _choice({"value": VALUE, "card": CARDINALITY}), "M",
           "candidate restriction: value | card (default value)"),
    Option("elite-k", "run", "elite_k", int_option, "N", "elite pool capacity (default 10)"),
    Option("dth", "run", "d_th", int_option, "N", "pool diversity threshold (default: 5%% of n, at least 1)"),
    Option("guide", "run", "guide_policy", _choice(_names(UNIFORM, PROPORTIONAL_DELTA)), "G",
           "guide selection: uniform | pdelta (default uniform)"),
    Option("kappa", "run", "restart_kappa", int_option, "N",
           "restart after N iterations without improvement (dynamic_pr and evolutionary_pr only;"
           " default: no restarts)"),
    Option("static-sample", "run", "static_sample", int_option, "N",
           "constructions before the static relinking phase (default 100)"),
)
OPTION_KEYS = tuple(opt.key for opt in OPTIONS)

# winners of the per-problem tuning runs, where they differ from PrConfig's defaults
_PROBLEM_PR_DEFAULTS = {
    LOP: {"direction": MIXED, "step": GREEDY_RANDOMIZED, "in_path_ls": LS_BEST},
    MAXCUT: {"in_path_ls": LS_EVERY},
}


def build_run_config(
    problem: str,
    options: Mapping[str, str],
    seed: int,
    time_limit: Optional[float],
    iteration_limit: Optional[int],
) -> RunConfig:
    """Translate flat string options into a validated RunConfig.

    Unset keys keep the config dataclasses' defaults, over which the problem's
    relinking defaults apply; unknown keys are errors.
    """
    if problem not in PROBLEMS:
        raise OptionError(f"unknown problem: {problem!r}")
    fields: dict[str, dict] = {"run": {}, "rcl": {}, "pr": dict(_PROBLEM_PR_DEFAULTS[problem])}
    for opt in OPTIONS:
        if opt.key in options:
            value = opt.parse(opt.key, options[opt.key])
            fields[opt.config].update(value if opt.field is None else {opt.field: value})
    unknown = set(options).difference(OPTION_KEYS)
    if unknown:
        raise OptionError(f"unknown option(s): {', '.join(sorted(unknown))}")

    try:
        return RunConfig(
            seed=seed,
            time_limit=time_limit,
            iteration_limit=iteration_limit,
            rcl=RclConfig(**fields["rcl"]),
            pr=PrConfig(**fields["pr"]),
            **fields["run"],
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


class RunRow(NamedTuple):
    """One completed benchmark cell, as a results.csv row."""

    method: str
    instance: str
    seed: int
    best_objective: int
    iterations: int
    elapsed_s: float
    restarts: int
    pr_calls: int
    pr_improvements: int


@functools.lru_cache(maxsize=1)
def _instance(problem: str, path: str) -> ProblemInstance:
    """The instance of one file; consecutive cells on it (how the grids here are
    ordered) share one parse, and memory stays bounded."""
    return load_instance(path, problem)


def run_cell(spec: CellSpec) -> RunRow:
    try:
        instance = _instance(spec.problem, spec.instance_path)
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
            pr_calls=report.pr_calls,
            pr_improvements=report.pr_improvements,
        )
    except Exception as exc:
        _instance.cache_clear()  # a failed run may leave a cached max-cut gain table half flipped
        raise BenchError(
            f"cell failed (method={spec.method} instance={spec.instance_name} seed={spec.seed}): {exc}",
            failures=[CellFailure(spec.method, spec.instance_name, spec.seed, str(exc))],
        ) from exc


def run_grid(cells: Sequence[CellSpec], jobs: int = 1) -> list[RunRow]:
    """Execute all cells; results are independent of scheduling and job count.

    Every cell runs even when some fail; then one BenchError carries the
    completed rows and every failure. Each worker parses a file once for a
    run of consecutive cells on it; the file must not change during the call.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _instance.cache_clear()  # nothing parsed before the call is reused
    try:
        if jobs == 1 or len(cells) <= 1:
            rows, errors = _collect(functools.partial(run_cell, c) for c in cells)
        else:
            from concurrent.futures import ProcessPoolExecutor

            # the pool starts all its workers up front, so no more than there are cells
            with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
                rows, errors = _collect([pool.submit(run_cell, c).result for c in cells])
    finally:
        _instance.cache_clear()
    if errors:
        failures = [f for e in errors for f in e.failures]
        raise BenchError(f"{len(errors)} of {len(cells)} cells failed; first {errors[0]}", rows, failures) from errors[0]
    return rows


def _collect(calls: Iterable[Callable[[], RunRow]]) -> tuple[list[RunRow], list[BenchError]]:
    """The rows of the calls that return, in order, and the BenchErrors of those that raise."""
    rows, errors = [], []
    for call in calls:
        try:
            rows.append(call())
        except BenchError as exc:
            errors.append(exc)
    return rows, errors


def _write_csv(sink: IO[str], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    import csv

    w = csv.writer(sink, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def write_results_csv(rows: Sequence[RunRow], sink: IO[str]) -> None:
    """One row per cell, sorted by (method, instance, seed) for stable diffs."""
    _write_csv(sink, RunRow._fields, (r._replace(elapsed_s=f"{r.elapsed_s:.6f}") for r in sorted(rows)))


def write_failures_csv(failures: Sequence[CellFailure], sink: IO[str]) -> None:
    """One row per failed cell, sorted by (method, instance, seed) as results.csv is."""
    _write_csv(sink, CellFailure._fields, sorted(failures))


class StatsRow(NamedTuple):
    """One method's summary, as a stats.csv row."""

    method: str
    best: int  # instances on which the method attains the experiment best
    dev_pct: Optional[float]  # mean 100*(B_e - v)/B_e over instances with B_e > 0
    best_known: Optional[int]  # instances reaching at least the supplied best-known value
    dev_known_pct: Optional[float]  # signed; negative means better than best-known


def compute_stats(
    rows: Sequence[RunRow],
    method_order: Sequence[str],
    best_known: Optional[Mapping[str, int]] = None,
) -> list[StatsRow]:
    """Per-method summary of each method's best over seeds, against the
    experiment best and optional best-known values, in method_order.

    Deviations are undefined (reported as None) for instances whose reference
    value is <= 0; #Best counts use exact integer comparison and count every
    tied method.
    """
    results: dict[tuple[str, str], int] = {}
    for r in rows:
        key = (r.method, r.instance)
        results[key] = max(results.get(key, r.best_objective), r.best_objective)
    methods = list(method_order)
    instances = sorted({i for _, i in results})
    if not methods or not instances:
        raise ValueError("no results")
    for m in methods:
        for i in instances:
            if (m, i) not in results:
                raise ValueError(f"missing cell: method {m!r} on instance {i!r}")

    exp_best = {i: max(results[m, i] for m in methods) for i in instances}
    known = [i for i in instances if i in best_known] if best_known else []
    stats = []
    for m in methods:
        got = {i: results[m, i] for i in instances}
        best = sum(1 for i in instances if got[i] == exp_best[i])
        best_k = sum(1 for i in known if got[i] >= best_known[i]) if known else None
        dev_k = _mean_dev(best_known, got, known)
        stats.append(StatsRow(m, best, _mean_dev(exp_best, got, instances), best_k, dev_k))
    return stats


def _mean_dev(reference: Mapping[str, int], got: Mapping[str, int], instances: Sequence[str]) -> Optional[float]:
    """Mean of 100*(reference - got)/reference over the instances whose reference is > 0; None if none is."""
    devs = [100.0 * (reference[i] - got[i]) / reference[i] for i in instances if reference[i] > 0]
    return sum(devs) / len(devs) if devs else None


STATS_HEADER = ["method", "#Best", "%Dev", "#Best_k", "%Dev_k"]


def _fmt_stat(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_stats_csv(stats: Sequence[StatsRow], sink: IO[str]) -> None:
    _write_csv(sink, STATS_HEADER, (map(_fmt_stat, r) for r in stats))


def read_best_known(path: Union[str, Path]) -> dict[str, int]:
    """Load "instance,value" lines; blank lines and "#" comments are skipped.

    A header row is tolerated as the first line that is neither; a repeated instance is a ParseError.
    """
    table: dict[str, int] = {}
    numbered = enumerate(read_utf8(path).splitlines(), start=1)
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
        if name in table:
            raise ParseError(f"duplicate best-known row for {name!r}", ln)
        try:
            table[name] = int(value)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"best-known value too long: {len(value)} characters", ln) from None
    return table


def emit_profile(report: RunReport, sink: IO[str]) -> None:
    """Incumbent trajectory: one row per improvement plus a closing row."""
    points = [*report.incumbent_series, (report.elapsed_s, report.best_objective)]
    _write_csv(sink, ["elapsed_s", "objective"], ([f"{elapsed:.6f}", objective] for elapsed, objective in points))
