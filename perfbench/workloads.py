"""The benchmark's workloads, their fixed work, and the per-operation correctness gate.

One operation is one solve (``drivers.run`` on one instance with one solver
seed) or one grid cell (``bench_io.run_cell`` inside ``bench_io.run_grid``).
A pass runs every operation of the workload once; a run repeats passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from . import generators as gen
from .probe import Scaler

LOP = "lop"
MAXCUT = "maxcut"

Data = Union[gen.LopData, gen.MaxCutData]

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class InstanceSpec:
    name: str  # file stem; unique across workloads
    family: str  # key of the target share in references.json
    problem: str
    make: Callable[[int], Data]  # workload seed -> generated data

    @property
    def filename(self) -> str:
        return self.name + (".mat" if self.problem == LOP else ".el")


@dataclass(frozen=True)
class Workload:
    name: str
    search: bool  # solves through drivers.run; otherwise one bench_io.run_grid call per pass
    instances: tuple[InstanceSpec, ...]
    options: tuple[tuple[str, str], ...]  # bench_io option keys; the rest are per-problem defaults
    budget: dict  # problem -> (solver seeds, iteration limit)


def _lop(name: str, family: str, n: int) -> InstanceSpec:
    return InstanceSpec(name, family, LOP, lambda seed: gen.mb_lop(seed, name, n))


def _random_graph(name: str, family: str, n: int, density: float) -> InstanceSpec:
    return InstanceSpec(name, family, MAXCUT, lambda seed: gen.random_maxcut(seed, name, n, density))


def _torus(name: str, family: str, rows: int, cols: int) -> InstanceSpec:
    return InstanceSpec(name, family, MAXCUT, lambda seed: gen.torus_maxcut(seed, name, rows, cols))


# Why each workload exists is recorded in BENCHMARK.json; in short:
# lop-evpr is almost all insert-neighbourhood local search, maxcut-dynpr is
# relinking walks with in-path local search and GainTable rebuilds on a sparse
# partition, and grid-construct is parsing plus construction in the process
# pool with no search at all. The work of one solve varies a lot with its
# instance, so the search workloads run one solve on each of many generated
# instances; two passes of about 12 s fit one run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="lop-evpr",
            search=True,
            instances=tuple(_lop(f"mb050{x}", "mb050", 50) for x in "abcdef"),
            # elite-k 2 lets iterations 3.. relink and leaves pairs for the exhaustion phase
            options=(("variant", "evolutionary_pr"), ("elite-k", "2")),
            budget={LOP: ((1,), 5)},
        ),
        Workload(
            name="maxcut-dynpr",
            search=True,
            instances=tuple(_random_graph(f"rnd800{x}", "rnd800", 800, 0.01) for x in "abcd")
            + tuple(_torus(f"torus20x40{x}", "torus20x40", 20, 40) for x in "abcd"),
            # iterations 1-2 fill the pool and iteration 3 relinks: one walk of 230-490 steps per solve
            options=(("variant", "dynamic_pr"), ("elite-k", "2")),
            budget={MAXCUT: ((1,), 3)},
        ),
        Workload(
            name="grid-construct",
            search=False,
            instances=(
                _lop("mb150a", "mb150", 150),
                _lop("mb150b", "mb150", 150),
                _random_graph("rnd2000", "rnd2000", 2000, 0.0025),
            ),
            options=(("variant", "semigreedy"),),
            budget={LOP: ((1, 2, 3, 4, 5, 6), 5), MAXCUT: ((1, 2, 3, 4), 1)},
        ),
    )
}

def grid_jobs() -> int:
    """Worker processes for grid-construct: the usable CPUs, at most four."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Prepared:
    spec: InstanceSpec
    data: Data
    path: Path
    sha256: str
    reference: int  # upper bound computed from the generated data
    target: Optional[int]  # time-to-target threshold; None for grid instances


def upper_bound(data: Data) -> int:
    return gen.lop_upper_bound(data) if isinstance(data, gen.LopData) else gen.maxcut_upper_bound(data)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def target_for(reference: int, permille: Optional[int]) -> Optional[int]:
    """ceil(reference * permille / 1000), in exact integer arithmetic."""
    if permille is None:
        return None
    return -(-reference * permille // 1000)


def prepare(workload: Workload, seed: int, workdir: Path, refs: dict) -> list[Prepared]:
    """Generate and write every instance file of the workload for this seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = []
    for spec in workload.instances:
        data = spec.make(seed)
        text = (gen.lop_text if spec.problem == LOP else gen.maxcut_text)(data).encode()
        path = workdir / spec.filename
        path.write_bytes(text)
        reference = upper_bound(data)
        permille = refs["target_permille"][spec.family] if workload.search else None
        out.append(Prepared(spec, data, path, hashlib.sha256(text).hexdigest(), reference, target_for(reference, permille)))
    return out


def check_stored(prepared: list[Prepared], seed: int, refs: dict) -> list[str]:
    """Compare against the values stored for this seed, if any were recorded."""
    stored = refs["seeds"].get(str(seed), {})
    problems = []
    for p in prepared:
        want = stored.get(p.spec.name)
        if want is None:
            continue
        got = {"sha256": p.sha256, "reference": p.reference, "target": p.target}
        for key, value in want.items():
            if got[key] != value:
                problems.append(f"{p.spec.name}: {key} is {got[key]!r}, stored {value!r}")
    return problems


# ---------------------------------------------------------------------------
# operations and the correctness gate


@dataclass
class OpResult:
    key: str
    seconds: float  # measured wall time
    scale: float  # probe.Scaler factor: seconds * scale is the time at reference speed
    ttt: Optional[float]  # time to target at reference speed; cell time for grid cells
    objective: Optional[int]
    digest: Optional[str]
    error: Optional[str]  # first gate violation, or the exception


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def check_solve(report, prepared: Prepared, iterations: int) -> Optional[str]:
    """Gate one solve against the generated data, never through the solver's own evaluate."""
    data = prepared.data
    if prepared.spec.problem == LOP:
        order = getattr(report.best_solution, "order", None)
        if not isinstance(order, list) or sorted(order) != list(range(data.n)):
            return "best_solution is not a permutation of 0..n-1"
        objective = gen.lop_objective(data, order)
    else:
        bits = getattr(report.best_solution, "bits", None)
        if not isinstance(bits, list) or len(bits) != data.n or any(b not in (0, 1) for b in bits):
            return "best_solution is not a 0/1 vector of length n"
        objective = gen.maxcut_objective(data, bits)
    if objective != report.best_objective:
        return f"best_objective {report.best_objective} but the solution scores {objective}"
    series = [obj for _, obj in report.incumbent_series]
    if not series or any(b <= a for a, b in zip(series, series[1:])):
        return "incumbent_series is not strictly increasing"
    if series[-1] != report.best_objective:
        return "incumbent_series does not end at best_objective"
    if report.iterations != iterations:
        return f"ran {report.iterations} iterations, budget {iterations}"
    if report.best_objective > prepared.reference:
        return f"best_objective {report.best_objective} exceeds the upper bound {prepared.reference}"
    if time_to_target(report, prepared.target) is None:
        return f"target {prepared.target} not reached (best {report.best_objective})"
    return None


def time_to_target(report, target: int) -> Optional[float]:
    for elapsed, objective in report.incumbent_series:
        if objective >= target:
            return elapsed
    return None


def solve_digest(report) -> str:
    return _digest(
        (
            report.best_objective,
            report.iterations,
            report.pr_calls,
            report.pr_improvements,
            [obj for _, obj in report.incumbent_series],
        )
    )


def search_ops(workload: Workload, prepared: list[Prepared]):
    """(key, prepared instance, RunConfig, iterations) for every solve of one pass."""
    from grasppr import bench_io

    ops = []
    for p in prepared:
        seeds, iterations = workload.budget[p.spec.problem]
        for s in seeds:
            cfg = bench_io.build_run_config(p.spec.problem, dict(workload.options), s, None, iterations)
            ops.append((f"{p.spec.name}/s{s}", p, cfg, iterations))
    return ops


def run_search_pass(ops, instances: dict) -> list[OpResult]:
    import grasppr.drivers

    results = []
    scaler = Scaler()
    for key, prepared, cfg, iterations in ops:
        # the target falls early in a solve, so the probe just before it sets the scale
        start_scale = scaler.start_factor()
        started = time.perf_counter()
        try:
            report = grasppr.drivers.run(instances[prepared.spec.name], cfg)
        except Exception as exc:  # a crashing solve is a failed operation, not a crashed benchmark
            results.append(OpResult(key, time.perf_counter() - started, scaler.factor(), None, None, None, repr(exc)))
            continue
        seconds = time.perf_counter() - started
        scale = scaler.factor()
        error = check_solve(report, prepared, iterations)
        ttt = time_to_target(report, prepared.target)
        ttt = None if ttt is None else ttt * start_scale
        results.append(OpResult(key, seconds, scale, ttt, report.best_objective, solve_digest(report), error))
    return results


def grid_cells(workload: Workload, prepared: list[Prepared]):
    from grasppr import bench_io

    cells = []
    for p in prepared:
        seeds, iterations = workload.budget[p.spec.problem]
        for s in seeds:
            cells.append(
                bench_io.CellSpec(p.spec.problem, str(p.path), p.spec.name, workload.name, workload.options, s, None, iterations)
            )
    return cells


def run_grid_pass(cells, prepared: list[Prepared], jobs: int, receive=lambda r: r) -> tuple[float, float, list[OpResult]]:
    """One bench_io.run_grid call; returns its wall time, its probe scale and one result per cell."""
    from grasppr import bench_io

    by_name = {p.spec.name: p for p in prepared}
    scaler = Scaler()
    started = time.perf_counter()
    try:
        rows = [receive(r) for r in bench_io.run_grid(cells, jobs)]
    except Exception as exc:  # one broken cell fails the whole grid call
        wall = time.perf_counter() - started
        scale = scaler.factor()
        return wall, scale, [OpResult(f"{c.instance_name}/s{c.seed}", 0.0, scale, None, None, None, repr(exc)) for c in cells]
    wall = time.perf_counter() - started
    scale = scaler.factor()
    results = []
    for cell, row in zip(cells, rows):
        key = f"{cell.instance_name}/s{cell.seed}"
        error = check_cell(cell, row, by_name[cell.instance_name])
        digest = _digest((row.best_objective, row.iterations, row.restarts))
        results.append(OpResult(key, row.elapsed_s, scale, row.elapsed_s * scale, row.best_objective, digest, error))
    return wall, scale, results


def check_cell(cell, row, prepared: Prepared) -> Optional[str]:
    """A grid row carries no solution, so the gate checks identity, budget and bounds."""
    if (row.method, row.instance, row.seed) != (cell.method, cell.instance_name, cell.seed):
        return f"row {row.method}/{row.instance}/{row.seed} does not match its cell"
    if row.iterations != cell.iteration_limit or row.restarts != 0:
        return f"row ran {row.iterations} iterations with {row.restarts} restarts"
    if not 0 < row.best_objective <= prepared.reference:
        return f"best_objective {row.best_objective} outside (0, {prepared.reference}]"
    return None
