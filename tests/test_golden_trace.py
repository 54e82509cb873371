"""Golden traces: every driver on every bundled toy instance, frozen.

Each run is a deterministic function of (instance, config, seed) under an
iteration budget, so every RunReport field except the wall-clock times must
reproduce exactly. The expected values live in golden_trace.json; refactors
and faster kernels must leave them unchanged. The toys have n <= 14, so two
larger runs (a LOP n = 50 matrix and a max-cut n = 800 graph, both generated
here from fixed seeds) live in golden_trace_large.json. Those runs use the
value RCL and best-improving search only; golden_trace_paths.json freezes the
cardinality RCL, first-improving search and the swap neighbourhoods on the
toys, and the two larger runs with first-improving search. Regenerate all
three (only for a named, justified behaviour change) with

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import json
import random
from pathlib import Path

from grasppr import bench_io, drivers
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

ROOT = Path(__file__).resolve().parent.parent
TOY_DIR = ROOT / "instances" / "toy"
GOLDEN = Path(__file__).resolve().parent / "golden_trace.json"
GOLDEN_LARGE = Path(__file__).resolve().parent / "golden_trace_large.json"
GOLDEN_PATHS = Path(__file__).resolve().parent / "golden_trace_paths.json"

SEEDS = (1, 2, 3)
ITERATIONS = 25
# a small pool and sample so static relinking runs within the budget
OPTIONS = {"elite-k": "4", "static-sample": "12"}


def _toys():
    for problem in bench_io.PROBLEMS:
        for path in sorted(TOY_DIR.glob(bench_io.INSTANCE_GLOB[problem])):
            yield problem, path


def _trace(report: drivers.RunReport) -> dict:
    return {
        "best_objective": report.best_objective,
        "best_solution": bench_io.serialize_solution(report.best_solution),
        "iterations": report.iterations,
        "restarts": report.restarts,
        "pr_calls": report.pr_calls,
        "pr_improvements": report.pr_improvements,
        "incumbents": [obj for _, obj in report.incumbent_series],
    }


def compute_traces() -> dict:
    traces = {}
    for problem, path in _toys():
        instance = bench_io.load_instance(path, problem)
        for variant in drivers.VARIANTS:
            for seed in SEEDS:
                cfg = bench_io.build_run_config(problem, {"variant": variant, **OPTIONS}, seed, None, ITERATIONS)
                traces[f"{variant}/{path.stem}/{seed}"] = _trace(drivers.run(instance, cfg))
    return traces


def _large_lop() -> LopInstance:
    r = random.Random(50)
    return LopInstance([[0 if i == j else r.randint(0, 99) for j in range(50)] for i in range(50)])


def _large_maxcut() -> MaxCutInstance:
    # G-set-like: n = 800 at 1 % density, weights in [-3, 10]
    r = random.Random(800)
    n = 800
    edges = [(i, j, r.randint(-3, 10)) for i in range(n) for j in range(i + 1, n) if r.random() < 0.01]
    return MaxCutInstance(n, edges)


# (key, problem, instance factory, options, iterations)
LARGE_RUNS = (
    ("evolutionary_pr/lop-n50/1", bench_io.LOP, _large_lop, {"variant": "evolutionary_pr", "elite-k": "2"}, 5),
    ("dynamic_pr/maxcut-n800/1", bench_io.MAXCUT, _large_maxcut, {"variant": "dynamic_pr", "elite-k": "2"}, 3),
)


def compute_large_traces() -> dict:
    traces = {}
    for key, problem, make, options, iterations in LARGE_RUNS:
        cfg = bench_io.build_run_config(problem, options, 1, None, iterations)
        traces[key] = _trace(drivers.run(make(), cfg))
    return traces


# search paths the value-RCL, best-improving traces above never take
PATH_OPTIONS = {"first": {"depth": "first"}, "card": {"rcl-mode": "card"}}
PATH_VARIANTS = (drivers.GRASP, drivers.DYNAMIC_PR)


def _swap_instance(instance):
    # the neighbourhood is no run option, so the swap instances are built here
    if isinstance(instance, LopInstance):
        return LopInstance(instance.cost, neighborhood="swap")
    return MaxCutInstance(instance.n, instance.edges, neighborhood="swap")


def compute_path_traces() -> dict:
    traces = {}
    for problem, path in _toys():
        instance = bench_io.load_instance(path, problem)
        for seed in SEEDS:
            for name, extra in PATH_OPTIONS.items():
                for variant in PATH_VARIANTS:
                    options = {"variant": variant, **OPTIONS, **extra}
                    cfg = bench_io.build_run_config(problem, options, seed, None, ITERATIONS)
                    traces[f"{name}/{variant}/{path.stem}/{seed}"] = _trace(drivers.run(instance, cfg))
            cfg = bench_io.build_run_config(problem, {"variant": drivers.GRASP, **OPTIONS}, seed, None, ITERATIONS)
            traces[f"swap/{drivers.GRASP}/{path.stem}/{seed}"] = _trace(drivers.run(_swap_instance(instance), cfg))
    for key, problem, make, options, iterations in LARGE_RUNS:
        cfg = bench_io.build_run_config(problem, {**options, "depth": "first"}, 1, None, iterations)
        traces[f"first/{key}"] = _trace(drivers.run(make(), cfg))
    return traces


def test_golden_traces_reproduce():
    expected = json.loads(GOLDEN.read_text())
    assert expected["options"] == OPTIONS and expected["iterations"] == ITERATIONS
    runs = expected["runs"]
    # a trace set in which no walk ever runs would freeze nothing about relinking
    for variant in (drivers.STATIC_PR, drivers.DYNAMIC_PR, drivers.EVOLUTIONARY_PR):
        assert sum(r["pr_calls"] for k, r in runs.items() if k.startswith(variant + "/")) > 0, variant
    actual = compute_traces()
    assert sorted(actual) == sorted(runs)
    mismatched = [key for key in sorted(actual) if actual[key] != runs[key]]
    assert not mismatched, f"{len(mismatched)} run(s) diverged, first: {mismatched[0]}"


def test_large_golden_traces_reproduce():
    expected = json.loads(GOLDEN_LARGE.read_text())
    # both runs relink, so the walks and in-path searches are frozen too
    assert all(r["pr_calls"] > 0 for r in expected.values())
    actual = compute_large_traces()
    assert sorted(actual) == sorted(expected)
    for key in sorted(actual):
        assert actual[key] == expected[key], key


def test_path_golden_traces_reproduce():
    expected = json.loads(GOLDEN_PATHS.read_text())
    assert sum(r["pr_calls"] for k, r in expected.items() if f"/{drivers.DYNAMIC_PR}/" in k) > 0
    actual = compute_path_traces()
    assert sorted(actual) == sorted(expected)
    mismatched = [key for key in sorted(actual) if actual[key] != expected[key]]
    assert not mismatched, f"{len(mismatched)} run(s) diverged, first: {mismatched[0]}"


if __name__ == "__main__":
    payload = {"iterations": ITERATIONS, "options": OPTIONS, "seeds": list(SEEDS), "runs": compute_traces()}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['runs'])} runs to {GOLDEN}")
    large = compute_large_traces()
    GOLDEN_LARGE.write_text(json.dumps(large, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(large)} runs to {GOLDEN_LARGE}")
    paths = compute_path_traces()
    GOLDEN_PATHS.write_text(json.dumps(paths, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(paths)} runs to {GOLDEN_PATHS}")
