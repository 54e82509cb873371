"""Golden traces: every driver on every bundled toy instance, frozen.

Each run is a deterministic function of (instance, config, seed) under an
iteration budget, so every RunReport field except the wall-clock times must
reproduce exactly. The expected values live in golden_trace.json; refactors
and faster kernels must leave them unchanged. Regenerate (only for a named,
justified behaviour change) with

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import json
from pathlib import Path

from grasppr import bench_io, drivers

ROOT = Path(__file__).resolve().parent.parent
TOY_DIR = ROOT / "instances" / "toy"
GOLDEN = Path(__file__).resolve().parent / "golden_trace.json"

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


if __name__ == "__main__":
    payload = {"iterations": ITERATIONS, "options": OPTIONS, "seeds": list(SEEDS), "runs": compute_traces()}
    GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload['runs'])} runs to {GOLDEN}")
