#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lop-evpr --seed 1 --seconds 30 --trace 0

Run from the repository root. The solver is imported from ./src; without it
the script exits with status 2 and prints no result. Instances are generated
from --seed into a scratch directory under the root, which is removed at the
end. Passes of the workload's fixed work repeat until --seconds is used up
(at least two passes). --trace 0 prints the end-to-end metrics, --trace 1
alternates untraced and traced passes and prints the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
MIN_PASSES = 2

E2E_UNITS = {"wall_s": "s", "ttt_s": "s", "gap_pct": "%", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def machine_facts() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers count through RUSAGE_CHILDREN
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def measure_setup(prepared) -> tuple[float, dict]:
    """Median time, at reference speed, to load every instance file through bench_io.load_instance."""
    import grasppr.bench_io
    from perfbench.probe import Scaler

    times, instances = [], {}
    scaler = Scaler()
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        for p in prepared:
            instances[p.spec.name] = grasppr.bench_io.load_instance(p.path, p.spec.problem)
        elapsed = time.perf_counter() - started
        times.append(elapsed * scaler.factor())
    return statistics.median(times), instances


class Gate:
    """Counts operations, failures, and digests that change between passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, results) -> None:
        for r in results:
            self.attempted += 1
            error = r.error
            if error is None:
                first = self.digests.setdefault(r.key, r.digest)
                if first != r.digest:
                    error = f"determinism digest {r.digest} differs from the first pass ({first})"
            if error is not None:
                self.failures.append(f"{r.key}: {error}")


def run_passes(run_pass, seconds: float, gate: Gate) -> list:
    """Repeat run_pass until another pass would overrun `seconds`; at least MIN_PASSES."""
    passes = []
    started = time.perf_counter()
    while True:
        raw, scaled, results = run_pass()
        gate.record(results)
        passes.append((raw, scaled, results))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(p[0] for p in passes) > seconds:
            return passes


def make_pass(workload, prepared, instances, receive=lambda r: r):
    """A callable running one pass -> (wall s, wall s at reference speed, results), and the lane count."""
    from perfbench import workloads as wl

    if workload.search:
        ops = wl.search_ops(workload, prepared)

        def run_pass():
            results = wl.run_search_pass(ops, instances)
            return sum(r.seconds for r in results), sum(r.seconds * r.scale for r in results), results

        return run_pass, 1
    cells = wl.grid_cells(workload, prepared)
    jobs = wl.grid_jobs()

    def run_grid():
        wall, scale, results = wl.run_grid_pass(cells, prepared, jobs, receive)
        return wall, wall * scale, results

    return run_grid, jobs


def end_to_end(workload, passes, prepared, setup_s: float) -> dict:
    by_name = {p.spec.name: p for p in prepared}
    per_op: dict[str, list] = {}
    for _, _, results in passes:
        for r in results:
            per_op.setdefault(r.key, []).append(r)
    ttts, gaps = [], []
    for key, rs in per_op.items():
        ok = [r for r in rs if r.error is None]
        if not ok:
            continue
        ttts.append(statistics.median(r.ttt for r in ok))
        reference = by_name[key.split("/")[0]].reference
        gaps.append(100 * (reference - ok[0].objective) / reference)
    if workload.search:
        # the fixed work is every solve once: sum each solve's median time
        wall = sum(statistics.median(r.seconds * r.scale for r in rs) for rs in per_op.values())
    else:
        wall = statistics.median(scaled for _, scaled, _ in passes)
    return {
        "wall_s": wall,
        "ttt_s": statistics.median(ttts) if ttts else 0.0,
        "gap_pct": statistics.fmean(gaps) if gaps else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, prepared, instances, seconds: float, gate: Gate) -> dict:
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    tracer = Tracer()
    run_pass, lanes = make_pass(workload, prepared, instances, tracer.receive)
    untraced, traced_walls, traced_scaled, grid_eff = [], [], [], []
    started = time.perf_counter()
    while True:
        raw, scaled, results = run_pass()
        gate.record(results)
        untraced.append(scaled)
        if not workload.search:
            grid_eff.append(sum(r.seconds for r in results) / (lanes * raw))
        tracer.install(layers.HOOKS)
        try:
            raw, scaled, results = run_pass()
        finally:
            tracer.uninstall()
        gate.record(results)
        traced_walls.append(raw)
        traced_scaled.append(scaled)
        if time.perf_counter() - started + statistics.median(traced_walls) * 2 > seconds:
            break
    metrics, remainder = layers.layer_metrics(tracer, len(traced_walls), lanes * sum(traced_walls))
    metrics["bench_io.run_grid.parallel_eff"] = statistics.median(grid_eff) if grid_eff else 0.0
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced_scaled) / statistics.median(untraced) - 1)
    print(
        f"traced wall {sum(traced_walls):.4f} s x {lanes} lane(s) = "
        f"self time of traced functions {lanes * sum(traced_walls) - remainder:.4f} s "
        f"+ untraced remainder {remainder:.4f} s"
    )
    if tracer.missing:
        print(f"hooks not found, metrics left out: {', '.join(tracer.missing)}")
    return {name: (value, layers.unit_of(name)) for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "grasppr" / "__init__.py").is_file():
        print(f"perfbench: solver sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    from perfbench import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 64
    workload = wl.WORKLOADS[args.workload]
    facts = machine_facts()
    refs = wl.load_references()
    workdir = ROOT / ".perfbench-work" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    gate = Gate()
    try:
        prepared = wl.prepare(workload, args.seed, workdir, refs)
        stored_mismatches = wl.check_stored(prepared, args.seed, refs)
        setup_s, instances = measure_setup(prepared)
        if args.trace:
            metrics = traced(workload, prepared, instances, args.seconds, gate)
        else:
            run_pass, _ = make_pass(workload, prepared, instances)
            passes = run_passes(run_pass, args.seconds, gate)
            values = end_to_end(workload, passes, prepared, setup_s)
            metrics = {name: (value, E2E_UNITS[name]) for name, value in values.items()}
            print(f"pass wall s, measured / at reference speed: " + ", ".join(f"{r:.3f}/{s:.3f}" for r, s, _ in passes))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(facts))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for problem in stored_mismatches:
        print(f"GENERATOR CHANGED {problem}")
    for failure in gate.failures[:20]:
        print(f"FAILED {failure}")
    failed = len(gate.failures)
    result = {
        "correct": failed == 0 and not stored_mismatches,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
