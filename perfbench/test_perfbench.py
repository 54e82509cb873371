"""Fast checks of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from grasppr import bench_io, drivers  # noqa: E402
from grasppr.core import PermutationSolution  # noqa: E402
from grasppr.drivers import RunReport  # noqa: E402

from perfbench import generators as gen  # noqa: E402
from perfbench import layers, workloads  # noqa: E402
from perfbench.tracer import Hook, Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generated_files_are_byte_identical_for_a_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    refs = workloads.load_references()
    first = workloads.prepare(w, 7, tmp_path / "a", refs)
    again = workloads.prepare(w, 7, tmp_path / "b", refs)
    other = workloads.prepare(w, 8, tmp_path / "c", refs)
    for a, b, c in zip(first, again, other):
        assert a.path.read_bytes() == b.path.read_bytes()
        assert a.sha256 == b.sha256 != c.sha256


def test_stored_references_match_the_generators(tmp_path):
    refs = workloads.load_references()
    assert refs["seeds"], "no stored seeds"
    for seed in refs["seeds"]:
        for w in workloads.WORKLOADS.values():
            prepared = workloads.prepare(w, int(seed), tmp_path / f"{w.name}-{seed}", refs)
            assert workloads.check_stored(prepared, int(seed), refs) == []
            assert all(p.spec.name in refs["seeds"][seed] for p in prepared)


def test_generated_text_parses_to_the_generated_data():
    lop = gen.mb_lop(3, "t", 9)
    assert bench_io.parse_lolib(gen.lop_text(lop)).cost == lop.matrix
    torus = gen.torus_maxcut(3, "t", 3, 4)
    assert bench_io.parse_edge_list(gen.maxcut_text(torus)).edges == torus.edges
    assert len(torus.edges) == 2 * 12 and {w for _, _, w in torus.edges} <= {-1, 1}
    graph = gen.random_maxcut(3, "g", 30, 0.2)
    assert len(graph.edges) == round(0.2 * 30 * 29 / 2)


def _lop_case(tmp_path):
    w = workloads.WORKLOADS["lop-evpr"]
    prepared = workloads.prepare(w, 1, tmp_path, workloads.load_references())[0]
    instance = bench_io.load_instance(prepared.path, "lop")
    _, _, cfg, iterations = workloads.search_ops(w, [prepared])[0]
    cfg.iteration_limit = iterations = 1
    report = drivers.run(instance, cfg)
    return prepared, report, iterations


def test_gate_accepts_a_real_solve_and_rejects_corruptions(tmp_path):
    prepared, report, iterations = _lop_case(tmp_path)
    prepared.target = report.best_objective  # reached by the only incumbent
    assert workloads.check_solve(report, prepared, iterations) is None

    def corrupt(**changes):
        fields = dict(report.__dict__, **changes)
        return workloads.check_solve(RunReport(**fields), prepared, iterations)

    assert "scores" in corrupt(best_objective=report.best_objective + 1)
    bad_order = list(report.best_solution.order)
    bad_order[0] = bad_order[1]
    assert "permutation" in corrupt(best_solution=PermutationSolution(bad_order))
    assert "permutation" in corrupt(best_solution=PermutationSolution(bad_order[:-1]))
    t, obj = report.incumbent_series[-1]
    assert "strictly increasing" in corrupt(incumbent_series=[(0.0, obj), (t, obj)])
    assert "iterations" in corrupt(iterations=iterations + 1)
    prepared.target = report.best_objective + 1
    assert "not reached" in workloads.check_solve(report, prepared, iterations)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("other", 11.0, 12.0, None),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    # the self times of a tree add up to its root's duration
    assert sum(self_times(spans)[:4]) == 10.0
    # overlapping children (worker spans) are counted once
    assert self_times([Span("p", 0.0, 10.0, None), Span("x", 1.0, 6.0, 0), Span("y", 4.0, 8.0, 0)])[0] == 3.0


def test_missing_hook_is_skipped_and_its_metrics_left_out():
    import grasppr.drivers

    original = grasppr.drivers.local_search
    tracer = Tracer()
    hooks = [
        Hook(layers.LS, "grasppr.drivers", "local_search"),
        Hook("lop.moves", "grasppr.lop", "LopInstance.no_such_hook"),
        Hook("maxcut.GainTable", "grasppr.maxcut", "NoSuchClass.__init__"),
    ]
    tracer.install(hooks)
    assert grasppr.drivers.local_search is not original
    tracer.uninstall()
    assert grasppr.drivers.local_search is original
    assert tracer.missing == ["lop.moves", "maxcut.GainTable"]
    metrics, _ = layers.layer_metrics(tracer, 1, 1.0)
    assert not any(m.startswith(("lop.moves", "maxcut.GainTable")) for m in metrics)
    assert "local_search.passes_per_call" not in metrics
    assert "local_search.local_search.calls" in metrics


def test_traced_solve_nests_spans_adds_up_and_changes_nothing(tmp_path):
    w = workloads.WORKLOADS["lop-evpr"]
    prepared = workloads.prepare(w, 1, tmp_path, workloads.load_references())[0]
    full = bench_io.load_instance(prepared.path, "lop")
    small = type(full)([row[:12] for row in full.cost[:12]])
    cfg = bench_io.build_run_config("lop", dict(w.options), 1, None, 6)
    untraced = drivers.run(small, cfg)
    tracer = Tracer()
    tracer.install(layers.HOOKS)
    try:
        started = time.perf_counter()
        report = drivers.run(small, cfg)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
    assert workloads.solve_digest(report) == workloads.solve_digest(untraced)
    metrics, remainder = layers.layer_metrics(tracer, 1, wall)
    assert metrics["drivers.run.calls"] == 1
    assert metrics["local_search.local_search.calls"] > 0
    assert metrics["path_relinking.relink.calls"] > 0
    assert metrics["lop.moves.calls"] >= metrics["local_search.local_search.calls"]
    assert 0 < metrics["local_search.in_relink_share"] < 1  # the mixed walk's in-path search
    assert remainder >= 0
    total_self = sum(metrics[f"{f}.self_s"] for f in layers.FUNCTIONS)
    assert total_self + remainder == pytest.approx(wall)


def test_run_refuses_a_tree_without_the_solver(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lop-evpr", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
