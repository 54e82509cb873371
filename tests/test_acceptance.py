"""Acceptance gate: ten end-to-end criteria, one test (and one pytest -v
pass/fail line) per criterion. Tolerances are pinned in the assertions;
oracle values come from tests/oracles.py, never from the package itself.
"""

import io
import math
import time
from pathlib import Path

from grasppr.bench_io import emit_profile, load_instance
from grasppr.cli import main
from grasppr.construction import RclConfig, construct
from grasppr.core import PartitionSolution, PermutationSolution, RandomStream, SearchDepth, delta, evaluate
from grasppr.drivers import RunConfig, run
from grasppr.elite_set import EliteSet
from grasppr.local_search import local_search
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance
from grasppr.path_relinking import PrConfig, relink

import oracles

TOY = Path(__file__).resolve().parent.parent / "instances" / "toy"


def test_criterion_01_lop_oracle_optimality():
    # 20 random n=8 instances, entries in [0,99]: a 200-iteration
    # evolutionary_pr run must land on the exact optimum every time, full
    # sweep under 90 s
    r = oracles.make_rng(101)
    t0 = time.monotonic()
    for k in range(20):
        cost = oracles.rand_lop_matrix(r, 8, 0, 99)
        opt = oracles.lop_optimum_dp(cost)
        if k < 3:  # cross-validate the DP against brute 8! enumeration
            assert opt == oracles.lop_optimum_enum(cost)
        cfg = RunConfig(variant="evolutionary_pr", seed=k + 1, iteration_limit=200, elite_k=6)
        report = run(LopInstance(cost), cfg)
        assert report.best_objective == opt, f"instance {k}: {report.best_objective} != {opt}"
    assert time.monotonic() - t0 < 90.0


def test_criterion_02_maxcut_oracle_optimality():
    # 20 random n=12 graphs, density 0.5, weights in [-5,10]: 200 iterations
    # of dynamic_pr must match the 2^11 enumeration on all of them, full
    # sweep under 60 s
    # the construction draws its greediness from the full (0,1] range here:
    # at n=12 the stock (0,0.3] range yields only a handful of distinct
    # starts, and one graph hides its unique optimum in a basin they miss
    r = oracles.make_rng(102)
    t0 = time.monotonic()
    for k in range(20):
        edges = oracles.rand_edges(r, 12, 0.5, -5, 10)
        opt = oracles.maxcut_optimum_enum(12, edges)
        cfg = RunConfig(
            variant="dynamic_pr", seed=k + 1, iteration_limit=200, elite_k=6,
            rcl=RclConfig(alpha_high=1.0), restart_kappa=2000,
        )
        report = run(MaxCutInstance(12, edges), cfg)
        assert report.best_objective == opt, f"graph {k}: {report.best_objective} != {opt}"
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_delta_evaluation_exactness():
    # 10^4 solutions per problem, integer equality between full re-evaluation
    # and the incremental delta of the package's best and first move and of
    # one random move of the reference scan
    r = oracles.make_rng(103)
    lop = LopInstance(oracles.rand_lop_matrix(r, 8, -50, 99))
    mc = MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -9, 9))
    for inst, new, value in (
        (lop, lambda: PermutationSolution(oracles.rand_perm(r, 8)), lambda sol: oracles.lop_value(lop.cost, sol.order)),
        (mc, lambda: PartitionSolution(oracles.rand_bits(r, 10)), lambda sol: oracles.cut_value(mc.edges, sol.bits)),
    ):
        for _ in range(10000):
            sol = new()
            before = evaluate(inst, sol)
            moves = oracles.all_moves(inst, sol)
            picked = (moves[r.randrange(len(moves))], inst.best_move(sol), inst.first_move(sol, r.randrange(inst.n)))
            for move in filter(None, picked):
                after = sol.copy()
                inst.apply_move(after, move)
                assert value(after) == before + move.delta
                assert after.cached_objective == before + move.delta


def _usable_insertions(order, target):
    """Strictly-reducing insertions that do not land exactly on the target;
    these are precisely the moves an interior relink walk may take."""
    out = []
    tpos = {v: i for i, v in enumerate(target)}
    for e in oracles.reducing_insertions(order, target):
        l = list(order)
        l.pop(l.index(e))
        l.insert(tpos[e], e)
        if l != list(target):
            out.append(e)
    return out


def test_criterion_04_pr_path_laws():
    r = oracles.make_rng(104)
    mc = MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -5, 10))
    lop = LopInstance(oracles.rand_lop_matrix(r, 8, 0, 99))
    interior = PrConfig(direction="forward", truncation=1.0, min_distance=0)
    mixed = PrConfig(direction="mixed", truncation=1.0, min_distance=0)
    guarded = PrConfig(direction="forward")  # stock min_distance of 4

    for _ in range(1000):
        bits_s, bits_t = oracles.rand_bits(r, 10), oracles.rand_bits(r, 10)
        if bits_s == bits_t:
            bits_t[r.randrange(10)] ^= 1
        s, t = PartitionSolution(bits_s), PartitionSolution(bits_t)
        evaluate(mc, s)
        evaluate(mc, t)
        d0 = delta(s, t)
        worse = t if s.cached_objective >= t.cached_objective else s
        better = s if worse is t else t

        # interior, full path: exactly |delta|-1 intermediates, each closer
        # to the better endpoint, which guides a forward walk
        with oracles.record_path(mc) as path:
            relink(mc, s, t, interior, RandomStream(1))
        assert len(path) == d0 - 1
        dists = [delta(v, better) for v, _, _ in path]
        assert dists == list(range(d0 - 1, 0, -1))

        # mixed: the walk always closes the gap to exactly one flip
        heads = [worse, better]
        with oracles.record_path(mc) as path:
            relink(mc, s, t, mixed, RandomStream(1))
        for v, i, _ in path:
            heads[i] = v
        assert delta(*heads) == 1

        # guard: empty trace exactly when the endpoints are too close
        _, trace = relink(mc, s, t, guarded, RandomStream(1))
        assert (trace.visited == []) == (d0 < 4)

    guard_traps = 0
    for _ in range(1000):
        orders = (oracles.rand_perm(r, 8), oracles.rand_perm(r, 8))
        if orders[0] == orders[1]:
            continue
        s, t = PermutationSolution(orders[0]), PermutationSolution(orders[1])
        evaluate(lop, s)
        evaluate(lop, t)
        d0 = delta(s, t)
        worse = t if s.cached_objective >= t.cached_objective else s
        better = s if worse is t else t

        # interior: at most |delta|-1 intermediates, distance strictly falls
        with oracles.record_path(lop) as path:
            relink(lop, s, t, interior, RandomStream(1))
        assert len(path) <= d0 - 1
        prev = d0
        for v, _, _ in path:
            assert delta(v, better) < prev
            prev = delta(v, better)
        # an early stop is only legal when no usable insertion remained
        if len(path) < d0 - 1:
            last = path[-1][0] if path else worse
            assert _usable_insertions(last.order, better.order) == []

        # mixed: ends budget-exhausted, or with the mover provably stuck
        # (orders never differ in exactly one position, so heads meeting at
        # distance 2 with only arriving insertions left is the normal close)
        with oracles.record_path(lop) as path:
            relink(lop, s, t, mixed, RandomStream(1))
        budget = math.ceil(d0 - 1)
        heads = [worse, better]
        for v, i, _ in path:
            heads[i] = v
        h0, h1 = heads
        if len(path) < 2 * budget and delta(h0, h1) > 1:
            mover, other = (h0, h1) if len(path) % 2 == 0 else (h1, h0)
            assert _usable_insertions(mover.order, other.order) == []

        # guard: below the threshold always empty; above it, an empty trace
        # must coincide with the no-usable-insertion trap at the endpoints
        _, trace = relink(lop, s, t, guarded, RandomStream(1))
        if d0 < 4:
            assert trace.visited == []
        elif trace.visited == []:
            assert _usable_insertions(worse.order, better.order) == []
            guard_traps += 1
    assert guard_traps < 150  # step-0 traps stay the rare exception


def test_criterion_05_elite_set_laws():
    r = oracles.make_rng(105)
    es = EliteSet(capacity=8, diversity_threshold=2)
    mirror = oracles.EliteMirror(8, 2)
    for _ in range(10_000):
        bits = oracles.rand_bits(r, 12)
        f = r.randint(0, 40)
        was_full = len(es.members) == 8
        worst = min((obj for _, obj in es.members), default=None)
        got = es.try_add(PartitionSolution(bits, f))
        added, reason = mirror.add(bits, f)
        assert got.added == added and got.reason == reason
        assert len(es.members) <= 8
        if was_full and got.added:
            assert f > worst  # never admit at-or-below the worst when full
        have = sorted((s.bits, obj) for s, obj in es.members)
        want = sorted((b, obj) for b, obj in mirror.members)
        assert have == want


def test_criterion_06_local_search_dominance():
    r = oracles.make_rng(106)
    problems = (
        LopInstance(oracles.rand_lop_matrix(r, 8)),
        MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -5, 10)),
    )
    for inst in problems:
        rng = RandomStream(606)
        for _ in range(1000):
            start = construct(inst, RclConfig(), rng)
            out = local_search(inst, start, SearchDepth.BEST_IMPROVING, rng)
            assert out.cached_objective >= start.cached_objective
            locally_optimal = all(m.delta <= 0 for m in oracles.all_moves(inst, start))
            assert (out.cached_objective == start.cached_objective) == locally_optimal


def test_criterion_07_guide_selection_distribution():
    es = EliteSet(capacity=3, diversity_threshold=1)
    members = {
        (1,): [1] + [0] * 15,
        (2,): [0, 1, 1] + [0] * 13,
        (7,): [0] * 3 + [1] * 7 + [0] * 6,
    }
    for f, bits in zip((5, 6, 7), members.values()):
        assert es.try_add(PartitionSolution(bits, f)).added
    ref = PartitionSolution([0] * 16)
    rng = RandomStream(707)
    trials = 100_000
    counts = {1: 0, 2: 0, 7: 0}
    for _ in range(trials):
        guide = es.select_guide(ref, "pdelta", rng)
        counts[sum(guide.bits)] += 1
    for dist, expect in ((1, 0.1), (2, 0.2), (7, 0.7)):
        assert abs(counts[dist] / trials - expect) < 0.01


def _masked_results(path):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    for row in rows[1:]:
        row[5] = "X"  # elapsed_s is the only wall-clock column
    return rows


def test_criterion_08_benchmark_determinism(tmp_path, capsys):
    base = [
        "bench", "--problem", "lop", "--instances", str(TOY),
        "--method", "dynamic_pr:elite-k=3", "--method", "grasp",
        "--seeds", "1,2", "--iters", "5",
    ]
    for name, jobs in (("one", "1"), ("two", "1"), ("wide", "8")):
        assert main([*base, "--out", str(tmp_path / name), "--jobs", jobs]) == 0
        capsys.readouterr()
    first = _masked_results(tmp_path / "one" / "results.csv")
    assert first == _masked_results(tmp_path / "two" / "results.csv")
    assert first == _masked_results(tmp_path / "wide" / "results.csv")


def test_criterion_09_restart_semantics():
    flat = LopInstance([[0] * 6 for _ in range(6)])
    cfg = RunConfig(variant="dynamic_pr", seed=1, iteration_limit=100, restart_kappa=10)
    report = run(flat, cfg)
    # iteration 1 sets the incumbent; every later iteration stagnates, so the
    # counter hits 10 at iterations 11, 21, ..., 91
    assert report.restarts == 9
    assert report.iterations == 100
    assert report.best_objective == 0
    assert len(report.incumbent_series) == 1  # the incumbent survived every restart


def test_criterion_10_profile_and_table_shape(tmp_path, capsys):
    inst = load_instance(TOY / "lop-n10-a.mat", "lop")
    report = run(inst, RunConfig(variant="dynamic_pr", seed=3, iteration_limit=40, elite_k=4))
    sink = io.StringIO()
    emit_profile(report, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "elapsed_s,objective"
    objs = [int(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs)  # monotone trajectory
    assert len(set(objs[:-1])) == len(objs[:-1])  # one row per strict improvement

    code = main([
        "bench", "--problem", "lop", "--instances", str(TOY),
        "--method", "grasp", "--method", "grasp:depth=best",
        "--seeds", "1", "--iters", "3", "--out", str(tmp_path / "shape"),
    ])
    capsys.readouterr()
    assert code == 0
    stats = (tmp_path / "shape" / "stats.csv").read_text().splitlines()
    assert stats[0] == "method,#Best,%Dev,#Best_k,%Dev_k"
    n_instances = len(sorted(TOY.glob("*.mat")))
    assert len(stats) == 3
    for line in stats[1:]:
        method, best, dev, best_k, dev_k = line.split(",")
        # same configuration under two labels: both tie for best everywhere
        assert int(best) == n_instances
        assert dev == "0.000"
        assert best_k == "NA" and dev_k == "NA"
