import time

import pytest

from grasppr import drivers
from grasppr.construction import RclConfig, construct
from grasppr.core import RandomStream, SearchDepth
from grasppr.drivers import RunConfig, default_diversity_threshold, run
from grasppr.elite_set import EliteSet
from grasppr.local_search import local_search
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

LOP10 = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(60), 10))
LOP2 = LopInstance([[0, 5], [3, 0]])  # single basin: every start improves to (0, 1)
MC12 = MaxCutInstance(12, oracles.rand_edges(oracles.make_rng(61), 12, 0.5, -5, 10))
GREEDY_RCL = RclConfig(alpha_low=0.0, alpha_high=0.0)


def test_single_greedy_iteration_equals_manual_pipeline():
    cfg = RunConfig(variant="grasp", seed=123, iteration_limit=1, rcl=GREEDY_RCL)
    report = run(LOP10, cfg)
    sol = construct(LOP10, GREEDY_RCL, RandomStream(123))
    sol = local_search(LOP10, sol, SearchDepth.BEST_IMPROVING, RandomStream(123))
    assert report.best_solution.order == sol.order
    assert report.best_objective == sol.cached_objective
    assert report.iterations == 1 and report.restarts == 0 and report.pr_calls == 0


def test_incumbent_series_monotone():
    cfg = RunConfig(variant="dynamic_pr", seed=7, iteration_limit=60, elite_k=4)
    report = run(LOP10, cfg)
    objs = [obj for _, obj in report.incumbent_series]
    times = [t for t, _ in report.incumbent_series]
    assert objs == sorted(set(objs))  # strictly increasing
    assert times == sorted(times)
    assert objs[-1] == report.best_objective
    assert report.best_objective == oracles.lop_value(LOP10.cost, report.best_solution.order)


def test_reports_bit_identical_across_runs():
    cfg = RunConfig(variant="evolutionary_pr", seed=31, iteration_limit=25, elite_k=3)
    a = run(MC12, cfg)
    b = run(MC12, cfg)
    assert a.best_solution == b.best_solution
    assert a.best_objective == b.best_objective
    assert a.iterations == b.iterations == 25
    assert a.restarts == b.restarts
    assert a.pr_calls == b.pr_calls
    assert a.pr_improvements == b.pr_improvements
    assert a.pr_improvements <= a.pr_calls
    assert [o for _, o in a.incumbent_series] == [o for _, o in b.incumbent_series]


def test_semigreedy_is_raw_construction():
    cfg = RunConfig(variant="semigreedy", seed=9, iteration_limit=8)
    report = run(LOP10, cfg)
    rng = RandomStream(9)
    best = max(construct(LOP10, cfg.rcl, rng).cached_objective for _ in range(8))
    assert report.best_objective == best


def test_local_search_never_hurts_the_multistart():
    semi = run(LOP10, RunConfig(variant="semigreedy", seed=5, iteration_limit=10))
    full = run(LOP10, RunConfig(variant="grasp", seed=5, iteration_limit=10))
    # identical construction stream; best-improving search only lifts each start
    assert full.best_objective >= semi.best_objective


def test_dynamic_pr_relinks_against_singleton_pool():
    cfg = RunConfig(variant="dynamic_pr", seed=3, iteration_limit=30, elite_k=1)
    report = run(LOP10, cfg)
    assert report.pr_calls >= 1
    assert report.pr_calls <= 29  # iteration 1 seeds the pool
    assert report.best_objective == oracles.lop_value(LOP10.cost, report.best_solution.order)


def test_dynamic_pr_skips_when_pool_collapses_onto_solution():
    # every start lands on the same local optimum, so the guide is either
    # identical (uniform) or carries zero relink distance (pdelta)
    for policy in ("uniform", "pdelta"):
        cfg = RunConfig(
            variant="dynamic_pr", seed=2, iteration_limit=20, elite_k=2, guide_policy=policy
        )
        report = run(LOP2, cfg)
        assert report.pr_calls == 0
        assert report.best_objective == 5
        assert report.best_solution.order == [0, 1]


def test_dynamic_pr_pdelta_relinks_varied_pool():
    cfg = RunConfig(
        variant="dynamic_pr", seed=13, iteration_limit=40, elite_k=3, guide_policy="pdelta"
    )
    report = run(LOP10, cfg)
    assert report.pr_calls >= 1


def test_static_pr_relinks_each_pool_pair_once():
    # on MC12 the pool would admit relinking outcomes, if they were resubmitted
    for inst, cfg in (
        (LOP10, RunConfig(variant="static_pr", seed=17, iteration_limit=30, static_sample=30, elite_k=4)),
        (MC12, RunConfig(variant="static_pr", seed=4, iteration_limit=5, static_sample=5, elite_k=4,
                         rcl=RclConfig(alpha_high=1.0), depth=SearchDepth.FIRST_IMPROVING)),
    ):
        report = run(inst, cfg)
        # replay the sampling phase: same stream, same admissions
        rng = RandomStream(cfg.seed)
        pool = EliteSet(4, default_diversity_threshold(inst.n))
        for _ in range(cfg.static_sample):
            sol = local_search(inst, construct(inst, cfg.rcl, rng), cfg.depth, rng)
            pool.try_add(sol)
        k = len(pool.members)
        assert report.pr_calls == k * (k - 1) // 2 <= 6
        assert report.best_objective >= max(obj for _, obj in pool.members)
        assert report.iterations == cfg.static_sample


def test_evolutionary_pr_terminates_without_time_limit():
    cfg = RunConfig(variant="evolutionary_pr", seed=19, iteration_limit=15, elite_k=3)
    report = run(MC12, cfg)
    assert report.iterations == 15
    assert report.pr_calls >= 3  # at least the initial pool pairing
    assert report.best_objective == oracles.cut_value(MC12.edges, report.best_solution.bits)


def test_evolutionary_pr_singleton_pool_has_nothing_to_relink():
    cfg = RunConfig(variant="evolutionary_pr", seed=1, iteration_limit=25)
    report = run(LOP2, cfg)
    assert report.pr_calls == 0
    assert report.best_objective == 5


def test_maybe_restart_requires_positive_kappa():
    for variant in ("dynamic_pr", "evolutionary_pr"):
        for kappa in (0, -1):
            with pytest.raises(ValueError, match="restart_kappa must be >= 1"):
                RunConfig(variant=variant, iteration_limit=10, restart_kappa=kappa)


def test_maybe_restart_below_threshold_is_a_no_op():
    # flat landscape: 5 iterations leave 4 stagnant ones after the first
    # improvement, one short of kappa=5, so the run matches one without restarts
    flat = LopInstance([[0] * 6 for _ in range(6)])
    below = run(flat, RunConfig(variant="dynamic_pr", seed=4, iteration_limit=5, elite_k=3, restart_kappa=5))
    never = run(flat, RunConfig(variant="dynamic_pr", seed=4, iteration_limit=5, elite_k=3))
    assert below.restarts == never.restarts == 0
    assert below.pr_calls == never.pr_calls == 2  # the pool was never emptied
    assert below.best_solution == never.best_solution
    assert below.best_objective == never.best_objective == 0


def test_restart_cadence_on_flat_landscape():
    # constant objective: iteration 1 sets the incumbent, nothing improves it,
    # so with kappa=5 the driver restarts at iterations 6, 11, 16, 21, 26
    flat = LopInstance([[0] * 6 for _ in range(6)])
    cfg = RunConfig(variant="dynamic_pr", seed=8, iteration_limit=30, restart_kappa=5)
    report = run(flat, cfg)
    assert report.restarts == 5
    assert report.best_objective == 0
    assert len(report.incumbent_series) == 1


def test_restart_empties_the_pool_and_a_new_epoch_reseeds_it():
    # flat landscape: after iteration 1 nothing improves, so a restart fires every
    # kappa iterations; each epoch's first elite_k iterations seed the emptied pool
    # and only the rest relink. Without the epoch reset, every iteration from the
    # third on would relink (28 walks).
    flat = LopInstance([[0] * 6 for _ in range(6)])
    for elite_k, kappa, restarts, pr_calls in ((2, 3, 9, 10), (3, 4, 7, 8)):
        cfg = RunConfig(variant="dynamic_pr", seed=8, iteration_limit=30, elite_k=elite_k, restart_kappa=kappa)
        report = run(flat, cfg)
        assert (report.restarts, report.pr_calls) == (restarts, pr_calls)
        assert report.best_objective == 0 and len(report.incumbent_series) == 1  # the incumbent survives


def test_restart_threshold_boundary():
    # 30 iterations leave 29 stagnant ones after the first improvement:
    # kappa=29 fires exactly once (at iteration 30), kappa=30 never does
    flat = LopInstance([[0] * 6 for _ in range(6)])
    at_kappa = run(flat, RunConfig(variant="dynamic_pr", seed=8, iteration_limit=30, restart_kappa=29))
    above = run(flat, RunConfig(variant="dynamic_pr", seed=8, iteration_limit=30, restart_kappa=30))
    assert at_kappa.restarts == 1
    assert above.restarts == 0


def test_time_limit_stops_the_run():
    cfg = RunConfig(variant="dynamic_pr", seed=6, time_limit=0.3)
    start = time.monotonic()
    report = run(MC12, cfg)
    assert time.monotonic() - start < 5.0
    assert report.iterations >= 1
    assert report.elapsed_s >= 0.3


@pytest.mark.parametrize("time_limit", [None, 60.0])
def test_deadline_reaches_every_descent_and_walk_only_under_a_time_limit(monkeypatch, time_limit):
    # an iteration-limited run passes no should_stop, so it never reads the clock
    seen = []

    def recording(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, kwargs.get("should_stop")))
            return fn(*args, **kwargs)

        return call

    for name in ("local_search", "relink"):
        monkeypatch.setattr(drivers, name, recording(getattr(drivers, name)))
    cfg = RunConfig(variant="dynamic_pr", seed=5, time_limit=time_limit, iteration_limit=12, elite_k=2)
    run(MC12, cfg)
    assert {name for name, _ in seen} == {"local_search", "relink"}
    stops = {stop for _, stop in seen}
    if time_limit is None:
        assert stops == {None}
    else:
        assert len(stops) == 1 and callable(*stops) and not stops.pop()()


def test_default_diversity_threshold_values():
    assert default_diversity_threshold(1) == 1
    assert default_diversity_threshold(20) == 1
    assert default_diversity_threshold(21) == 2
    assert default_diversity_threshold(100) == 5


def test_run_config_validation():
    for bad in (
        dict(variant="annealing", iteration_limit=1),
        dict(),  # no stopping rule at all
        dict(time_limit=0.0),
        dict(time_limit=float("nan")),
        dict(time_limit=float("inf")),
        dict(time_limit=float("nan"), iteration_limit=1),
        dict(iteration_limit=0),
        dict(iteration_limit=1, restart_kappa=0),
        dict(iteration_limit=1, elite_k=0),
        dict(iteration_limit=1, d_th=0),
        dict(iteration_limit=1, guide_policy="closest"),
        dict(iteration_limit=1, static_sample=0),
    ):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    # RandomStream reads a seed modulo 2^64, so a seed outside 0..2^64-1 would alias another
    for seed in (-1, 2**64, 2**64 + 1, -(2**64) + 1):
        with pytest.raises(ValueError, match="seed must be in 0..2\\^64-1"):
            RunConfig(iteration_limit=1, seed=seed)
    assert RunConfig(iteration_limit=1, seed=2**64 - 1).seed == 2**64 - 1
    # restarts act on the dynamic loop only; the other variants would ignore kappa
    for variant in ("semigreedy", "grasp", "static_pr"):
        with pytest.raises(ValueError, match="restart_kappa applies only to dynamic_pr and evolutionary_pr"):
            RunConfig(variant=variant, iteration_limit=1, restart_kappa=1)
    for variant in ("dynamic_pr", "evolutionary_pr"):
        assert RunConfig(variant=variant, iteration_limit=1, restart_kappa=1).restart_kappa == 1


def test_depth_must_be_a_search_depth():
    # a string depth used to fall through to first-improving search
    for depth in ("best", "first", "deepest", None):
        with pytest.raises(ValueError, match="depth must be a SearchDepth"):
            RunConfig(iteration_limit=1, depth=depth)
        with pytest.raises(ValueError, match="depth must be a SearchDepth"):
            local_search(LOP10, construct(LOP10, GREEDY_RCL, RandomStream(1)), depth, RandomStream(1))


def test_run_dispatches_every_variant():
    for variant in ("semigreedy", "grasp", "static_pr", "dynamic_pr", "evolutionary_pr"):
        cfg = RunConfig(variant=variant, seed=1, iteration_limit=5, elite_k=2, static_sample=5)
        report = run(MC12, cfg)
        assert report.iterations >= 1
        assert report.best_objective == oracles.cut_value(MC12.edges, report.best_solution.bits)
