import pytest

from grasppr.core import PartitionSolution, PermutationSolution, RandomStream, delta, evaluate
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance
from grasppr.path_relinking import (
    BACK_AND_FORWARD,
    BACKWARD,
    FORWARD,
    MIXED,
    PrConfig,
    relink,
)

import oracles

MC6 = MaxCutInstance(6, oracles.rand_edges(oracles.make_rng(40), 6, 0.7, -5, 10))

# drives forward-greedy relinking from (0,1,2,3) toward (2,3,1,0): the four
# candidate deltas are (-1, 9, 18, -1), so the first step inserts element 2
S1_COST = [[0, 5, 0, 5], [0, 0, 0, 0], [9, 9, 0, 2], [0, 1, 0, 0]]


def _parts(bits_a, bits_b, inst=MC6):
    a = PartitionSolution(list(bits_a))
    b = PartitionSolution(list(bits_b))
    evaluate(inst, a)
    evaluate(inst, b)
    return a, b


def _better_worse(s, t):
    return (s, t) if s.cached_objective >= t.cached_objective else (t, s)


def test_partition_full_path_visits_delta_minus_one():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    best, trace = relink(MC6, s, t, PrConfig(direction=FORWARD), RandomStream(1))
    assert len(trace.visited) == 3  # |delta| - 1
    better, _ = _better_worse(s, t)
    dists = [delta(v, better) for v, _ in trace.visited]  # forward goes worse -> better
    assert dists == [3, 2, 1]
    assert best.cached_objective >= max(s.cached_objective, t.cached_objective)


def test_permutation_forward_greedy_first_step():
    inst = LopInstance(S1_COST)
    s = PermutationSolution([0, 1, 2, 3])
    t = PermutationSolution([2, 3, 1, 0])
    evaluate(inst, s)
    evaluate(inst, t)
    assert (s.cached_objective, t.cached_objective) == (12, 21)
    best, trace = relink(inst, s, t, PrConfig(direction=FORWARD), RandomStream(1))
    assert trace.visited[0][0].order == [2, 0, 1, 3]
    assert delta(trace.visited[0][0], t) < delta(s, t)  # forward goes worse -> better
    assert trace.visited[0][1] == 30  # 12 + 18
    # from (2,0,1,3) no insertion reduces the positional difference: early stop
    assert len(trace.visited) == 1
    assert best.cached_objective == 30


def test_mixed_second_step_move_mechanics():
    # roles reverse after the first step; moving element 3 (paper's element 4)
    # of (2,3,1,0) into its position in (2,0,1,3) produces (2,1,0,3)
    inst = LopInstance(S1_COST)
    head = PermutationSolution([2, 3, 1, 0])
    evaluate(inst, head)
    move = next(m for m in oracles.all_moves(inst, head) if (m.element, m.to_pos) == (3, 3))
    assert move.from_pos == 1
    inst.apply_move(head, move)
    assert head.order == [2, 1, 0, 3]
    assert head.cached_objective == oracles.lop_value(S1_COST, head.order)


def test_mixed_walk_stops_in_permutation_trap():
    # neither head can strictly reduce the difference after the first step,
    # so the mixed walk ends with the heads still two positions apart
    inst = LopInstance(S1_COST)
    s = PermutationSolution([0, 1, 2, 3])
    t = PermutationSolution([2, 3, 1, 0])
    evaluate(inst, s)
    evaluate(inst, t)
    _, trace = relink(inst, s, t, PrConfig(direction=MIXED), RandomStream(1))
    assert [v.order for v, _ in trace.visited] == [[2, 0, 1, 3]]


def test_backward_starts_from_better_endpoint():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    better, worse = _better_worse(s, t)
    _, trace = relink(MC6, s, t, PrConfig(direction=BACKWARD), RandomStream(1))
    assert [delta(v, worse) for v, _ in trace.visited] == [3, 2, 1]
    assert delta(trace.visited[0][0], better) == 1


def test_back_and_forward_concatenates_both_walks():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    better, worse = _better_worse(s, t)
    _, trace = relink(MC6, s, t, PrConfig(direction=BACK_AND_FORWARD), RandomStream(1))
    assert len(trace.visited) == 6  # 3 backward + 3 forward
    dists_to_worse = [delta(v, worse) for v, _ in trace.visited[:3]]
    dists_to_better = [delta(v, better) for v, _ in trace.visited[3:]]
    assert dists_to_worse == [3, 2, 1]
    assert dists_to_better == [3, 2, 1]


def test_min_distance_guard():
    s, t = _parts([0] * 6, [1, 1, 1, 0, 0, 0])  # delta 3
    best, trace = relink(MC6, s, t, PrConfig(direction=FORWARD), RandomStream(1))
    assert trace.visited == []
    better, _ = _better_worse(s, t)
    assert best == better
    assert best is not better  # returned solution is a private copy
    # lowering the guard enables the walk on the same endpoints
    _, trace = relink(MC6, s, t, PrConfig(direction=FORWARD, min_distance=3), RandomStream(1))
    assert len(trace.visited) == 2


def test_truncation_budget():
    s, t = _parts([0] * 6, [1] * 6)  # delta 6, full path 5
    for rho, expect in ((1.0, 5), (0.5, 3), (0.2, 1)):  # ceil(rho * 5)
        _, trace = relink(MC6, s, t, PrConfig(direction=FORWARD, truncation=rho), RandomStream(1))
        assert len(trace.visited) == expect


def test_grpr_rcl1_is_bit_identical_to_greedy():
    r = oracles.make_rng(41)
    for trial in range(30):
        bits_s = oracles.rand_bits(r, 6)
        bits_t = oracles.rand_bits(r, 6)
        if oracles.position_delta(bits_s, bits_t) < 4:
            continue
        s, t = _parts(bits_s, bits_t)
        rng_a, rng_b = RandomStream(trial), RandomStream(trial)
        best_a, tr_a = relink(MC6, s, t, PrConfig(step="greedy"), rng_a)
        best_b, tr_b = relink(MC6, s, t, PrConfig(step="grpr", rcl_size=1), rng_b)
        assert best_a == best_b
        assert [(v.bits, o) for v, o in tr_a.visited] == [(v.bits, o) for v, o in tr_b.visited]
        assert rng_a.random() == rng_b.random()  # neither consumed a draw


def test_grpr_draws_within_rcl():
    s, t = _parts([0] * 6, [1] * 6)
    seen = set()
    for seed in range(20):
        _, trace = relink(MC6, s, t, PrConfig(step="grpr", rcl_size=3), RandomStream(seed))
        seen.add(tuple(o for _, o in trace.visited))
    assert len(seen) > 1  # randomized step selection actually varies paths


def _count_ls(policy, ls_every=5):
    s, t = _parts([0] * 6, [1] * 6)
    calls = []

    def fake_ls(sol):
        calls.append(sol.copy())
        out = sol.copy()
        out.cached_objective = 10**6
        return out

    cfg = PrConfig(direction=FORWARD, in_path_ls=policy, ls_every=ls_every)
    best, trace = relink(MC6, s, t, cfg, RandomStream(3), ls=fake_ls)
    return calls, best, trace


def test_in_path_ls_none_never_calls():
    calls, _, _ = _count_ls("none")
    assert calls == []


def test_in_path_ls_all_each_visited():
    calls, best, trace = _count_ls("all")
    assert len(calls) == len(trace.visited) == 5
    assert best.cached_objective == 10**6  # improvement tracked for the result
    # but the raw path itself is untouched by the in-path search
    for v, obj in trace.visited:
        assert obj == oracles.cut_value(MC6.edges, v.bits)


def test_in_path_ls_every_q():
    calls, _, trace = _count_ls("every", ls_every=2)
    assert len(calls) == len(trace.visited) // 2


def test_in_path_ls_best_only_once_at_best():
    calls, best, trace = _count_ls("best")
    assert len(calls) == 1
    objs = [obj for _, obj in trace.visited]
    assert calls[0].bits == trace.visited[objs.index(max(objs))][0].bits  # the first maximum
    assert best.cached_objective == 10**6


def test_in_path_policy_needs_ls():
    s, t = _parts([0] * 6, [1] * 6)
    for policy in ("all", "every", "best"):
        with pytest.raises(ValueError, match=f"in-path local search '{policy}' needs ls"):
            relink(MC6, s, t, PrConfig(in_path_ls=policy), RandomStream(1))


def test_in_path_best_starts_at_earliest_maximum():
    empty = MaxCutInstance(5, [])  # every cut is 0, so all intermediates tie
    s = PartitionSolution([0] * 5)
    t = PartitionSolution([1] * 5)
    evaluate(empty, s)
    evaluate(empty, t)
    calls = []

    def recording_ls(sol):
        calls.append(sol)
        return sol.copy()

    cfg = PrConfig(direction=FORWARD, in_path_ls="best")
    best, trace = relink(empty, s, t, cfg, RandomStream(1), ls=recording_ls)
    assert len(trace.visited) == 4
    assert len(calls) == 1 and calls[0] is trace.visited[0][0]
    assert best.cached_objective == 0
    assert best == s and best is not s  # no visited solution beats the better endpoint


def test_relink_endpoint_validation():
    s, _ = _parts([0] * 6, [1] * 6)
    with pytest.raises(ValueError):
        relink(MC6, s, s.copy(), PrConfig(), RandomStream(1))
    perm = PermutationSolution(list(range(6)))
    with pytest.raises(TypeError):
        relink(MC6, s, perm, PrConfig(), RandomStream(1))


def test_prconfig_validation():
    for bad in (
        dict(direction="sideways"),
        dict(step="tabu"),
        dict(rcl_size=0),
        dict(truncation=0.0),
        dict(truncation=1.5),
        dict(min_distance=-1),
        dict(in_path_ls="sometimes"),
        dict(ls_every=0),
    ):
        with pytest.raises(ValueError):
            PrConfig(**bad)
