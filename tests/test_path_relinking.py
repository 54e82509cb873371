import itertools

import pytest

from grasppr.core import PartitionSolution, PermutationSolution, RandomStream, delta, evaluate
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance
from grasppr.path_relinking import (
    BACK_AND_FORWARD,
    BACKWARD,
    FORWARD,
    GREEDY_RANDOMIZED,
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


def _relink_path(inst, s, t, cfg, rng, ls=None):
    """relink's result and its path as oracles.record_path records it:
    (moved head, head index, objective) per step."""
    with oracles.record_path(inst) as path:
        best, trace = relink(inst, s, t, cfg, rng, ls=ls)
    assert trace.visited == [obj for _, _, obj in path]
    return best, trace, path


def test_partition_full_path_visits_delta_minus_one():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    best, trace, path = _relink_path(MC6, s, t, PrConfig(direction=FORWARD), RandomStream(1))
    assert len(trace.visited) == 3  # |delta| - 1
    better, _ = _better_worse(s, t)
    dists = [delta(v, better) for v, _, _ in path]  # forward goes worse -> better
    assert dists == [3, 2, 1]
    assert best.cached_objective >= max(s.cached_objective, t.cached_objective)


def test_permutation_forward_greedy_first_step():
    inst = LopInstance(S1_COST)
    s = PermutationSolution([0, 1, 2, 3])
    t = PermutationSolution([2, 3, 1, 0])
    evaluate(inst, s)
    evaluate(inst, t)
    assert (s.cached_objective, t.cached_objective) == (12, 21)
    best, trace, path = _relink_path(inst, s, t, PrConfig(direction=FORWARD), RandomStream(1))
    assert path[0][0].order == [2, 0, 1, 3]
    assert delta(path[0][0], t) < delta(s, t)  # forward goes worse -> better
    assert trace.visited[0] == 30  # 12 + 18
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
    _, _, path = _relink_path(inst, s, t, PrConfig(direction=MIXED), RandomStream(1))
    assert [(v.order, i) for v, i, _ in path] == [([2, 0, 1, 3], 0)]


def test_backward_starts_from_better_endpoint():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    better, worse = _better_worse(s, t)
    _, _, path = _relink_path(MC6, s, t, PrConfig(direction=BACKWARD), RandomStream(1))
    assert [delta(v, worse) for v, _, _ in path] == [3, 2, 1]
    assert delta(path[0][0], better) == 1


def test_back_and_forward_concatenates_both_walks():
    s, t = _parts([0] * 6, [1, 1, 1, 1, 0, 0])
    better, worse = _better_worse(s, t)
    _, trace, path = _relink_path(MC6, s, t, PrConfig(direction=BACK_AND_FORWARD), RandomStream(1))
    assert len(trace.visited) == 6  # 3 backward + 3 forward
    dists_to_worse = [delta(v, worse) for v, _, _ in path[:3]]
    dists_to_better = [delta(v, better) for v, _, _ in path[3:]]
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
        best_a, _, path_a = _relink_path(MC6, s, t, PrConfig(step="greedy"), rng_a)
        best_b, _, path_b = _relink_path(MC6, s, t, PrConfig(step="grpr", rcl_size=1), rng_b)
        assert best_a == best_b
        assert [(v.bits, o) for v, _, o in path_a] == [(v.bits, o) for v, _, o in path_b]
        assert rng_a.random() == rng_b.random()  # neither consumed a draw


def test_grpr_draws_within_rcl():
    s, t = _parts([0] * 6, [1] * 6)
    seen = set()
    for seed in range(20):
        _, trace = relink(MC6, s, t, PrConfig(step="grpr", rcl_size=3), RandomStream(seed))
        seen.add(tuple(trace.visited))
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
    best, _, path = _relink_path(MC6, s, t, cfg, RandomStream(3), ls=fake_ls)
    return calls, best, path


def test_in_path_ls_none_never_calls():
    calls, _, _ = _count_ls("none")
    assert calls == []


def test_in_path_ls_all_each_visited():
    calls, best, path = _count_ls("all")
    assert len(calls) == len(path) == 5
    assert best.cached_objective == 10**6  # improvement tracked for the result
    # but the raw path itself is untouched by the in-path search
    for v, _, obj in path:
        assert obj == oracles.cut_value(MC6.edges, v.bits)


def test_in_path_ls_every_q():
    calls, _, path = _count_ls("every", ls_every=2)
    assert len(calls) == len(path) // 2


def test_in_path_ls_best_only_once_at_best():
    calls, best, path = _count_ls("best")
    assert len(calls) == 1
    objs = [obj for _, _, obj in path]
    assert calls[0].bits == path[objs.index(max(objs))][0].bits  # the first maximum
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
    best, _, path = _relink_path(empty, s, t, cfg, RandomStream(1), ls=recording_ls)
    assert len(path) == 4
    assert len(calls) == 1 and calls[0] == path[0][0]
    assert best.cached_objective == 0
    assert best == s and best is not s  # no visited solution beats the better endpoint


def _new_peaks(objs):
    return sum(1 for i, obj in enumerate(objs) if all(obj > o for o in objs[:i]))


@pytest.mark.parametrize("problem", ["maxcut", "lop"])
@pytest.mark.parametrize("direction, heads", [(FORWARD, 1), (BACKWARD, 1), (BACK_AND_FORWARD, 2), (MIXED, 2)])
def test_relink_copies_only_new_path_peaks(monkeypatch, problem, direction, heads):
    # the walk heads, one copy per strict new maximum of the path, and the result
    r = oracles.make_rng(44)
    if problem == "maxcut":
        inst = MaxCutInstance(30, oracles.rand_edges(r, 30, 0.3, -5, 10))
        s, t = (PartitionSolution(oracles.rand_bits(r, 30)) for _ in range(2))
    else:
        inst = LopInstance(oracles.rand_lop_matrix(r, 12))
        s, t = (PermutationSolution(oracles.rand_perm(r, 12)) for _ in range(2))
    evaluate(inst, s)
    evaluate(inst, t)
    cfg = PrConfig(direction=direction, min_distance=0)
    _, trace, _ = _relink_path(inst, s.copy(), t.copy(), cfg, RandomStream(1))
    peaks = _new_peaks(trace.visited)
    assert 0 < peaks < len(trace.visited)  # some steps are no new peak

    copies = []
    copy = type(s).copy
    monkeypatch.setattr(type(s), "copy", lambda sol: copies.append(sol) or copy(sol))
    _, again = relink(inst, s, t, cfg, RandomStream(1))
    monkeypatch.undo()
    assert again.visited == trace.visited
    assert len(copies) == heads + peaks + 1


def _stop_on_call(k):
    """A should_stop that is false for k calls and true from its (k+1)-th on."""
    calls = itertools.count(1)
    return lambda: next(calls) > k


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD, BACK_AND_FORWARD, MIXED])
def test_should_stop_ends_the_walk_after_k_steps(direction):
    # should_stop is asked before every step of every walk, so the (k+1)-th
    # call ends relinking after the first k steps of the unstopped path
    r = oracles.make_rng(46)
    inst = MaxCutInstance(20, oracles.rand_edges(r, 20, 0.3, -5, 10))
    s, t = (PartitionSolution(oracles.rand_bits(r, 20)) for _ in range(2))
    evaluate(inst, s)
    evaluate(inst, t)
    cfg = PrConfig(direction=direction, step=GREEDY_RANDOMIZED, min_distance=0)
    _, full = relink(inst, s, t, cfg, RandomStream(1))
    assert len(full.visited) >= 4
    for k in range(len(full.visited) + 2):
        best, trace = relink(inst, s, t, cfg, RandomStream(1), should_stop=_stop_on_call(k))
        assert trace.visited == full.visited[:k]
        assert best.cached_objective == max([s.cached_objective, t.cached_objective] + trace.visited)


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
