import itertools

import pytest

from grasppr.core import Move, PartitionSolution, PermutationSolution, RandomStream, SearchDepth, evaluate
from grasppr.local_search import local_search
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

K3 = MaxCutInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def lop_locally_optimal(cost, order):
    base = oracles.lop_value(cost, order)
    n = len(order)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            l = list(order)
            e = l.pop(i)
            l.insert(j, e)
            if oracles.lop_value(cost, l) > base:
                return False
    return True


def maxcut_locally_optimal(edges, bits):
    base = oracles.cut_value(edges, bits)
    for v in range(len(bits)):
        flipped = list(bits)
        flipped[v] ^= 1
        if oracles.cut_value(edges, flipped) > base:
            return False
    return True


def test_insert_neighborhood_size_n4():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(1), 4))
    sol = PermutationSolution([0, 1, 2, 3])
    evaluate(inst, sol)
    moves = oracles.all_moves(inst, sol)
    assert len(moves) == 12  # n*(n-1)
    assert all(m.kind == "insert" for m in moves)
    assert not any(m.from_pos == m.to_pos for m in moves)  # null move excluded


def test_insert_scan_order():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(2), 4))
    sol = PermutationSolution([0, 1, 2, 3])
    evaluate(inst, sol)
    keys = [(m.element, m.to_pos) for m in oracles.all_moves(inst, sol)]
    assert keys == sorted(keys)  # element ascending, target position ascending


def test_transfer_neighborhood_size():
    edges = oracles.rand_edges(oracles.make_rng(3), 7)
    inst = MaxCutInstance(7, edges)
    sol = PartitionSolution(oracles.rand_bits(oracles.make_rng(4), 7))
    evaluate(inst, sol)
    moves = oracles.all_moves(inst, sol)
    assert len(moves) == 7
    assert [m.element for m in moves] == list(range(7))
    offset = [m.element for m in oracles.all_moves(inst, sol, offset=3)]
    assert offset == [3, 4, 5, 6, 0, 1, 2]


def test_k3_from_one_side():
    start = PartitionSolution([0, 0, 0])
    evaluate(K3, start)
    assert start.cached_objective == 0
    out = local_search(K3, start, SearchDepth.BEST_IMPROVING, RandomStream(1))
    assert out.cached_objective == 2
    assert start.bits == [0, 0, 0]  # input untouched


def test_already_optimal_is_fixed_point():
    sol = PartitionSolution([1, 0, 0])
    evaluate(K3, sol)
    for depth in SearchDepth:
        out = local_search(K3, sol, depth, RandomStream(2))
        assert out.bits == sol.bits
        assert out.cached_objective == 2


def test_local_search_never_degrades_and_ends_optimal():
    r = oracles.make_rng(5)
    cost = oracles.rand_lop_matrix(r, 6)
    inst = LopInstance(cost)
    for depth in SearchDepth:
        rng = RandomStream(6)
        for _ in range(60):
            start = PermutationSolution(oracles.rand_perm(r, 6))
            base = evaluate(inst, start)
            out = local_search(inst, start, depth, rng)
            assert out.cached_objective >= base
            assert out.cached_objective == oracles.lop_value(cost, out.order)
            assert lop_locally_optimal(cost, out.order)


def test_maxcut_local_search_exhaustive_oracle():
    r = oracles.make_rng(7)
    edges = oracles.rand_edges(r, 8, 0.6, -5, 10)
    inst = MaxCutInstance(8, edges)
    for depth in SearchDepth:
        rng = RandomStream(8)
        for _ in range(60):
            start = PartitionSolution(oracles.rand_bits(r, 8))
            base = evaluate(inst, start)
            out = local_search(inst, start, depth, rng)
            assert out.cached_objective >= base
            assert out.cached_objective == oracles.cut_value(inst.edges, out.bits)
            assert maxcut_locally_optimal(inst.edges, out.bits)


def test_best_improving_consumes_no_rng():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(9), 6))
    start = PermutationSolution(oracles.rand_perm(oracles.make_rng(10), 6))
    evaluate(inst, start)
    rng = RandomStream(11)
    a = local_search(inst, start, SearchDepth.BEST_IMPROVING, rng)
    assert rng.random() == RandomStream(11).random()
    b = local_search(inst, start, SearchDepth.BEST_IMPROVING, RandomStream(99))
    assert a.order == b.order  # deterministic regardless of stream


def test_first_improving_lop_fixed_scan():
    # permutation scan is canonical, so first-improving is seed-independent too
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(12), 6))
    start = PermutationSolution(oracles.rand_perm(oracles.make_rng(13), 6))
    evaluate(inst, start)
    outs = {tuple(local_search(inst, start, SearchDepth.FIRST_IMPROVING, RandomStream(s)).order)
            for s in range(10)}
    assert len(outs) == 1


def test_first_improving_maxcut_draws_offsets():
    # the partition scan starts at a random offset each pass
    edges = oracles.rand_edges(oracles.make_rng(14), 9, 0.6, -5, 10)
    inst = MaxCutInstance(9, edges)
    start = PartitionSolution([0] * 9)
    evaluate(inst, start)
    rng = RandomStream(15)
    local_search(inst, start, SearchDepth.FIRST_IMPROVING, rng)
    assert rng.random() != RandomStream(15).random()


def test_apply_move_keeps_cache_consistent():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(16), 5))
    sol = PermutationSolution(oracles.rand_perm(oracles.make_rng(17), 5))
    evaluate(inst, sol)
    for move in oracles.all_moves(inst, sol)[:5]:
        scratch = sol.copy()
        inst.apply_move(scratch, move)
        assert scratch.cached_objective == oracles.lop_value(inst.cost, scratch.order)


def test_move_rejects_foreign_kind():
    sol = PermutationSolution([0, 1])
    inst = LopInstance([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        inst.apply_move(sol, Move("transfer", 0))


@pytest.mark.parametrize("neighborhood", ["insert", "transfer"])
@pytest.mark.parametrize("depth", list(SearchDepth))
def test_each_pass_is_one_finished_moves_scan(neighborhood, depth):
    # a descent runs one moves() scan per pass, each drained before its move
    # is applied, so timing moves() times every pass of the search
    r = oracles.make_rng(18)
    if neighborhood == "insert":
        inst = LopInstance(oracles.rand_lop_matrix(r, 7))
        start = PermutationSolution(oracles.rand_perm(r, 7))
    else:
        inst = MaxCutInstance(9, oracles.rand_edges(r, 9, 0.5, -3, 9))
        start = PartitionSolution(oracles.rand_bits(r, 9))
    events = []
    scan, apply = inst.moves, inst.apply_move

    def traced_scan(*args, **kwargs):
        events.append("open")
        yield from scan(*args, **kwargs)
        events.append("close")

    inst.moves = traced_scan
    inst.apply_move = lambda sol, move: (events.append("apply"), apply(sol, move))
    local_search(inst, start, depth, RandomStream(19))
    passes = events.count("open")
    assert passes == events.count("apply") + 1 >= 2
    assert events == ["open", "close", "apply"] * (passes - 1) + ["open", "close"]


class _NonImprovingK3(MaxCutInstance):
    """K3 whose kernels always offer a zero-delta flip of vertex 0, as a stale gain cache would."""

    def __init__(self):
        super().__init__(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        self.asked = 0

    def _stale(self):
        self.asked += 1
        assert self.asked <= 5, "local_search kept applying a non-improving move"
        return Move("transfer", 0, delta=0)

    def best_move(self, solution):
        return self._stale()

    def first_move(self, solution, offset):
        return self._stale()


@pytest.mark.parametrize("depth", list(SearchDepth))
def test_non_improving_move_raises_instead_of_looping(depth):
    inst = _NonImprovingK3()
    with pytest.raises(RuntimeError, match="non-improving move"):
        local_search(inst, PartitionSolution([0, 1, 1]), depth, RandomStream(1))
    assert inst.asked == 1


def _stop_on_call(k):
    """A should_stop that is false for k calls and true from its (k+1)-th on."""
    calls = itertools.count(1)
    return lambda: next(calls) > k


@pytest.mark.parametrize("neighborhood", ["insert", "transfer"])
@pytest.mark.parametrize("depth", list(SearchDepth))
def test_should_stop_ends_the_descent_after_k_moves(neighborhood, depth):
    # should_stop is asked before every pass, so the (k+1)-th call ends the
    # climb after the first k moves of the unstopped descent
    r = oracles.make_rng(22)
    if neighborhood == "insert":
        inst = LopInstance(oracles.rand_lop_matrix(r, 8))
        start = PermutationSolution(oracles.rand_perm(r, 8))
    else:
        inst = MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -3, 9))
        start = PartitionSolution(oracles.rand_bits(r, 10))
    evaluate(inst, start)
    applied = []
    apply = inst.apply_move
    inst.apply_move = lambda sol, move: (applied.append(move), apply(sol, move))
    full = local_search(inst, start, depth, RandomStream(23))
    moves = list(applied)
    assert len(moves) >= 3
    for k in range(len(moves) + 2):
        applied.clear()
        out = local_search(inst, start, depth, RandomStream(23), should_stop=_stop_on_call(k))
        assert applied == moves[:k]
        assert out.cached_objective == evaluate(inst, out.copy())
        if k >= len(moves):
            assert out == full
