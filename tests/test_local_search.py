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
    assert all(m.from_pos is not None and m.to_pos is not None for m in moves)  # inserts
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
    assert rng.randrange(2**64) == RandomStream(11).randrange(2**64)
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
    assert rng.randrange(2**64) != RandomStream(15).randrange(2**64)


def _state(sol):
    """The order or bits of a solution, or of the gain table a max-cut scan reads."""
    return list(sol.order if isinstance(sol, PermutationSolution) else sol.bits)


def _moved(state, move):
    """state after move, applied naively."""
    state = list(state)
    if move.from_pos is None:  # a transfer
        state[move.element] ^= 1
    else:
        state.insert(move.to_pos, state.pop(move.from_pos))
    return state


@pytest.mark.parametrize("neighborhood", ["insert", "transfer"])
@pytest.mark.parametrize("depth", list(SearchDepth))
def test_each_pass_is_one_finished_moves_scan(neighborhood, depth):
    # a descent runs one moves() scan per pass, each drained before its move
    # is applied, so timing moves() times every pass of the search. The scans
    # are watched: each descent moves its solution and the search state it
    # holds itself. A LOP scan reads the solution, a max-cut scan the gain
    # table that the descent flips with its bits. Between two scans that
    # state changes by exactly the move the first one chose, and the exact
    # objective by its delta
    r = oracles.make_rng(18)
    if neighborhood == "insert":
        inst = LopInstance(oracles.rand_lop_matrix(r, 7))
        start = PermutationSolution(oracles.rand_perm(r, 7))
        value = lambda state: oracles.lop_value(inst.cost, state)
    else:
        inst = MaxCutInstance(9, oracles.rand_edges(r, 9, 0.5, -3, 9))
        start = PartitionSolution(oracles.rand_bits(r, 9))
        value = lambda state: oracles.cut_value(inst.edges, state)
    events = []  # ("open", state, objective) and ("close", state, last yield) per scan
    scan = inst.moves

    def traced_scan(held, *args):
        events.append(("open", _state(held), value(_state(held))))
        move = None
        for move in scan(held, *args):
            yield move
        events.append(("close", _state(held), move))

    inst.moves = traced_scan
    out = local_search(inst, start, depth, RandomStream(19))
    passes = len(events) // 2
    assert [e[0] for e in events] == ["open", "close"] * passes
    assert passes >= 2
    opens, closes = events[::2], events[1::2]
    for (_, before, f), (_, after, move), (_, then, g) in zip(opens, closes, opens[1:]):
        assert after == before  # the scan ran to its end with the state untouched
        assert then == _moved(before, move) and g == f + move.delta  # then its move, and only it
    assert closes[-1][2] is None and closes[-1][1] == _state(out)  # the last scan found none
    assert out.cached_objective == value(_state(out))


class _NonImproving:
    """Kernels that always offer a zero-delta move, as a stale search state would."""

    asked = 0

    def moves(self, *scan_args):
        self.asked += 1
        assert self.asked <= 5, "local_search kept applying a non-improving move"
        yield self.stale()


class _NonImprovingK3(_NonImproving, MaxCutInstance):
    def __init__(self):
        super().__init__(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        self.start = PartitionSolution([0, 1, 1])

    def stale(self):
        return Move(0, delta=0)


class _NonImprovingLop(_NonImproving, LopInstance):
    def __init__(self):
        super().__init__([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
        self.start = PermutationSolution([0, 1, 2])

    def stale(self):
        return Move(self.start.order[0], 0, 1, 0)


@pytest.mark.parametrize("kind", [_NonImprovingK3, _NonImprovingLop], ids=["transfer", "insert"])
@pytest.mark.parametrize("depth", list(SearchDepth))
def test_non_improving_move_raises_instead_of_looping(depth, kind):
    inst = kind()
    with pytest.raises(RuntimeError, match="non-improving move"):
        local_search(inst, inst.start, depth, RandomStream(1))
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
    chosen = []  # the move each scan chose, watched at the scan: each descent applies it itself
    scan = inst.moves

    def recording_scan(*args):
        move = None
        for move in scan(*args):
            yield move
        if move is not None:
            chosen.append(move)

    inst.moves = recording_scan
    full_scans = []  # LOP's: one per descent, built after its first should_stop
    if neighborhood == "insert":
        full_scan = inst._full_scan

        def counting_full_scan(order):
            full_scans.append(list(order))
            return full_scan(order)

        inst._full_scan = counting_full_scan
    full = local_search(inst, start, depth, RandomStream(23))
    moves = list(chosen)
    assert len(moves) >= 3
    for k in range(len(moves) + 2):
        chosen.clear()
        full_scans.clear()
        out = local_search(inst, start, depth, RandomStream(23), should_stop=_stop_on_call(k))
        assert chosen == moves[:k]
        if neighborhood == "insert":
            assert full_scans == ([_state(start)] if k else [])
        expected = _state(start)
        for move in moves[:k]:
            expected = _moved(expected, move)
        assert _state(out) == expected  # the k chosen moves were applied, and nothing else
        assert out.cached_objective == evaluate(inst, out.copy())
        if k >= len(moves):
            assert out == full
