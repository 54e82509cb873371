import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr import path_relinking
from grasppr.bench_io import build_run_config, load_instance, serialize_lolib
from grasppr.construction import RclConfig, construct
from grasppr.core import Move, PermutationSolution, RandomStream, SearchDepth, evaluate
from grasppr.drivers import run
from grasppr.local_search import local_search
from grasppr.lop import LopInstance

import oracles


def test_objective_examples():
    inst = LopInstance([[0, 5], [3, 0]])
    assert inst.evaluate(PermutationSolution([0, 1])) == 5
    assert inst.evaluate(PermutationSolution([1, 0])) == 3
    zero = LopInstance([[0] * 4 for _ in range(4)])
    assert zero.evaluate(PermutationSolution([2, 0, 3, 1])) == 0


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_objective_plus_reverse_is_offdiagonal_total(seed):
    r = oracles.make_rng(seed)
    cost = oracles.rand_lop_matrix(r, 6, -20, 20)
    inst = LopInstance(cost)
    order = oracles.rand_perm(r, 6)
    total = sum(cost[i][j] for i in range(6) for j in range(6) if i != j)
    assert inst.evaluate(PermutationSolution(order)) + inst.evaluate(
        PermutationSolution(list(reversed(order)))
    ) == total


def _candidates(builder):
    # (vertex, gain) of each unplaced vertex, ascending
    return list(zip(builder.unplaced, builder.gains))


def test_append_gain():
    # the builder's candidate gains are the objective increase of appending
    inst = LopInstance([[0, 5], [3, 0]])
    b = inst.new_construction()
    assert _candidates(b) == [(0, 0), (1, 0)]
    b.add(0)
    assert _candidates(b) == [(1, 5)]
    b = inst.new_construction()
    b.add(1)
    assert _candidates(b) == [(0, 3)]


def test_append_gain_matches_reevaluation():
    r = oracles.make_rng(21)
    cost = oracles.rand_lop_matrix(r, 7)
    inst = LopInstance(cost)
    for _ in range(200):
        order = oracles.rand_perm(r, 7)
        cut = r.randrange(1, 7)
        prefix, v = order[:cut], order[cut]
        b = inst.new_construction()
        for u in prefix:
            b.add(u)
        assert dict(_candidates(b))[v] == (
            oracles.lop_value(cost, prefix + [v]) - oracles.lop_value(cost, prefix)
        )


def test_builder_rejects_replacement():
    inst = LopInstance([[0, 1], [1, 0]])
    b = inst.new_construction()
    b.add(0)
    with pytest.raises(ValueError):
        b.add(0)


def test_insert_delta_2x2_example():
    inst = LopInstance([[0, 5], [3, 0]])
    moves = oracles.all_moves(inst, PermutationSolution([0, 1]))
    # both insertions reverse the one pair, 3 - 5; null moves are never offered
    assert [(m.element, m.from_pos, m.to_pos, m.delta) for m in moves] == [(0, 0, 1, -2), (1, 1, 0, -2)]


def test_insert_delta_exactness_fuzz():
    r = oracles.make_rng(22)
    cost = oracles.rand_lop_matrix(r, 8, -50, 99)
    inst = LopInstance(cost)
    for _ in range(1000):
        order = oracles.rand_perm(r, 8)
        elem = r.randrange(8)
        to_pos = r.randrange(8)
        moves = {(m.element, m.to_pos): m for m in oracles.all_moves(inst, PermutationSolution(order))}
        if order.index(elem) == to_pos:
            assert (elem, to_pos) not in moves  # null move
            continue
        after = list(order)
        after.remove(elem)
        after.insert(to_pos, elem)
        assert moves[elem, to_pos].delta == oracles.lop_value(cost, after) - oracles.lop_value(cost, order)


def test_insert_scan_matches_reference_kernel():
    # the running-sum reference scan must yield exactly the moves of the
    # per-move reference (insert_delta) in element-ascending, position-ascending
    # order; every permutation puts some element at position 0 and n - 1
    r = oracles.make_rng(25)
    for n in (2, 3, 5, 17, 60):
        # a non-zero diagonal must not leak into any delta
        cost = [[r.randint(-50, 99) for _ in range(n)] for _ in range(n)]
        inst = LopInstance(cost)
        orders = [list(range(n)), list(reversed(range(n)))] + [oracles.rand_perm(r, n) for _ in range(4)]
        for order in orders:
            expected = []
            for e in range(n):
                i = order.index(e)
                expected += [("insert", e, i, j, oracles.insert_delta(cost, order, i, j)) for j in range(n) if j != i]
            got = [tuple(m) for m in oracles.all_moves(inst, PermutationSolution(list(order)))]
            assert got == expected, (n, order)
            base = oracles.lop_value(cost, order)
            # lop_value is O(n^2) per move: check all moves up to n = 17, a sample beyond
            checked = got if n <= 17 else [m for m in got if m[2] in (0, n - 1)] + r.sample(got, 60)
            for _, e, i, j, d in checked:
                after = list(order)
                after.insert(j, after.pop(i))
                assert d == oracles.lop_value(cost, after) - base


def test_move_kernels_match_reference_selection():
    # best_move / first_move pick what the selection loops over the reference scan pick,
    # at every step of a climb down to the local optimum (capped at n = 60)
    r = oracles.make_rng(41)
    for n in (2, 3, 5, 17, 60):
        matrices = (
            [[r.randint(-50, 99) for _ in range(n)] for _ in range(n)],  # non-zero diagonal, negative entries
            [[r.randint(0, 1) for _ in range(n)] for _ in range(n)],  # ties everywhere
        )
        for cost in matrices:
            inst = LopInstance(cost)
            for order in (list(range(n)), oracles.rand_perm(r, n), oracles.rand_perm(r, n)):
                sol = PermutationSolution(order)
                for _ in range(n if n < 60 else 8):
                    best = inst.best_move(sol)
                    assert best == oracles.best_move(oracles.all_moves(inst, sol)), (n, sol.order)
                    first = inst.first_move(sol, r.randrange(n))  # the permutation scan ignores offsets
                    assert first == oracles.first_move(oracles.all_moves(inst, sol)), (n, sol.order)
                    if best is None:
                        break
                    inst.apply_move(sol, best if r.random() < 0.5 else first)


def test_best_move_at_32_bit_extremes():
    # the best-improving scan keeps every element's prefix sums in one 64-bit
    # field of a single int: entries at both 32-bit ends drive those sums to
    # +-(n - 1) * (2^32 - 1), where a missing bias, guard bit or base read
    # would corrupt a neighbouring field
    lo, hi = -2**31, 2**31 - 1

    class Weight(int):
        pass

    r = oracles.make_rng(43)
    for n in (2, 3, 17, 60, 100):
        matrices = (
            [[r.choice((lo, 0, hi)) for _ in range(n)] for _ in range(n)],
            [[hi if i < j else lo for j in range(n)] for i in range(n)],  # the largest skew, both signs
            [[Weight(r.choice((lo, 0, hi))) for _ in range(n)] for _ in range(n)],  # int subclass entries
        )
        for cost in matrices:
            inst = LopInstance(cost)
            for order in (list(range(n)), list(reversed(range(n))), oracles.rand_perm(r, n)):
                sol = PermutationSolution(order)
                for _ in range(n if n < 100 else 8):
                    best = inst.best_move(sol)
                    assert best == oracles.best_move(oracles.all_moves(inst, sol)), (n, sol.order)
                    if best is None:
                        break
                    inst.apply_move(sol, best)


def test_packed_columns_wait_for_the_first_best_improving_scan(tmp_path):
    # parsing and construction-only runs (the semigreedy grid cells) never
    # pay for the insert scan's tables
    path = tmp_path / "m.mat"
    path.write_text(serialize_lolib(LopInstance(oracles.rand_lop_matrix(oracles.make_rng(44), 12))))
    inst = load_instance(path, "lop")
    report = run(inst, build_run_config("lop", {"variant": "semigreedy"}, 1, None, 3))
    assert inst._columns is None and inst._skew is None
    inst.best_move(PermutationSolution(list(report.best_solution.order)))
    assert inst._columns is not None


class _CheckedLop(LopInstance):
    """A LopInstance that checks its cached insert scan at every scan.

    After each scan the cached state must equal a fresh full pass over the
    same order. Every stride-th scan, the gains and both picks must also
    equal those of the oracle's full move list. patched counts the scans
    that kept the state apply_move had patched instead of rebuilding it.
    """

    def __init__(self, cost, stride=1):
        super().__init__(cost)
        self.stride, self.scans, self.patched = stride, 0, 0

    def _insert_gains(self, order):
        kept = self._scan
        gains = super()._insert_gains(order)
        assert self._scan == self._full_scan(order)
        self.scans += 1
        self.patched += self._scan is kept
        return gains

    def best_move(self, solution):
        move = super().best_move(solution)
        if self.scans % self.stride == 0 or move is None:
            moves = oracles.all_moves(self, solution)
            assert move == oracles.best_move(moves), solution.order
            assert LopInstance.first_move(self, solution) == oracles.first_move(moves), solution.order
            gains = [0] * self.n
            for m in moves:
                gains[m.element] = max(gains[m.element], m.delta)
            assert list(self._insert_gains(solution.order)) == gains
        return move

    def first_move(self, solution, offset=0):
        move = super().first_move(solution, offset)
        if self.scans % self.stride == 0 or move is None:
            moves = oracles.all_moves(self, solution)
            assert move == oracles.first_move(moves), solution.order
            assert LopInstance.best_move(self, solution) == oracles.best_move(moves), solution.order
        return move


@pytest.mark.parametrize("n, stride", [(50, 1), (100, 10), (150, 40)])
def test_patched_insert_scan_matches_a_fresh_pass_in_descents(n, stride):
    # a best and a first descent from semi-greedy starts, as the drivers run
    # them; the oracle checks every stride-th scan and each descent's last
    inst = _CheckedLop(oracles.rand_lop_matrix(oracles.make_rng(n + 1), n), stride)
    rng = RandomStream(n)
    for depth in SearchDepth:
        scans = inst.scans
        local_search(inst, construct(inst, RclConfig(), rng), depth, rng)
        assert inst.scans - scans > n // 2
    # all but each descent's first scan kept the patched state
    assert inst.patched >= inst.scans * 3 // 4


def test_patched_insert_scan_matches_a_fresh_pass_in_relinking():
    # every walk point gets its own descent, and the walk heads move in between
    r = oracles.make_rng(53)
    inst = _CheckedLop(oracles.rand_lop_matrix(r, 40), stride=3)
    cfg = path_relinking.PrConfig(
        direction=path_relinking.MIXED, step=path_relinking.GREEDY_RANDOMIZED, in_path_ls=path_relinking.LS_ALL
    )
    rng = RandomStream(53)
    ls = lambda sol: local_search(inst, sol, SearchDepth.BEST_IMPROVING, rng)
    a, b = (ls(PermutationSolution(oracles.rand_perm(r, 40))) for _ in range(2))
    best, trace = path_relinking.relink(inst, a, b, cfg, rng, ls=ls)
    assert len(trace.visited) > 5 and inst.patched > 5 * len(trace.visited)
    assert best.cached_objective == oracles.lop_value(inst.cost, best.order)


def test_insert_scan_survives_copies_hand_edits_and_failed_moves():
    r = oracles.make_rng(54)
    n = 30
    inst = _CheckedLop(oracles.rand_lop_matrix(r, n))
    sol = PermutationSolution(oracles.rand_perm(r, n))
    move = inst.best_move(sol)
    # a copy of the cached solution moves: the state follows the copy, and the original still scans exactly
    twin = sol.copy()
    inst.apply_move(twin, move)
    assert inst._scan.order == twin.order
    inst.best_move(sol)
    inst.best_move(twin)
    # an order edited by hand, in place or swapped back
    order = sol.order
    order[0], order[-1] = order[-1], order[0]
    inst.best_move(sol)
    inst.best_move(sol)
    order[0], order[-1] = order[-1], order[0]
    inst.best_move(sol)
    # a move whose from_pos is out of range raises and leaves the order as it was
    before = list(sol.order)
    with pytest.raises(ValueError, match=rf"^insert positions \({n}, 3\) not in 0\.\.{n - 1}$"):
        inst.apply_move(sol, Move("insert", 0, n, 3, 0))
    assert sol.order == before
    move = inst.best_move(sol)
    # a patch that fails half way leaves no state behind

    def failing_rescan(scan, lo, hi):
        scan.prefixes[lo + 1] = 0
        raise MemoryError

    inst._rescan = failing_rescan
    with pytest.raises(MemoryError):
        inst.apply_move(sol, move)
    del inst._rescan
    inst.best_move(sol)
    # positions the list operations would accept but no kernel produces,
    # negative and past the end, raise before any change, and the next scan
    # is still exact
    for i, j in ((-1, 0), (2, n + 4), (n - 1, -3)):
        before = list(sol.order)
        with pytest.raises(ValueError, match="not in 0"):
            inst.apply_move(sol, Move("insert", sol.order[i], i, j, 0))
        assert sol.order == before
        inst.best_move(sol)
    patched = inst.patched
    local_search(inst, sol, SearchDepth.BEST_IMPROVING, RandomStream(54))  # the descent from there patches again
    assert inst.patched > patched


def test_pr_candidates_worked_example():
    # (1,2,3,4) vs (3,4,2,1) 1-based: every element misplaced, all four
    # insertions strictly shrink the position-wise difference
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(24), 4))
    cur = PermutationSolution([0, 1, 2, 3])
    tgt = PermutationSolution([2, 3, 1, 0])
    steps = inst.pr_candidates(cur, tgt, 4)
    assert len(steps) == 4
    assert sorted(m.element for m in steps) == [0, 1, 2, 3]
    assert [m.delta for m in steps] == sorted((m.delta for m in steps), reverse=True)


def test_pr_candidates_adjacent_transposition():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(25), 4))
    cur = PermutationSolution([0, 2, 1, 3])
    tgt = PermutationSolution([0, 1, 2, 3])
    # either element's insertion repairs both positions at once, so it
    # reaches guiding and is no relinking step
    assert inst.pr_candidates(cur, tgt, 4) == []


def test_pr_candidates_trap_pairs_yield_nothing():
    # non-adjacent transpositions: no insertion reduces the position-wise
    # difference, so the strictly-reducing filter leaves nothing
    inst3 = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(26), 3))
    assert inst3.pr_candidates(PermutationSolution([2, 1, 0]), PermutationSolution([0, 1, 2]), 3) == []
    inst6 = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(27), 6))
    assert inst6.pr_candidates(
        PermutationSolution([2, 1, 0, 5, 4, 3]), PermutationSolution([0, 1, 2, 3, 4, 5]), 6
    ) == []


def test_pr_candidates_strictly_reduce_difference():
    r = oracles.make_rng(28)
    inst = LopInstance(oracles.rand_lop_matrix(r, 7))
    for _ in range(300):
        cur = PermutationSolution(oracles.rand_perm(r, 7))
        tgt = PermutationSolution(oracles.rand_perm(r, 7))
        if cur == tgt:
            continue
        base = oracles.position_delta(cur.order, tgt.order)
        for move in inst.pr_candidates(cur, tgt, 7):
            scratch = cur.copy()
            scratch.cached_objective = evaluate(inst, scratch)
            inst.apply_move(scratch, move)
            after = oracles.position_delta(scratch.order, tgt.order)
            assert 0 < after < base
            assert move.delta == oracles.lop_value(inst.cost, scratch.order) - oracles.lop_value(
                inst.cost, cur.order
            )


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_pr_candidates_match_reference_ranking(k):
    """pr_candidates(cur, tgt, k) is the stable top k, by delta, of the
    reference's reducing insertions in ascending element order, without the
    ones that reach tgt."""
    r = oracles.make_rng(70 + k)
    tied = reached = 0
    for trial in range(150):
        n = r.randrange(3, 9)
        inst = LopInstance(oracles.rand_lop_matrix(r, n, -2, 2))
        cur, tgt = oracles.rand_perm(r, n), oracles.rand_perm(r, n)
        if trial % 3 == 0:  # one insertion apart, so some insertion reaches tgt
            tgt = list(cur)
            tgt.insert(r.randrange(n), tgt.pop(r.randrange(n)))
        if cur == tgt:
            continue
        steps = []
        for e in sorted(oracles.reducing_insertions(cur, tgt)):
            after = list(cur)
            after.remove(e)
            after.insert(tgt.index(e), e)
            if after == tgt:
                reached += 1
            else:
                steps.append((e, oracles.lop_value(inst.cost, after) - oracles.lop_value(inst.cost, cur)))
        expected = sorted(steps, key=lambda s: -s[1])[:k]
        got = inst.pr_candidates(PermutationSolution(list(cur)), PermutationSolution(list(tgt)), k)
        assert [(m.element, m.delta) for m in got] == expected, (cur, tgt)
        assert all(m.from_pos == cur.index(m.element) and m.to_pos == tgt.index(m.element) for m in got)
        deltas = sorted((d for _, d in steps), reverse=True)
        tied += any(deltas[i] == deltas[i + 1] for i in range(min(k, len(deltas) - 1)))
    assert tied > 0 and reached > 0  # the tie-breaks and the reaching filter were exercised


def test_pr_candidates_rejects_identical_endpoints():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(30), 4))
    sol = PermutationSolution([1, 0, 3, 2])
    with pytest.raises(ValueError):
        inst.pr_candidates(sol, sol.copy(), 4)


def test_instance_validation():
    with pytest.raises(ValueError):
        LopInstance([[0]])  # n < 2
    with pytest.raises(ValueError):
        LopInstance([[0, 1], [2, 0], [3, 4]])  # ragged
    with pytest.raises(ValueError):
        LopInstance([[0, 1, 2], [3, 0, 4]])  # short row
    with pytest.raises(ValueError):
        LopInstance([[0, 1.5], [2, 0]])  # non-integer
    with pytest.raises(ValueError):
        LopInstance([[0, 2**31], [2, 0]])  # over 32-bit
    # the first fault in row order is reported, wherever the bulk check finds it
    with pytest.raises(ValueError, match=r"^non-integer cost at \(0,1\): True$"):
        LopInstance([[0, True], [2, 0]])
    with pytest.raises(ValueError, match=r"^non-integer cost at \(0,1\): 1.5$"):
        LopInstance([[0, 1.5], [2]])  # before the short row 1
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, expected 2$"):
        LopInstance([[0, 1], [2]])
    with pytest.raises(ValueError, match=rf"^cost at \(1,0\) outside 32-bit range: {-2**31 - 1}$"):
        LopInstance([[0, 2**31 - 1], [-2**31 - 1, 0]])
    # int subclasses other than bool are accepted, and the 32-bit ends too
    class Weight(int):
        pass

    inst = LopInstance([[0, Weight(7)], [-2**31, 2**31 - 1]])
    assert inst.cost == ((0, 7), (-2**31, 2**31 - 1)) and type(inst.cost[0][1]) is Weight
    with pytest.raises(TypeError):
        LopInstance([[0, 1], [2, 0]], neighborhood="insert")  # one move kind, no neighbourhood option


def test_diagonal_stored_but_never_read():
    # nonzero diagonals are tolerated and contribute nothing to any objective
    a = LopInstance([[7, 5], [3, 9]])
    b = LopInstance([[0, 5], [3, 0]])
    for order in ([0, 1], [1, 0]):
        assert a.evaluate(PermutationSolution(order)) == b.evaluate(PermutationSolution(order))
