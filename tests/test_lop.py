import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr import path_relinking
from grasppr.bench_io import build_run_config, load_instance, serialize_lolib
from grasppr.construction import RclConfig, construct
from grasppr.core import Move, PermutationSolution, RandomStream, SearchDepth, evaluate
from grasppr.drivers import run
from grasppr.local_search import local_search
from grasppr.lop import LopInstance, _swar_min

import oracles
from test_construction import assert_constructs_as_reference

BEST, FIRST = SearchDepth.BEST_IMPROVING, SearchDepth.FIRST_IMPROVING


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


def test_construction_2x2_example():
    # the first step's gains are all 0, so a pure random step picks either
    # vertex; the second appends the other with gain cost[first][other]
    inst = LopInstance([[0, 5], [3, 0]])
    cfg = RclConfig(alpha_low=1.0, alpha_high=1.0)
    built = {tuple(sol.order): sol.cached_objective for sol in (construct(inst, cfg, RandomStream(s)) for s in range(20))}
    assert built == {(0, 1): 5, (1, 0): 3}
    assert construct(inst, RclConfig(alpha_low=0.0, alpha_high=0.0), RandomStream(1)).order == [0, 1]


def test_construction_matches_reference_construction():
    # signed, non-negative and all-negative matrices from n = 2 on: every
    # construction, its objective and its draws equal the from-scratch reference's
    r = oracles.make_rng(21)
    for n in range(2, 9):
        for lo, hi in ((-50, 99), (0, 99), (-9, -1)):
            assert_constructs_as_reference(LopInstance(oracles.rand_lop_matrix(r, n, lo, hi)), (n,), 2)


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
                expected += [(e, i, j, oracles.insert_delta(cost, order, i, j)) for j in range(n) if j != i]
            got = [tuple(m) for m in oracles.all_moves(inst, PermutationSolution(list(order)))]
            assert got == expected, (n, order)
            base = oracles.lop_value(cost, order)
            # lop_value is O(n^2) per move: check all moves up to n = 17, a sample beyond
            checked = got if n <= 17 else [m for m in got if m[1] in (0, n - 1)] + r.sample(got, 60)
            for e, i, j, d in checked:
                after = list(order)
                after.insert(j, after.pop(i))
                assert d == oracles.lop_value(cost, after) - base


def test_move_kernels_match_reference_selection():
    # the best- and first-improving scans pick what the selection loops over the reference scan pick,
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
                    best = oracles.chosen(inst, sol, BEST)
                    assert best == oracles.best_move(oracles.all_moves(inst, sol)), (n, sol.order)
                    first = oracles.chosen(inst, sol, FIRST, r.randrange(n))  # the insert scan takes no offset
                    assert first == oracles.first_move(oracles.all_moves(inst, sol)), (n, sol.order)
                    if best is None:
                        break
                    oracles.apply(inst, sol, best if r.random() < 0.5 else first)


def test_best_move_at_32_bit_extremes():
    # the scan keeps every element's prefix sums in one field of a single
    # int, and entries at both 32-bit ends take the widest, 64-bit fields:
    # they drive those sums to +-(n - 1) * (2^32 - 1), where a missing bias,
    # guard bit or base read would corrupt a neighbouring field, and a target
    # read from the wrong field or without the bias would pick the wrong move
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
                    best = oracles.chosen(inst, sol, BEST)
                    moves = oracles.all_moves(inst, sol)
                    assert best == oracles.best_move(moves), (n, sol.order)
                    assert oracles.chosen(inst, sol, FIRST) == oracles.first_move(moves), (n, sol.order)
                    if best is None:
                        break
                    oracles.apply(inst, sol, best)


def test_packed_columns_wait_for_the_first_best_improving_scan(tmp_path):
    # parsing and construction-only runs (the semigreedy grid cells) never
    # pay for the insert scan's tables
    path = tmp_path / "m.mat"
    path.write_text(serialize_lolib(LopInstance(oracles.rand_lop_matrix(oracles.make_rng(44), 12))))
    inst = load_instance(path, "lop")
    report = run(inst, build_run_config("lop", {"variant": "semigreedy"}, 1, None, 3))
    assert inst._columns is None and inst._skew is None
    oracles.chosen(inst, PermutationSolution(list(report.best_solution.order)), BEST)
    assert inst._columns is not None


@pytest.mark.parametrize("depth", list(SearchDepth), ids=lambda d: d.value)
def test_descents_read_picks_from_the_held_scan(monkeypatch, depth):
    # once the packing is built, a descent's passes read every pick from the
    # insert scan it holds: no pass goes back to the skew rows, and only the
    # descent's one full scan asks the instance for its packing
    r = oracles.make_rng(45)
    inst = LopInstance(oracles.rand_lop_matrix(r, 40))
    inst._packed()
    calls = []
    skew_rows, packed = LopInstance._skew_rows, LopInstance._packed
    monkeypatch.setattr(LopInstance, "_skew_rows", lambda self: calls.append("skew") or skew_rows(self))
    monkeypatch.setattr(LopInstance, "_packed", lambda self: calls.append("packed") or packed(self))
    start = PermutationSolution(oracles.rand_perm(r, 40))
    out = local_search(inst, start, depth, RandomStream(45))
    # an improved order took a move, so at least two passes ran
    assert out.cached_objective > oracles.lop_value(inst.cost, start.order) and calls == ["packed"]


class _CheckedLop(LopInstance):
    """A LopInstance that checks the insert scan a descent holds at every pass.

    The held scan must equal a fresh full pass over the current order.
    Every stride-th pass, and each descent's last, the gains and both picks
    must also equal those of the oracle's full move list. patched counts the
    passes handed the scan object of the pass before: a held scan, patched
    in place instead of rebuilt.
    """

    def __init__(self, cost, stride=1):
        super().__init__(cost)
        self.stride, self.passes, self.patched, self._held = stride, 0, 0, None

    def moves(self, solution, depth, scan):
        assert scan == self._full_scan(solution.order)
        self.patched += scan is self._held
        self._held = scan
        move = None
        for move in super().moves(solution, depth, scan):
            pass
        if self.passes % self.stride == 0 or move is None:
            moves = oracles.all_moves(self, solution)
            picks = {BEST: oracles.best_move(moves), FIRST: oracles.first_move(moves)}
            assert move == picks[depth], solution.order
            for pick in SearchDepth:  # and from a full pass
                assert next(super().moves(solution, pick, self._full_scan(solution.order)), None) == picks[pick]
            gains = [0] * self.n
            for m in moves:
                gains[m.element] = max(gains[m.element], m.delta)
            assert list(self._insert_gains(scan)) == gains
        self.passes += 1
        if move is not None:
            yield move


@pytest.mark.parametrize("n, stride", [(50, 1), (100, 10), (150, 40)])
def test_patched_insert_scan_matches_a_fresh_pass_in_descents(n, stride):
    # a best and a first descent from semi-greedy starts, as the drivers run
    # them; the oracle checks every stride-th pass and each descent's last
    inst = _CheckedLop(oracles.rand_lop_matrix(oracles.make_rng(n + 1), n), stride)
    rng = RandomStream(n)
    for depth in SearchDepth:
        passes, patched = inst.passes, inst.patched
        local_search(inst, construct(inst, RclConfig(), rng), depth, rng)
        assert inst.passes - passes > n // 2
        # every pass but the descent's first was handed the scan it holds
        assert inst.patched - patched == inst.passes - passes - 1


def test_patched_insert_scan_matches_a_fresh_pass_in_relinking():
    # every walk point gets its own descent, which scans its order once and
    # patches that scan; the walk heads move in between
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


def test_insert_scan_survives_copies_and_hand_edits():
    # no scan outlives its descent: an order edited by hand, or a copy moved
    # by a hand-made move, scans exactly, and so does each descent from it
    r = oracles.make_rng(54)
    n = 30
    inst = _CheckedLop(oracles.rand_lop_matrix(r, n))
    sol = local_search(inst, PermutationSolution(oracles.rand_perm(r, n)), BEST, RandomStream(54))
    twin = sol.copy()
    delta = oracles.insert_delta(inst.cost, twin.order, 0, n - 1)
    oracles.apply(inst, twin, Move(twin.order[0], 0, n - 1, delta))
    order = sol.order
    order[0], order[-1] = order[-1], order[0]
    evaluate(inst, sol)
    for start in (sol, twin):
        oracles.chosen(inst, start, BEST)
        patched = inst.patched
        out = local_search(inst, start, BEST, RandomStream(54))
        assert inst.patched > patched and out.cached_objective == oracles.lop_value(inst.cost, out.order)


@pytest.mark.parametrize(
    "n, skew, width",
    [(44, 381, 16), (17, 2**10, 32), (10, 119304647, 32), (17, 2**26, 64)],
)
def test_field_width_switches_at_the_skew_bound(n, skew, width):
    # (n - 1) * max|skew| at 2^14 - 1, 2^14, 2^30 - 1 and 2^30: the largest
    # bound a 16- or 32-bit field holds, and the least that takes the next
    # width. From the reversed order, the prefixes of elements 0 and n - 1
    # reach +-(n - 1) * skew, both ends of their fields. At a bound of
    # exactly 2^(w-2) only prefixes at an element's maximum would reach the
    # guard bit, and that element's minimum is its prefix 0, so every result
    # would stay exact: the width check alone pins the strict rule
    assert (n - 1) * skew in (2**14 - 1, 2**14, 2**30 - 1, 2**30)
    lo = -(skew // 2)  # entries of both signs
    cost = [[lo + skew if i < j else lo for j in range(n)] for i in range(n)]
    inst = LopInstance(cost)
    assert inst._packed().shift == width - 1
    r = oracles.make_rng(n + skew)
    for order in (list(reversed(range(n))), oracles.rand_perm(r, n)):
        sol = PermutationSolution(order)
        for _ in range(n):
            best = oracles.chosen(inst, sol, BEST)
            moves = oracles.all_moves(inst, sol)
            assert best == oracles.best_move(moves), sol.order
            assert oracles.chosen(inst, sol, FIRST) == oracles.first_move(moves), sol.order
            if best is None:
                break
            oracles.apply(inst, sol, best)
    # the same matrix through descents that check the patched scan state
    checked = _CheckedLop(cost)
    for depth in SearchDepth:
        local_search(checked, PermutationSolution(list(reversed(range(n)))), depth, RandomStream(n))
    assert checked.patched > 0


@pytest.mark.parametrize("width", [16, 32, 64])
def test_swar_min_is_the_field_wise_min(width):
    # fields anywhere in [0, 2^(w-1)), the range the scan keeps them in, equal
    # fields among them
    top, n = (1 << width - 1) - 1, 9
    pack = lambda fields: sum(f << width * e for e, f in enumerate(fields))
    guard = pack([1 << width - 1] * n)
    r = oracles.make_rng(width)
    # one value is its own minimum
    cases = [[[0] * n, [top] * n], [[top] * n, [0] * n], [[top] * n, [top] * n], [[0] * n], [[0, top] * 4 + [0]]]
    for _ in range(200):
        rows = [[r.choice((0, 1, top - 1, top, r.randint(0, top))) for _ in range(n)] for _ in range(r.randint(1, 6))]
        cases.append(rows + [list(r.choice(rows))])
    for rows in cases:
        values = [pack(row) for row in rows]
        for given in (values, tuple(values)):  # any sequence, read as given
            assert _swar_min(given, guard, width - 1) == pack(map(min, zip(*rows))), rows


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
            oracles.apply(inst, scratch, move)
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


@pytest.mark.parametrize("direction", path_relinking._DIRECTIONS)
@pytest.mark.parametrize("step", [path_relinking.GREEDY, path_relinking.GREEDY_RANDOMIZED])
def test_walk_step_is_exact(direction, step):
    # every take leaves its head as the naive reference move leaves a copy,
    # with the head's objective exact after every step
    r = oracles.make_rng(16)
    cfg = path_relinking.PrConfig(direction=direction, step=step, min_distance=0)
    taken = 0
    for n in (2, 3, 5, 9, 17, 30):
        inst = LopInstance(oracles.rand_lop_matrix(r, n, -20, 99))
        new_walk = inst.new_walk

        def checked_walk(a, b):
            walk = new_walk(a, b)
            take = walk.take

            def checked_take(i, move):
                nonlocal taken
                expected = walk.heads[i].copy()
                oracles.apply(inst, expected, move)
                take(i, move)
                head = walk.heads[i]
                assert head.order == expected.order and head.cached_objective == expected.cached_objective
                assert head.cached_objective == oracles.lop_value(inst.cost, head.order)
                taken += 1

            walk.take = checked_take
            return walk

        inst.new_walk = checked_walk
        for seed in range(4):
            a, b = (PermutationSolution(oracles.rand_perm(r, n)) for _ in range(2))
            if a != b:
                path_relinking.relink(inst, a, b, cfg, RandomStream(seed))
    assert taken > 50


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
