import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.core import PartitionSolution, evaluate
from grasppr.maxcut import MAX_VERTICES, GainTable, MaxCutInstance

import oracles

K3 = MaxCutInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def _diff(a, b):
    return [j for j in range(len(a.bits)) if a.bits[j] != b.bits[j]]


def test_cut_value_examples():
    assert K3.evaluate(PartitionSolution([1, 0, 0])) == 2
    assert K3.evaluate(PartitionSolution([0, 0, 0])) == 0
    assert K3.evaluate(PartitionSolution([1, 1, 1])) == 0


@settings(max_examples=60)
@given(st.integers(0, 2**32))
def test_cut_complement_symmetry(seed):
    r = oracles.make_rng(seed)
    inst = MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -5, 10))
    bits = oracles.rand_bits(r, 10)
    comp = [1 - b for b in bits]
    assert inst.evaluate(PartitionSolution(bits)) == inst.evaluate(PartitionSolution(comp))


def test_gain_table_initial_values():
    # gain[v] = same-side weight minus cross weight = cut change of flipping v
    gt = GainTable(K3, [1, 0, 0])
    assert gt.gain[0] == -2  # both its edges cross already
    assert gt.gain[1] == 0
    assert gt.gain[2] == 0


def test_apply_flip_updates_private_bits_and_gains():
    bits = [1, 0, 0]
    gt = GainTable(K3, bits)
    assert gt.bits == bits and gt.bits is not bits  # the table never aliases its caller's bits
    assert gt.apply_flip(0) is None
    assert gt.bits == [0, 0, 0]
    assert bits == [1, 0, 0]
    assert gt.gain == GainTable(K3, [0, 0, 0]).gain


def test_isolated_vertex_flip_is_free():
    inst = MaxCutInstance(3, [(0, 1, 4)])
    gt = GainTable(inst, [1, 0, 0])
    assert gt.gain[2] == 0


def test_gain_table_random_flip_sequences():
    r = oracles.make_rng(31)
    inst = MaxCutInstance(9, oracles.rand_edges(r, 9, 0.6, -5, 10))
    gt = GainTable(inst, oracles.rand_bits(r, 9))
    for _ in range(1000):
        v = r.randrange(9)
        before = oracles.cut_value(inst.edges, gt.bits)
        d = gt.gain[v]
        gt.apply_flip(v)
        assert d == oracles.cut_value(inst.edges, gt.bits) - before
        assert gt.gain == GainTable(inst, gt.bits).gain  # exact after every flip


def test_duplicate_edges_merge_by_sum():
    inst = MaxCutInstance(3, [(0, 1, 3), (1, 0, 4), (1, 2, 1)])
    assert inst.m == 2
    assert inst.edges == ((0, 1, 7), (1, 2, 1))
    assert inst.evaluate(PartitionSolution([1, 0, 0])) == 7


def test_pr_candidates_count_and_deltas():
    r = oracles.make_rng(33)
    inst = MaxCutInstance(8, oracles.rand_edges(r, 8, 0.6, -5, 10))
    cur = PartitionSolution([0] * 8)
    tgt = PartitionSolution([1] * 8)
    evaluate(inst, cur)
    steps = inst.pr_candidates(cur, tgt, 8, _diff(cur, tgt))
    assert len(steps) == 8  # one flip per differing position
    assert [m.delta for m in steps] == sorted((m.delta for m in steps), reverse=True)
    for move in steps:
        scratch = cur.copy()
        inst.apply_move(scratch, move)
        assert move.delta == oracles.cut_value(inst.edges, scratch.bits)


def test_pr_candidates_single_difference_reaches():
    cur = PartitionSolution([1, 0, 0])
    tgt = PartitionSolution([1, 0, 1])
    evaluate(K3, cur)
    # the one flip reaches guiding, so it is no relinking step
    assert K3.pr_candidates(cur, tgt, 3, _diff(cur, tgt)) == []


def test_pr_candidates_rejects_identical_endpoints():
    sol = PartitionSolution([1, 0, 1])
    with pytest.raises(ValueError):
        K3.pr_candidates(sol, sol.copy(), 3, [])


def test_local_optimum_has_nonpositive_gains():
    from grasppr.core import RandomStream, SearchDepth
    from grasppr.local_search import local_search

    r = oracles.make_rng(34)
    inst = MaxCutInstance(10, oracles.rand_edges(r, 10, 0.5, -5, 10))
    start = PartitionSolution(oracles.rand_bits(r, 10))
    evaluate(inst, start)
    out = local_search(inst, start, SearchDepth.BEST_IMPROVING, RandomStream(1))
    assert all(g <= 0 for g in GainTable(inst, out.bits).gain)


def test_move_kernels_match_reference_selection():
    # best_move and first_move at every offset pick what the selection loops
    # over the reference scan pick, at every step of a climb down to the local optimum
    r = oracles.make_rng(42)
    for n, p, lo, hi in ((1, 0.0, 1, 1), (2, 1.0, -5, 10), (9, 0.5, -1, 1), (30, 0.2, -5, 10), (30, 0.3, -9, -1)):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, p, lo, hi))
        sol = PartitionSolution(oracles.rand_bits(r, n))
        evaluate(inst, sol)
        while True:
            best = inst.best_move(sol)
            assert best == oracles.best_move(oracles.all_moves(inst, sol)), (n, sol.bits)
            for offset in range(n):
                expected = oracles.first_move(oracles.all_moves(inst, sol, offset))
                assert inst.first_move(sol, offset) == expected, (n, offset)
            if best is None:
                break
            inst.apply_move(sol, best if r.random() < 0.5 else inst.first_move(sol, r.randrange(n)))
            assert sol.cached_objective == oracles.cut_value(inst.edges, sol.bits)


def test_all_moves_oracle_matches_cut_value():
    # the reference scan the kernels are checked against: every transfer in
    # vertex order rotated by offset, each delta the cut change of its flip
    r = oracles.make_rng(43)
    for n in (1, 2, 9, 20):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.5, -5, 10))
        for _ in range(5):
            bits = oracles.rand_bits(r, n)
            base = oracles.cut_value(inst.edges, bits)
            offset = r.randrange(n)
            moves = oracles.all_moves(inst, PartitionSolution(bits), offset)
            assert [m.element for m in moves] == [(offset + k) % n for k in range(n)]
            for m in moves:
                flipped = list(bits)
                flipped[m.element] ^= 1
                assert m.delta == oracles.cut_value(inst.edges, flipped) - base


def _fresh_gains(inst, sol):
    return GainTable(inst, sol.bits).gain


def _check_against_fresh(inst, sol, other):
    """The gain cache and pr_candidates() deltas equal those of a freshly built GainTable."""
    gains = _fresh_gains(inst, sol)
    assert inst._gain_table(sol).gain == gains
    diff = _diff(sol, other)
    if len(diff) > 1:
        assert sorted((m.element, m.delta) for m in inst.pr_candidates(sol, other, inst.n, diff)) == [
            (j, gains[j]) for j in diff
        ]


def test_gain_cache_under_interleaved_operations():
    from grasppr.core import Move, RandomStream, SearchDepth
    from grasppr.local_search import local_search

    r = oracles.make_rng(35)
    edges = oracles.rand_edges(r, 12, 0.4, -5, 10)
    inst = MaxCutInstance(12, edges)
    sols = [PartitionSolution(oracles.rand_bits(r, 12)) for _ in range(2)]
    for sol in sols:
        evaluate(inst, sol)
    for _ in range(400):
        cur, other = sols if r.random() < 0.5 else sols[::-1]  # alternate between two solutions
        op = r.randrange(5)
        if op == 0:  # apply a flip priced by the cache to the solution itself
            v = r.randrange(12)
            inst.apply_move(cur, Move("transfer", v, None, None, inst._gain_table(cur).gain[v]))
        elif op == 1:  # apply a chosen move to a copy, so the cache follows the copy
            move = inst.first_move(cur, r.randrange(12))
            if move is not None:
                assert move.delta == _fresh_gains(inst, cur)[move.element]
                inst.apply_move(cur.copy(), move)
        elif op == 2:  # flip bits directly, outside apply_move
            cur.bits[r.randrange(12)] ^= 1
            evaluate(inst, cur)
        elif op == 3:  # in-path style local search on a copy, then relinking candidates
            local_search(inst, cur.copy(), SearchDepth.FIRST_IMPROVING, RandomStream(r.randrange(99)))
        else:  # a relinking step taken on the solution itself
            steps = inst.pr_candidates(cur, other, 12, _diff(cur, other)) if cur != other else []
            if steps:
                inst.apply_move(cur, r.choice(steps))
        assert cur.cached_objective == oracles.cut_value(edges, cur.bits)
        _check_against_fresh(inst, cur, other)
        _check_against_fresh(inst, other, cur)


def test_gain_cache_reused_across_a_descent(monkeypatch):
    from grasppr import maxcut
    from grasppr.core import Move, RandomStream, SearchDepth
    from grasppr.local_search import local_search

    builds = []
    init = maxcut.GainTable.__init__

    def counting_init(self, inst, bits):
        builds.append(1)
        init(self, inst, bits)

    monkeypatch.setattr(maxcut.GainTable, "__init__", counting_init)
    r = oracles.make_rng(36)
    inst = MaxCutInstance(30, oracles.rand_edges(r, 30, 0.3, -5, 10))
    start = PartitionSolution(oracles.rand_bits(r, 30))
    evaluate(inst, start)
    out = local_search(inst, start, SearchDepth.BEST_IMPROVING, RandomStream(1))
    assert out.cached_objective > start.cached_objective
    assert len(builds) == 1  # one rebuild for the start, O(degree) updates after it
    guide = PartitionSolution([1 - b for b in out.bits])
    inst.pr_candidates(out, guide, 30, _diff(out, guide))
    assert len(builds) == 1  # the descent left the cache in sync with its result
    inst.apply_move(guide, Move("transfer", 0))  # out of sync: the cache keeps following out
    inst.pr_candidates(out, guide, 30, _diff(out, guide))
    assert len(builds) == 1


@pytest.mark.parametrize("pm1", [False, True], ids=["negative", "pm1"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_walk_step_kernel_matches_reference(pm1, k):
    """Every step of single-head and alternating walks: pr_candidates(..., k, diff)
    equals the stable top k of the full scan, and the walk's diff stays the
    ascending difference of its heads."""
    r = oracles.make_rng(60 + k)
    tied = 0
    for trial in range(12):
        n = r.randrange(6, 30)
        edges = [(i, j, r.choice((-1, 1)) if pm1 else r.randint(-5, 3)) for i, j, _ in oracles.rand_edges(r, n, 0.3)]
        inst = MaxCutInstance(n, edges)
        a = PartitionSolution(oracles.rand_bits(r, n))
        b = PartitionSolution(oracles.rand_bits(r, n))
        if a == b:
            continue
        for sol in (a, b):
            evaluate(inst, sol)
        walk = inst.new_walk(a, b)
        alternate = trial % 2 == 1
        mover = 0
        while True:
            assert walk.diff == _diff(a, b)
            cur, other = walk.heads[mover], walk.heads[1 - mover]
            expected = oracles.top_relink_flips(edges, cur.bits, other.bits, k)
            steps = inst.pr_candidates(cur, other, k, walk.diff)
            assert [(m.element, m.delta) for m in steps] == expected
            assert walk.ranked(mover, k) == steps
            if not steps:
                assert len(walk.diff) == 1
                break
            gains = [g for _, g in oracles.top_relink_flips(edges, cur.bits, other.bits, n)]
            tied += gains.count(gains[0]) > 1 or (k < len(gains) and gains[k - 1] == gains[k])
            walk.take(mover, r.choice(steps))
            assert cur.cached_objective == oracles.cut_value(edges, cur.bits)
            if alternate:
                mover = 1 - mover
    assert tied > 0  # the tie-breaks were exercised


def test_gain_table_miss_builds_one_table_its_solution_owns(monkeypatch):
    # however many vertices differ from the cached tables, a miss makes exactly
    # one build: exact gains over a private copy of the bits, owned by the
    # asking solution, whose next move then applies to it in place
    from grasppr.core import Move

    counts = _count_cache_work(monkeypatch)
    r = oracles.make_rng(61)
    n = 40
    for weights in ((-5, 10), (-1, 1)):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.2, *weights))
        for flips in (1, n // 4, n // 2, n // 2 + 1, n):
            first = PartitionSolution(oracles.rand_bits(r, n))
            inst._gain_table(first)
            second = first.copy()
            for v in r.sample(range(n), flips):
                second.bits[v] ^= 1
            fresh = _fresh_gains(inst, second)
            before = dict(counts)
            table = inst._gain_table(second)
            assert counts == {**before, "builds": before["builds"] + 1}
            assert table.gain == fresh
            assert table.bits == second.bits and table.bits is not second.bits
            assert table.owner is second
            v = r.randrange(n)
            inst.apply_move(second, Move("transfer", v, None, None, table.gain[v]))
            assert counts == {**before, "builds": before["builds"] + 1, "flips": before["flips"] + 1}
            assert inst._gain_table(second) is table
            assert table.gain == _fresh_gains(inst, second)


def test_seed_vertex_computed_once_per_instance():
    r = oracles.make_rng(62)
    inst = MaxCutInstance(20, oracles.rand_edges(r, 20, 0.3, -5, 10))
    heaviest = max(range(20), key=lambda v: (sum(w for _, w in inst.adj[v]), -v))
    assert inst._seed is None  # not at parse time
    assert inst.new_construction().assigned[heaviest] == 1
    assert inst._seed == heaviest
    other = (heaviest + 1) % 20
    inst._seed = other  # later builders read the cached seed instead of recomputing it
    assert inst.new_construction().assigned[other] == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        MaxCutInstance(0, [])
    with pytest.raises(ValueError, match="n must be <="):
        MaxCutInstance(MAX_VERTICES + 1, [])  # refused before any adjacency list is allocated
    with pytest.raises(ValueError):
        MaxCutInstance(3, [(0, 3, 1)])  # vertex out of range
    with pytest.raises(ValueError):
        MaxCutInstance(3, [(1, 1, 1)])  # self-loop
    with pytest.raises(ValueError):
        MaxCutInstance(3, [(0, 1, 0.5)])  # non-integer weight
    with pytest.raises(ValueError):
        MaxCutInstance(3, [(0, 1, 2**30), (1, 0, 2**30)])  # merged weight overflows
    with pytest.raises(TypeError):
        MaxCutInstance(3, [], neighborhood="transfer")  # one move kind, no neighbourhood option


def test_every_weight_fits_32_bits():
    # each given weight is judged, not only the merged one: these two would merge to 5
    with pytest.raises(ValueError, match=rf"^weight on edge \(0,1\) is not a 32-bit int: {2**40}$"):
        MaxCutInstance(2, [(0, 1, 2**40), (0, 1, -2**40 + 5)])
    with pytest.raises(ValueError, match="is not a 32-bit int"):
        MaxCutInstance(2, [(0, 1, -2**31 - 1)])
    assert MaxCutInstance(2, [(0, 1, 2**31 - 1), (1, 0, -2**31)]).edges == ((0, 1, -1),)


def test_vertex_count_and_endpoints_are_ints():
    for n in (True, 3.0, "3", None):
        with pytest.raises(ValueError, match="n must be an int"):
            MaxCutInstance(n, [])
    for edge in ((True, 0, 5), (2, True, 5), (1.0, 0, 5), (0.5, 2, 5)):
        with pytest.raises(ValueError, match="non-integer vertex"):
            MaxCutInstance(3, [(0, 2, 1), edge])
    # equal to an earlier int edge, so it would merge into that edge's key unseen
    for edge in ((True, 0, 5), (1.0, 0, 5)):
        with pytest.raises(ValueError, match="non-integer vertex"):
            MaxCutInstance(3, [(0, 1, 5), edge])
        with pytest.raises(ValueError, match="non-integer vertex"):
            MaxCutInstance(3, (e for e in [(0, 1, 5), edge]))  # edges read once
    for edge in (("1", 0, 5), (None, 0, 5)):
        with pytest.raises(ValueError, match=r"^edges must be \(i, j, w\) int triples"):
            MaxCutInstance(3, [edge])

    class Vertex(int):
        pass

    # int subclasses other than bool are accepted, as LopInstance accepts them
    assert MaxCutInstance(3, [(Vertex(2), 0, 5)]).edges == ((0, 2, 5),)


def test_edges_are_canonical():
    inst = MaxCutInstance(4, [(2, 0, 1), (3, 1, 2)])
    assert inst.edges == ((0, 2, 1), (1, 3, 2))


def _positive(table):
    return {v for v in range(len(table.gain)) if table.gain[v] > 0}


def _pm1_or_signed(r, n, p, pm1):
    return [(i, j, r.choice((-1, 1)) if pm1 else w) for i, j, w in oracles.rand_edges(r, n, p, -5, 10)]


@pytest.mark.parametrize("pm1", [False, True], ids=["signed", "pm1"])
def test_positive_gain_set_after_every_update(pm1):
    # pos is exactly the set of positive gains after every apply_flip, build
    # and fork, and the gains stay those of a fresh table
    from grasppr.core import Move

    r = oracles.make_rng(70 + pm1)
    n = 40
    inst = MaxCutInstance(n, _pm1_or_signed(r, n, 0.2, pm1))
    sol = PartitionSolution(oracles.rand_bits(r, n))
    evaluate(inst, sol)
    table = GainTable(inst, sol.bits)  # a rebuild
    assert table.pos == _positive(table)
    for _ in range(300):
        table.apply_flip(r.randrange(n))
        assert table.pos == _positive(table)
    twin = table.fork(sol)
    assert twin.pos == table.pos and twin.pos is not table.pos and twin.gain is not table.gain
    assert twin.bits == table.bits and twin.bits is not table.bits
    for _ in range(50):  # built caches, then moves through them, then forks
        for v in r.sample(range(n), r.randrange(1, n)):
            sol.bits[v] ^= 1
        evaluate(inst, sol)
        cached = inst._gain_table(sol)
        assert cached.pos == _positive(cached) and cached.gain == _fresh_gains(inst, sol)
        mover = sol if r.random() < 0.5 else sol.copy()  # a copy forks the table sol owns
        for _ in range(3):
            v = r.randrange(n)
            inst.apply_move(mover, Move("transfer", v, None, None, inst._gain_table(mover).gain[v]))
            for t in inst._tables:
                assert t.pos == _positive(t)
                assert t.gain == _fresh_gains(inst, t)


@pytest.mark.parametrize("pm1", [False, True], ids=["signed", "pm1"])
def test_picks_equal_reference_scan_at_every_pass(pm1):
    # best_move and first_move at every offset equal the selection over the
    # full reference scan at every pass of descents from random starts and
    # from constructions; with +-1 weights, ties among the best do occur
    from grasppr.construction import RclConfig, construct
    from grasppr.core import RandomStream

    r = oracles.make_rng(80 + pm1)
    ties = set()  # was the best gain tied?
    for trial in range(8):
        n = r.randrange(20, 60)
        inst = MaxCutInstance(n, _pm1_or_signed(r, n, 0.15, pm1))
        if trial % 2:
            sol = construct(inst, RclConfig(alpha_low=0.0, alpha_high=0.6), RandomStream(trial))
        else:
            sol = PartitionSolution(oracles.rand_bits(r, n))
        evaluate(inst, sol)
        while True:
            best = inst.best_move(sol)
            scan = oracles.all_moves(inst, sol)
            assert best == oracles.best_move(scan), (n, sol.bits)
            for offset in range(n):
                assert inst.first_move(sol, offset) == oracles.first_move(oracles.all_moves(inst, sol, offset))
            if best is None:
                break
            ties.add([m.delta for m in scan].count(best.delta) > 1)
            inst.apply_move(sol, best if r.random() < 0.7 else inst.first_move(sol, r.randrange(n)))
    assert ties == {True, False}


def _count_cache_work(monkeypatch):
    """Counts of GainTable builds, forks and flips applied to any table by moves."""
    from grasppr import maxcut

    counts = {"builds": 0, "flips": 0, "forks": 0}
    init, apply_flip, fork = maxcut.GainTable.__init__, maxcut.GainTable.apply_flip, maxcut.GainTable.fork

    def counting_init(self, inst, bits):
        counts["builds"] += 1
        init(self, inst, bits)

    def counting_flip(self, v):
        counts["flips"] += 1
        apply_flip(self, v)

    def counting_fork(self, owner):
        counts["forks"] += 1
        return fork(self, owner)

    monkeypatch.setattr(maxcut.GainTable, "__init__", counting_init)
    monkeypatch.setattr(maxcut.GainTable, "apply_flip", counting_flip)
    monkeypatch.setattr(maxcut.GainTable, "fork", counting_fork)
    return counts


@pytest.mark.parametrize("in_path", ["none", "all"])
@pytest.mark.parametrize("direction", ["forward", "mixed"])
def test_walk_heads_keep_their_gain_tables(monkeypatch, direction, in_path):
    # after its first step, a head's ranked() call finds its own table: no
    # build and no flip, whether an in-path search (every step) or the other
    # head of a mixed walk moved in between
    from grasppr.core import RandomStream, SearchDepth
    from grasppr.local_search import local_search
    from grasppr.path_relinking import PrConfig, relink

    counts = _count_cache_work(monkeypatch)
    r = oracles.make_rng(100)
    n = 120
    inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.05, -5, 10))
    a, b = (PartitionSolution(oracles.rand_bits(r, n)) for _ in range(2))
    for sol in (a, b):
        evaluate(inst, sol)
    new_walk = inst.new_walk
    first_calls = set()
    steady = []  # cache work done inside every later ranked() call

    def spying_walk(x, y):
        walk = new_walk(x, y)
        ranked = walk.ranked

        def spying_ranked(i, k):
            before = dict(counts)
            out = ranked(i, k)
            if i in first_calls:
                steady.append((counts["builds"] - before["builds"], counts["flips"] - before["flips"]))
            first_calls.add(i)
            fresh = _fresh_gains(inst, walk.heads[i])  # counted outside the call above
            assert all(m.delta == fresh[m.element] for m in out)
            return out

        walk.ranked = spying_ranked
        return walk

    monkeypatch.setattr(inst, "new_walk", spying_walk)
    cfg = PrConfig(direction=direction, in_path_ls=in_path, min_distance=1)

    def ls(sol):
        return local_search(inst, sol, SearchDepth.BEST_IMPROVING, RandomStream(1))

    relink(inst, a, b, cfg, RandomStream(2), ls)
    assert len(steady) > 40
    assert set(steady) == {(0, 0)}
    if in_path == "all":
        assert counts["forks"] > 10  # the in-path searches moved copies of the heads


@pytest.mark.parametrize("mixed", [False, True], ids=["forward", "mixed"])
def test_hand_flipped_bits_on_either_owner_give_exact_gains(mixed):
    # a walk head owns its table and a copy of it, moved as an in-path search
    # moves it, owns a fork; bits flipped by hand on either still give exact
    # gains, picks and relinking deltas
    from grasppr.core import Move

    r = oracles.make_rng(110 + mixed)
    n = 50
    edges = oracles.rand_edges(r, n, 0.1, -5, 10)
    inst = MaxCutInstance(n, edges)
    a, b = (PartitionSolution(oracles.rand_bits(r, n)) for _ in range(2))
    for sol in (a, b):
        evaluate(inst, sol)
    walk = inst.new_walk(a, b)
    mover = 0
    for step in range(30):
        cur, other = walk.heads[mover], walk.heads[1 - mover]
        steps = walk.ranked(mover, n)
        if not steps:
            break
        assert [(m.element, m.delta) for m in steps] == oracles.top_relink_flips(edges, cur.bits, other.bits, n)
        walk.take(mover, steps[0])
        copy = cur.copy()
        v = r.randrange(n)
        inst.apply_move(copy, Move("transfer", v, None, None, inst._gain_table(copy).gain[v]))
        assert inst._gain_table(copy).owner is copy and inst._gain_table(cur).owner is cur
        owner = copy if step % 2 else cur
        owner.bits[r.randrange(n)] ^= 1
        evaluate(inst, owner)
        walk.diff = _diff(a, b)
        for sol in (cur, copy):
            assert inst._gain_table(sol).gain == _fresh_gains(inst, sol)
            assert inst.best_move(sol) == oracles.best_move(oracles.all_moves(inst, sol))
        if mixed:
            mover = 1 - mover
    assert step > 10


def test_gain_table_owner_moves_it_in_place_and_a_copy_forks_it(monkeypatch):
    # a built table's owner is the solution that asked for it, whose moves
    # flip it in place; a move by a copy with the same bits forks it with
    # exact gains and leaves the old table as it was
    from grasppr.core import Move

    r = oracles.make_rng(120)
    n = 30
    edges = oracles.rand_edges(r, n, 0.2, -5, 10)
    inst = MaxCutInstance(n, edges)
    sol = PartitionSolution(oracles.rand_bits(r, n))
    evaluate(inst, sol)
    counts = _count_cache_work(monkeypatch)
    table = inst._gain_table(sol)
    assert table.owner is sol
    inst.apply_move(sol, Move("transfer", 0, None, None, table.gain[0]))
    assert counts == {"builds": 1, "flips": 1, "forks": 0}
    assert inst._gain_table(sol) is table and table.owner is sol
    heir = sol.copy()
    old = (list(table.bits), list(table.gain), set(table.pos))
    inst.apply_move(heir, Move("transfer", 1, None, None, table.gain[1]))
    assert counts == {"builds": 1, "flips": 2, "forks": 1}
    twin = inst._gain_table(heir)
    assert twin is not table and twin.owner is heir and table.owner is sol
    assert twin.gain == _fresh_gains(inst, heir) and twin.pos == _positive(twin)
    assert heir.cached_objective == oracles.cut_value(edges, heir.bits)
    assert (table.bits, table.gain, table.pos) == old
    assert inst._gain_table(sol) is table and table.gain == _fresh_gains(inst, sol)


def test_apply_move_refuses_a_vertex_out_of_range():
    # element -1 would flip vertex n - 1 in the solution and corrupt the table
    # the solution owns; it raises before any change, and the picks stay exact
    from grasppr.core import Move

    edges = [(0, 1, 3), (1, 2, 2), (2, 3, 5), (0, 3, 1)]
    inst = MaxCutInstance(4, edges)
    sol = PartitionSolution([0, 0, 0, 0])
    evaluate(inst, sol)
    table = inst._gain_table(sol)
    old = (list(table.bits), list(table.gain), set(table.pos))
    for v in (-1, 4):
        with pytest.raises(ValueError, match=rf"^vertex {v} not in 0\.\.3$"):
            inst.apply_move(sol, Move("transfer", v, None, None, 6))
        assert sol.bits == [0, 0, 0, 0] and sol.cached_objective == 0
        assert (table.bits, table.gain, table.pos) == old
    for offset in range(4):
        assert inst.first_move(sol, offset) == oracles.first_move(oracles.all_moves(inst, sol, offset))
