import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.core import PartitionSolution, SearchDepth, evaluate
from grasppr.maxcut import MAX_VERTICES, GainTable, MaxCutInstance

import oracles

BEST, FIRST = SearchDepth.BEST_IMPROVING, SearchDepth.FIRST_IMPROVING

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
    steps = inst.new_walk(cur, tgt).ranked(0, 8)
    assert len(steps) == 8  # one flip per differing position
    assert [m.delta for m in steps] == sorted((m.delta for m in steps), reverse=True)
    for move in steps:
        scratch = cur.copy()
        oracles.apply(inst, scratch, move)
        assert move.delta == oracles.cut_value(inst.edges, scratch.bits)


def test_pr_candidates_single_difference_reaches():
    cur = PartitionSolution([1, 0, 0])
    tgt = PartitionSolution([1, 0, 1])
    evaluate(K3, cur)
    # the one flip reaches guiding, so it is no relinking step
    assert K3.new_walk(cur, tgt).ranked(0, 3) == []


def test_pr_candidates_rejects_identical_endpoints():
    sol = PartitionSolution([1, 0, 1])
    with pytest.raises(ValueError):
        K3.new_walk(sol, sol.copy()).ranked(0, 3)


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
    # the best- and first-improving scans at every offset pick what the selection loops
    # over the reference scan pick, at every step of a climb down to the local optimum
    r = oracles.make_rng(42)
    for n, p, lo, hi in ((1, 0.0, 1, 1), (2, 1.0, -5, 10), (9, 0.5, -1, 1), (30, 0.2, -5, 10), (30, 0.3, -9, -1)):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, p, lo, hi))
        sol = PartitionSolution(oracles.rand_bits(r, n))
        evaluate(inst, sol)
        while True:
            best = oracles.chosen(inst, sol, BEST)
            assert best == oracles.best_move(oracles.all_moves(inst, sol)), (n, sol.bits)
            for offset in range(n):
                expected = oracles.first_move(oracles.all_moves(inst, sol, offset))
                assert oracles.chosen(inst, sol, FIRST, offset) == expected, (n, offset)
            if best is None:
                break
            oracles.apply(inst, sol, best if r.random() < 0.5 else oracles.chosen(inst, sol, FIRST, r.randrange(n)))
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
    """The gain cache and a walk's ranked() deltas equal those of a freshly built GainTable."""
    gains = _fresh_gains(inst, sol)
    assert inst._gain_table(sol.bits).gain == gains
    diff = _diff(sol, other)
    if len(diff) > 1:
        assert sorted((m.element, m.delta) for m in inst.new_walk(sol, other).ranked(0, inst.n)) == [
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
        if op == 0:  # apply a flip priced by the cache to the solution itself; no table follows it
            v = r.randrange(12)
            oracles.apply(inst, cur, Move(v, None, None, inst._gain_table(cur.bits).gain[v]))
        elif op == 1:  # apply a chosen move to a copy
            move = oracles.chosen(inst, cur, FIRST, r.randrange(12))
            if move is not None:
                assert move.delta == _fresh_gains(inst, cur)[move.element]
                oracles.apply(inst, cur.copy(), move)
        elif op == 2:  # flip a bit and re-evaluate, outside any move
            cur.bits[r.randrange(12)] ^= 1
            evaluate(inst, cur)
        elif op == 3:  # in-path style local search on a copy, then relinking candidates
            local_search(inst, cur.copy(), SearchDepth.FIRST_IMPROVING, RandomStream(r.randrange(99)))
        else:  # a relinking step taken on the solution itself
            steps = inst.new_walk(cur, other).ranked(0, 12) if cur != other else []
            if steps:
                oracles.apply(inst, cur, r.choice(steps))
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
    inst.new_walk(out, guide).ranked(0, 30)
    assert len(builds) == 1  # the descent left the cache in sync with its result
    oracles.apply(inst, guide, Move(0))  # moves only the guide: the cache keeps out's bits
    inst.new_walk(out, guide).ranked(0, 30)
    assert len(builds) == 1


def _bucketing(diff, gains):
    return {g: [j for j in diff if gains[j] == g] for g in {gains[j] for j in diff}}


@pytest.mark.parametrize("weights", ["negative", "pm1", "unit"])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_walk_step_kernel_matches_reference(weights, k):
    """Every step of single-head and alternating walks: ranked(i, k) equals
    the stable top k of the full scan and pr_candidates over the head's
    table and index, the walk's distance stays the number of positions
    where its heads differ, and each index built stays the bucketing of
    those positions by its head's fresh gains. Unit weights are the G-set's
    kind."""
    r = oracles.make_rng(60 + k)
    tied = both = 0
    for trial in range(12):
        n = r.randrange(6, 30)
        weight = {"negative": lambda: r.randint(-5, 3), "pm1": lambda: r.choice((-1, 1)), "unit": lambda: 1}[weights]
        edges = [(i, j, weight()) for i, j, _ in oracles.rand_edges(r, n, 0.3)]
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
            diff = _diff(a, b)
            assert walk.distance == len(diff)
            for head, index in zip(walk.heads, walk.indexes):
                assert index is None or index == _bucketing(diff, _fresh_gains(inst, head))
            cur, other = walk.heads[mover], walk.heads[1 - mover]
            expected = oracles.top_relink_flips(edges, cur.bits, other.bits, k)
            steps = walk.ranked(mover, k)
            assert [(m.element, m.delta) for m in steps] == expected
            assert inst.pr_candidates(walk.tables[mover], walk.indexes[mover], k, walk.distance) == steps
            if not steps:
                assert walk.distance == 1
                break
            gains = [g for _, g in oracles.top_relink_flips(edges, cur.bits, other.bits, n)]
            tied += gains.count(gains[0]) > 1 or (k < len(gains) and gains[k - 1] == gains[k])
            walk.take(mover, r.choice(steps))
            assert cur.cached_objective == oracles.cut_value(edges, cur.bits)
            if alternate:
                mover = 1 - mover
        assert walk.indexes[1] is None or alternate  # a forward walk indexes only its moving head
        both += walk.indexes[1] is not None
    assert tied > 0  # the tie-breaks were exercised
    assert both > 0  # a mixed walk indexed both heads


def test_gain_table_miss_builds_one_private_table(monkeypatch):
    # however many vertices differ from the cached tables, a miss makes exactly
    # one build: exact gains over a private copy of the bits. A move by hand
    # leaves the table alone, and the next lookup sees the bits differ and
    # builds exact gains
    from grasppr.core import Move

    counts = _count_cache_work(monkeypatch)
    r = oracles.make_rng(61)
    n = 40
    for weights in ((-5, 10), (-1, 1)):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.2, *weights))
        for flips in (1, n // 4, n // 2, n // 2 + 1, n):
            first = PartitionSolution(oracles.rand_bits(r, n))
            inst._gain_table(first.bits)
            second = first.copy()
            for v in r.sample(range(n), flips):
                second.bits[v] ^= 1
            fresh = _fresh_gains(inst, second)
            before = dict(counts)
            table = inst._gain_table(second.bits)
            assert counts == {**before, "builds": before["builds"] + 1}
            assert table.gain == fresh
            assert table.bits == second.bits and table.bits is not second.bits
            v = r.randrange(n)
            old = (list(table.bits), list(table.gain), set(table.pos))
            oracles.apply(inst, second, Move(v, None, None, table.gain[v]))
            assert counts == {**before, "builds": before["builds"] + 1}
            assert (table.bits, table.gain, table.pos) == old
            rebuilt = inst._gain_table(second.bits)
            assert counts == {**before, "builds": before["builds"] + 2}
            assert rebuilt.gain == _fresh_gains(inst, second)


def test_seed_vertex_computed_once_per_instance():
    from grasppr.construction import RclConfig, construct
    from grasppr.core import RandomStream

    r = oracles.make_rng(62)
    inst = MaxCutInstance(20, oracles.rand_edges(r, 20, 0.3, -5, 10))
    heaviest = max(range(20), key=lambda v: (sum(w for _, w in inst.adj[v]), -v))
    greedy = RclConfig(alpha_low=0.0, alpha_high=0.0)
    assert inst._seed is None  # not at parse time
    assert construct(inst, greedy, RandomStream(1)).bits[heaviest] == 1
    assert inst._seed == heaviest
    other = (heaviest + 1) % 20
    inst._seed = other  # later constructions read the cached seed instead of recomputing it
    assert construct(inst, greedy, RandomStream(1)).bits[other] == 1


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


def test_of_several_faulty_edges_the_first_ones_fault_is_raised():
    # the edges are read once and each is judged whole before the next, so a
    # non-integer vertex is no longer raised after every other edge's range,
    # self-loop and weight faults
    for edges, message in (
        ([(0, 1, 1), (1.0, 0, 5), (0, 3, 1)], r"non-integer vertex: 1\.0"),
        ([(0, 1, 1), (True, 2, 5), (1, 1, 1)], "non-integer vertex: True"),
        ([(True, 2, 5), (0, 2, 2**40)], "non-integer vertex: True"),
        ([(0, 3, 1), (1.0, 0, 5)], r"vertex out of range in edge \(0,3\)"),
        ([(1, 1, 1), (True, 0, 5)], "self-loop on vertex 1"),
        ([(0, 2, 2**40), (True, 0, 5)], r"weight on edge \(0,2\) is not a 32-bit int"),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            MaxCutInstance(3, edges)
        with pytest.raises(ValueError, match=f"^{message}"):
            MaxCutInstance(3, iter(edges))


def test_edges_are_canonical():
    inst = MaxCutInstance(4, [(2, 0, 1), (3, 1, 2)])
    assert inst.edges == ((0, 2, 1), (1, 3, 2))


@pytest.mark.parametrize("pm1", [False, True], ids=["unit", "pm1"])
def test_adj_holds_the_graph_once(pm1):
    # the G-set's kinds of graph, unit and ±1 weights, with duplicate edges
    # that merge to 2w and to 0. adj keeps one tuple per distinct (neighbour,
    # weight) pair and one int object per vertex id (past 256, so not the
    # interpreter's cached ints); edges is derived from it
    r = oracles.make_rng(39 + pm1)
    n = 300
    given = [(i, j, r.choice((-1, 1)) if pm1 else 1) for i, j, _ in oracles.rand_edges(r, n, 0.03)]
    given += [(j, i, w) for i, j, w in given[::7]] + [(j, i, -w) for i, j, w in given[3::7]]
    r.shuffle(given)
    merged = {}
    for i, j, w in given:
        key = (min(i, j), max(i, j))
        merged[key] = merged.get(key, 0) + w
    expected = tuple(sorted((i, j, w) for (i, j), w in merged.items()))
    assert {w for _, _, w in expected} == ({-2, -1, 0, 1, 2} if pm1 else {0, 1, 2})
    inst = MaxCutInstance(n, given)

    assert type(inst.edges) is tuple and inst.edges == expected and type(inst.m) is int and inst.m == len(expected)
    adj = [[] for _ in range(n)]
    for i, j, w in expected:
        adj[i].append((j, w))
        adj[j].append((i, w))
    assert type(inst.adj) is tuple and inst.adj == tuple(map(tuple, adj))
    pairs = [p for a in inst.adj for p in a]
    assert len({id(p) for p in pairs}) == len(set(pairs)) <= 5 * n
    ids = {}
    for u, _ in pairs:
        ids.setdefault(u, set()).add(id(u))
    assert all(len(objects) == 1 for objects in ids.values()) and len(ids) > 256
    # no intern table outlives the constructor
    assert not [name for name, value in vars(inst).items() if isinstance(value, dict)]

    for _ in range(20):
        bits = oracles.rand_bits(r, n)
        assert inst.evaluate(PartitionSolution(bits)) == oracles.cut_value(given, bits) == oracles.cut_value(expected, bits)


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
    twin = table.fork()
    assert twin.pos == table.pos and twin.pos is not table.pos and twin.gain is not table.gain
    assert twin.bits == table.bits and twin.bits is not table.bits
    for _ in range(50):  # built caches, then walk steps through them, then forks
        for v in r.sample(range(n), r.randrange(1, n)):
            sol.bits[v] ^= 1
        evaluate(inst, sol)
        cached = inst._gain_table(sol.bits)
        assert cached.pos == _positive(cached) and cached.gain == _fresh_gains(inst, sol)
        mover = sol if r.random() < 0.5 else sol.copy()  # either way, the walk forks the cached table
        walk = inst.new_walk(mover, PartitionSolution([1 - x for x in mover.bits]))
        for v in r.sample(range(n), 3):
            walk.take(0, Move(v, None, None, inst._gain_table(mover.bits).gain[v]))
            for t in inst._tables:
                assert t.pos == _positive(t)
                assert t.gain == _fresh_gains(inst, t)


@pytest.mark.parametrize("pm1", [False, True], ids=["signed", "pm1"])
def test_picks_equal_reference_scan_at_every_pass(pm1):
    # the best- and first-improving scans at every offset equal the selection over the
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
            best = oracles.chosen(inst, sol, BEST)
            scan = oracles.all_moves(inst, sol)
            assert best == oracles.best_move(scan), (n, sol.bits)
            for offset in range(n):
                assert oracles.chosen(inst, sol, FIRST, offset) == oracles.first_move(oracles.all_moves(inst, sol, offset))
            if best is None:
                break
            ties.add([m.delta for m in scan].count(best.delta) > 1)
            oracles.apply(inst, sol, best if r.random() < 0.7 else oracles.chosen(inst, sol, FIRST, r.randrange(n)))
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

    def counting_fork(self):
        counts["forks"] += 1
        return fork(self)

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
def test_hand_flipped_bits_on_a_head_or_its_copy_give_exact_gains(mixed):
    # a walk head's table is held by the walk, and an in-path search's copy
    # of it has a fork. Only the walk moves its heads while it runs, so bits are
    # flipped by hand on the copy during a walk and on a head between
    # walks, and the walk after that flip is a fresh one: every gain, pick
    # and relinking delta stays exact
    from grasppr.core import RandomStream
    from grasppr.local_search import local_search

    r = oracles.make_rng(110 + mixed)
    n = 80
    edges = oracles.rand_edges(r, n, 0.06, -5, 10)
    inst = MaxCutInstance(n, edges)
    a, b = (PartitionSolution(oracles.rand_bits(r, n)) for _ in range(2))
    for sol in (a, b):
        evaluate(inst, sol)
    walks = 0
    for step in range(40):
        if step % 4 == 0:  # between walks: a hand flip on a head where the heads agree
            if step:
                head = (a, b)[walks % 2]
                head.bits[r.choice([j for j in range(n) if a.bits[j] == b.bits[j]])] ^= 1
                evaluate(inst, head)
            walk, mover = inst.new_walk(a, b), 0
            walks += 1
        cur, other = walk.heads[mover], walk.heads[1 - mover]
        steps = walk.ranked(mover, n)
        assert [(m.element, m.delta) for m in steps] == oracles.top_relink_flips(edges, cur.bits, other.bits, n)
        walk.take(mover, steps[0])
        assert cur.cached_objective == oracles.cut_value(edges, cur.bits)
        copy = local_search(inst, cur, FIRST, RandomStream(step))  # an in-path search
        assert copy.bits != cur.bits and walk.tables[mover].bits == cur.bits  # the search flipped a fork
        copy.bits[r.randrange(n)] ^= 1  # by hand, on the in-path copy, during the walk
        evaluate(inst, copy)
        for sol in (cur, copy):
            assert inst._gain_table(sol.bits).gain == _fresh_gains(inst, sol)
            assert oracles.chosen(inst, sol, BEST) == oracles.best_move(oracles.all_moves(inst, sol))
        if mixed:
            mover = 1 - mover
    assert walks == 10 and len(_diff(a, b)) > 1


@pytest.mark.parametrize("in_path", ["none", "all"])
@pytest.mark.parametrize("direction", ["forward", "backward", "back_and_forward", "mixed"])
def test_one_table_lookup_per_descent_and_per_moving_walk_head(monkeypatch, direction, in_path):
    # a local search looks its gain table up once and a walk once per head
    # that moves; moves() still runs once per pass and pr_candidates() once
    # per step, so the per-pass and per-step spans a tracer times stay whole
    from grasppr.core import RandomStream
    from grasppr.local_search import local_search
    from grasppr.path_relinking import PrConfig, relink

    lookups, scans, ranked = [], [], []
    lookup, scan, candidates = MaxCutInstance._gain_table, MaxCutInstance.moves, MaxCutInstance.pr_candidates

    def counting_lookup(self, bits):
        lookups.append(bits)
        return lookup(self, bits)

    def counting_scan(self, *args):
        move = None
        for move in scan(self, *args):
            yield move
        scans.append(move)

    def counting_candidates(self, *args):
        out = candidates(self, *args)
        ranked.append(len(out))
        return out

    monkeypatch.setattr(MaxCutInstance, "_gain_table", counting_lookup)
    monkeypatch.setattr(MaxCutInstance, "moves", counting_scan)
    monkeypatch.setattr(MaxCutInstance, "pr_candidates", counting_candidates)
    r = oracles.make_rng(105)
    n = 80
    inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.08, -5, 10))
    a, b = (PartitionSolution(oracles.rand_bits(r, n)) for _ in range(2))
    for sol in (a, b):
        evaluate(inst, sol)
    for depth in SearchDepth:
        del lookups[:], scans[:]
        out = local_search(inst, a, depth, RandomStream(3))
        assert len(lookups) == 1
        assert len(scans) >= 3 and None not in scans[:-1] and scans[-1] is None  # one scan per pass
        assert out.cached_objective == a.cached_objective + sum(m.delta for m in scans[:-1])

    tables = [inst._gain_table(sol.bits) for sol in (a, b)]
    searches = []

    def ls(sol):
        searches.append(len(scans))
        return local_search(inst, sol, BEST, RandomStream(4))

    del lookups[:], scans[:]
    cfg = PrConfig(direction=direction, in_path_ls=in_path, min_distance=1)
    _, trace = relink(inst, a, b, cfg, RandomStream(5), ls)
    moving_heads = {"forward": 1, "backward": 1, "back_and_forward": 2, "mixed": 2}[direction]
    assert len(lookups) == moving_heads + len(searches)
    assert len(searches) == (len(trace.visited) if in_path == "all" else 0)
    walks = 1 + (direction == "back_and_forward")
    assert ranked.count(0) <= walks and len(ranked) - ranked.count(0) == len(trace.visited) > 20
    for sol, table in zip((a, b), tables):  # a head forked the table of the endpoint it copies
        assert table.bits == sol.bits and table.gain == _fresh_gains(inst, sol)


def _snapshot(table):
    return list(table.bits), list(table.gain), set(table.pos)


def test_a_walk_flips_the_table_it_holds_and_a_lookup_forks_it(monkeypatch):
    # a walk's first step looks its head's table up and flips it in place;
    # a lookup by the head's bits after that forks it with exact gains and
    # no build, and leaves it as it was. A move by hand flips no table: the
    # next lookup builds one
    from grasppr.core import Move

    r = oracles.make_rng(120)
    n = 30
    edges = oracles.rand_edges(r, n, 0.2, -5, 10)
    inst = MaxCutInstance(n, edges)
    sol = PartitionSolution(oracles.rand_bits(r, n))
    evaluate(inst, sol)
    guide = PartitionSolution([1 - x for x in sol.bits])
    counts = _count_cache_work(monkeypatch)
    walk = inst.new_walk(sol, guide)
    walk.take(0, walk.ranked(0, 1)[0])
    table = walk.tables[0]
    assert counts == {"builds": 1, "flips": 1, "forks": 0} and inst._tables == [table]
    old = _snapshot(table)
    twin = inst._gain_table(sol.bits)
    assert counts == {"builds": 1, "flips": 1, "forks": 1} and inst._tables == [twin, table]
    assert twin is not table and _snapshot(table) == old == _snapshot(twin)
    assert twin.gain == _fresh_gains(inst, sol) and twin.pos == _positive(twin)
    assert sol.cached_objective == oracles.cut_value(edges, sol.bits)
    before = dict(counts)
    oracles.apply(inst, sol, Move(2, None, None, twin.gain[2]))
    assert counts == before and _snapshot(table) == old == _snapshot(twin)
    assert sol.cached_objective == oracles.cut_value(edges, sol.bits)
    rebuilt = inst._gain_table(sol.bits)
    assert counts == {**before, "builds": before["builds"] + 1} and inst._tables == [rebuilt, twin, table]
    assert rebuilt.gain == _fresh_gains(inst, sol)


def test_every_lookup_of_cached_bits_forks_a_distinct_table(monkeypatch):
    # a lookup hands its caller a table of its own: each one, a repeated one
    # for the same bits too, is an exact fork of the cached table with those
    # bits, made with no build, and leaves that table as it was. The fork
    # goes in front of the table it copies, so a copy's descent flips its own
    # table and leaves the original's exact
    from grasppr.core import RandomStream

    r = oracles.make_rng(121)
    n = 40
    inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.2, -5, 10))
    sol = PartitionSolution(oracles.rand_bits(r, n))
    evaluate(inst, sol)
    table = inst._gain_table(sol.bits)
    old = _snapshot(table)
    counts = _count_cache_work(monkeypatch)
    twins = [inst._gain_table(sol.bits) for _ in range(3)]
    assert counts == {"builds": 0, "flips": 0, "forks": 3}
    assert inst._tables == [twins[2], twins[1], twins[0], table]
    for twin in twins:
        assert _snapshot(twin) == old
        assert twin.bits is not table.bits and twin.gain is not table.gain and twin.pos is not table.pos
    copy = sol.copy()
    inst.descend(copy, BEST, RandomStream(121), None)
    assert copy.cached_objective > sol.cached_objective and counts["builds"] == 0
    held = inst._tables[0]
    assert held not in (table, *twins) and held.bits == copy.bits and held.gain == _fresh_gains(inst, copy)
    assert _snapshot(table) == old and table.gain == _fresh_gains(inst, sol)


def test_the_gain_cache_pins_no_solution():
    # the cached tables keep private copies of bits and no solution, so a
    # search's output is freed once its caller drops it
    import weakref

    from grasppr.core import RandomStream
    from grasppr.local_search import local_search

    r = oracles.make_rng(122)
    n = 40
    inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.2, -5, 10))
    out = local_search(inst, PartitionSolution(oracles.rand_bits(r, n)), BEST, RandomStream(122))
    assert inst._tables[0].bits == out.bits  # the descent's table stays cached
    ref = weakref.ref(out)
    del out
    assert ref() is None


def test_the_gain_cache_never_holds_more_than_its_bound(monkeypatch):
    # each lookup caches its table in front and drops what falls past
    # _TABLES: results would not change without the drop, but the cache
    # would grow by a table per miss, over a relinking run and over lookups
    # of more distinct bits than it holds
    from grasppr import maxcut
    from grasppr.drivers import RunConfig, run
    from grasppr.path_relinking import LS_ALL, PrConfig

    sizes = []
    lookup = MaxCutInstance._gain_table

    def sized_lookup(self, bits):
        table = lookup(self, bits)
        sizes.append(len(self._tables))
        return table

    monkeypatch.setattr(MaxCutInstance, "_gain_table", sized_lookup)
    r = oracles.make_rng(123)
    n = 60
    inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.1, -5, 10))
    cfg = RunConfig(variant="dynamic_pr", seed=123, iteration_limit=12, elite_k=3, pr=PrConfig(in_path_ls=LS_ALL))
    assert run(inst, cfg).pr_calls > 0
    assert len(sizes) > 3 * maxcut._TABLES and max(sizes) == maxcut._TABLES
    sizes.clear()
    for _ in range(3 * maxcut._TABLES):
        inst._gain_table(oracles.rand_bits(r, n))
    assert sizes == [maxcut._TABLES] * (3 * maxcut._TABLES)
