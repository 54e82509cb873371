import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.construction import (
    CARDINALITY,
    VALUE,
    RclConfig,
    _value_threshold,
    construct,
    rcl_from_buckets,
    rcl_from_columns,
)
from grasppr.core import RandomStream
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

CL = [("a", 10), ("b", 9), ("c", 5)]


def _columns(entries, mode, alpha):
    keys, gains = map(list, zip(*entries))
    return rcl_from_columns(keys, gains, mode, alpha)


def test_value_rcl_thresholds():
    assert set(_columns(CL, VALUE, 0.2)) == {"a", "b"}  # threshold 8
    assert set(_columns(CL, VALUE, 0.0)) == {"a"}
    assert set(_columns(CL, VALUE, 1.0)) == {"a", "b", "c"}


def test_value_rcl_literal_threshold_on_negative_max():
    # (1-alpha)*g_max rises above g_max when g_max < 0; the literal set empties
    # and the kernel falls back to the argmax set
    entries = [(0, -10), (1, -4)]
    assert oracles.build_rcl_value(entries, 0.5) == []
    assert _columns(entries, VALUE, 0.5) == [1]
    assert oracles.build_rcl_value(entries, 0.0) == [1]
    assert _columns(entries, VALUE, 0.0) == [1]


def test_cardinality_rcl_pmax():
    cl10 = [(i, 100 - i) for i in range(10)]
    assert len(_columns(cl10, CARDINALITY, 0.3)) == 3  # 1 + floor(0.3*9)
    assert len(_columns(cl10, CARDINALITY, 0.0)) == 1
    assert len(_columns(cl10, CARDINALITY, 1.0)) == 10
    assert _columns(CL, CARDINALITY, 0.0) == ["a"]


def test_cardinality_rcl_boundary_tie_lowest_id():
    entries = [(1, 7), (2, 9), (3, 7)]
    # p_max = 2: ranked (2,9) then the g=7 tie, cut keeps the lower id
    assert _columns(entries, CARDINALITY, 0.5) == [2, 1]


@settings(max_examples=120)
@given(st.lists(st.integers(-100, 100), min_size=1, max_size=12), st.floats(0.0, 1.0))
def test_value_rcl_matches_brute_force_filter(gains, alpha):
    keys = list(range(len(gains)))
    g_max = max(gains)
    literal = [k for k, g in zip(keys, gains) if g >= (1.0 - alpha) * g_max]
    assert oracles.build_rcl_value(list(zip(keys, gains)), alpha) == literal
    want = literal or [k for k, g in zip(keys, gains) if g == g_max]
    assert rcl_from_columns(keys, gains, VALUE, alpha) == (want[:1] if alpha == 0.0 else want)


def test_rcl_config_validation():
    with pytest.raises(ValueError):
        RclConfig(mode="nope")
    with pytest.raises(ValueError):
        RclConfig(alpha_low=0.5, alpha_high=0.2)
    with pytest.raises(ValueError):
        RclConfig(alpha_low=-0.1)
    with pytest.raises(ValueError):
        RclConfig(alpha_high=1.5)


# hand-built 4x4; the literal attractiveness g(v) = sum of c[u][v] over placed u
# is zero for every v at the empty prefix, so greedy opens with vertex 0 and then
# follows the largest column gains: 0, 3, 2, 1
GREEDY4 = [[0, 2, 1, 3], [9, 0, 8, 1], [4, 7, 0, 5], [1, 1, 6, 0]]


def test_greedy_trajectory_hand_verified():
    inst = LopInstance(GREEDY4)
    cfg = RclConfig(alpha_low=0.0, alpha_high=0.0)
    sol = construct(inst, cfg, RandomStream(1))
    assert sol.order == [0, 3, 2, 1]
    assert sol.cached_objective == 20
    assert oracles.lop_value(GREEDY4, sol.order) == 20


def test_collapsed_alpha_is_pure_function():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(5), 6))
    cfg = RclConfig(alpha_low=0.0, alpha_high=0.0)
    orders = {tuple(construct(inst, cfg, RandomStream(seed)).order) for seed in range(25)}
    assert len(orders) == 1  # seed-independent
    # and the stream is untouched: greedy consumes no draws
    rng = RandomStream(77)
    construct(inst, cfg, rng)
    assert rng.random() == RandomStream(77).random()


def test_construction_feasibility_lop():
    inst = LopInstance(oracles.rand_lop_matrix(oracles.make_rng(2), 5))
    cfg = RclConfig()  # alpha in (0, 0.3], per step
    rng = RandomStream(3)
    for _ in range(10**4):
        sol = construct(inst, cfg, rng)
        assert sorted(sol.order) == list(range(5))
        assert sol.cached_objective == oracles.lop_value(inst.cost, sol.order)


def test_construction_feasibility_maxcut_both_modes():
    edges = oracles.rand_edges(oracles.make_rng(4), 8, 0.5, -5, 10)
    inst = MaxCutInstance(8, edges)
    for mode in (VALUE, CARDINALITY):
        rng = RandomStream(6)
        for _ in range(300):
            sol = construct(inst, RclConfig(mode=mode), rng)
            assert len(sol.bits) == 8 and set(sol.bits) <= {0, 1}
            assert sol.cached_objective == oracles.cut_value(inst.edges, sol.bits)


def test_maxcut_seed_vertex_forced():
    # vertex 2 has the largest total incident weight; greedy starts there on side 1
    inst = MaxCutInstance(4, [(0, 2, 5), (1, 2, 4), (2, 3, 1), (0, 1, 1)])
    sol = construct(inst, RclConfig(alpha_low=0.0, alpha_high=0.0), RandomStream(1))
    assert sol.bits[2] == 1


def test_negative_gmax_falls_back_to_greedy_argmax():
    # an all-negative matrix gives g_max < 0 from the second step on, so the
    # literal value threshold (1-a)*g_max sits above g_max and empties the RCL;
    # construct must fall back to the greedy argmax set and still finish
    r = oracles.make_rng(8)
    cost = [[0 if i == j else -r.randint(1, 9) for j in range(5)] for i in range(5)]
    inst = LopInstance(cost)
    rng = RandomStream(8)
    for _ in range(50):
        sol = construct(inst, RclConfig(alpha_low=0.9, alpha_high=1.0), rng)
        assert sorted(sol.order) == list(range(5))


def _maxcut_entries(inst, assigned):
    # key 2v + side gains the weight toward assigned vertices on the other side
    return [
        (2 * v + side, sum(w for u, w in inst.adj[v] if assigned[u] is not None and assigned[u] != side))
        for v in range(inst.n)
        if assigned[v] is None
        for side in (0, 1)
    ]


def _lop_entries(inst, order):
    return [(v, sum(inst.cost[u][v] for u in order)) for v in range(inst.n) if v not in order]


def test_builder_rcl_matches_reference_selection():
    # after every add, each builder's rcl equals the reference over entries
    # computed from scratch; random adds reach states greedy steps never would
    r = oracles.make_rng(43)
    alphas = (0.0, 1e-9, 0.3, 0.5, 1.0)
    instances = [
        MaxCutInstance(12, oracles.rand_edges(r, 12, 0.4, -5, 10)),
        MaxCutInstance(10, oracles.rand_edges(r, 10, 1.0, -9, -1)),  # g_max < 0 once both sides are used
        MaxCutInstance(14, oracles.rand_edges(r, 14, 0.3, 1, 1)),  # ties everywhere
        MaxCutInstance(16, oracles.rand_edges(r, 16, 0.5, -10**6, 10**6)),
        LopInstance(oracles.rand_lop_matrix(r, 9, -20, 20)),
        LopInstance(oracles.rand_lop_matrix(r, 2, -20, 20)),
        LopInstance(oracles.rand_lop_matrix(r, 12, 0, 1)),  # ties everywhere
        LopInstance(oracles.rand_lop_matrix(r, 8, -9, -1)),  # g_max < 0 from the second step on
        LopInstance([[r.choice((-(2**31 - 1), 2**31 - 1)) for _ in range(10)] for _ in range(10)]),
    ]
    negative_max = {MaxCutInstance: 0, LopInstance: 0}
    for inst in instances:
        for _ in range(4):
            builder = inst.new_construction()
            while not builder.complete:
                if isinstance(inst, MaxCutInstance):
                    entries = _maxcut_entries(inst, builder.assigned)
                else:
                    entries = _lop_entries(inst, builder.order)
                negative_max[type(inst)] += max(g for _, g in entries) < 0
                for mode in (VALUE, CARDINALITY):
                    for alpha in alphas:
                        assert builder.rcl(mode, alpha) == oracles.rcl_from_entries(entries, mode, alpha), (mode, alpha)
                builder.add(r.choice(entries)[0])
    assert all(negative_max.values())


def test_maxcut_value_rcl_bucket_and_merge_steps_match_reference():
    # a value step that one bucket passes returns that bucket itself (no copy);
    # a step that several pass merges them. On signed mid-size graphs both
    # occur, and the g_max < 0 fallback too; every step equals the reference
    r = oracles.make_rng(45)
    rng = RandomStream(45)
    alphas = (0.3, 0.5, 1.0)
    steps = {"bucket": 0, "merged": 0, "fallback": 0}
    for n, p in ((60, 0.2), (80, 0.15), (100, 0.1)):
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, p, -5, 5))
        for construction in range(2):
            builder = inst.new_construction()
            while not builder.complete:
                entries = _maxcut_entries(inst, builder.assigned)
                for alpha in alphas:
                    for mode in (VALUE, CARDINALITY):
                        assert builder.rcl(mode, alpha) == oracles.rcl_from_entries(entries, mode, alpha), (n, mode, alpha)
                    rcl = builder.rcl(VALUE, alpha)
                    if any(rcl is keys for keys in builder.buckets.values()):
                        steps["fallback" if max(builder.buckets) < 0 else "bucket"] += 1
                    else:
                        steps["merged"] += 1
                builder.add(rng.pick(builder.rcl(VALUE, alphas[construction])))
    assert all(steps.values()), steps


def test_rcl_from_buckets_matches_rcl_from_entries():
    r = oracles.make_rng(44)
    for size in (1, 2, 3, 8, 40):
        for lo, hi in ((-3, 3), (-9, -1), (0, 0), (-10**6, 10**6)):
            entries = [(k, r.randint(lo, hi)) for k in range(size)]
            buckets = {}
            for key, g in entries:
                buckets.setdefault(g, []).append(key)
            for mode in (VALUE, CARDINALITY):
                for alpha in (0.0, 1e-9, 0.3, 0.5, 1.0):
                    want = oracles.rcl_from_entries(entries, mode, alpha)
                    assert rcl_from_buckets(buckets, size, mode, alpha) == want
                    assert _columns(entries, mode, alpha) == want


def test_int_value_threshold_selects_what_the_float_rule_selects():
    # g >= ceil(t) exactly when g >= t, for an int g and a finite float t;
    # checked where (1 - alpha) * g_max rounds or g_max has no exact float
    edges = [0, 1, 2**53 - 1, 2**53, 2**53 + 1, 150 * 2**31, 3 * 2**60 + 7, *range(2, 40)]
    for g_max in edges + [-g for g in edges]:
        for alpha in (0.0, 1e-9, 0.3, 0.5, 1.0 - 2.0**-53, 1.0):
            t = (1.0 - alpha) * g_max
            threshold = _value_threshold(g_max, alpha)
            assert type(threshold) is int
            window = range(int(t) - 3, int(t) + 4)
            assert [g >= threshold for g in window] == [g >= t for g in window], (g_max, alpha)
            entries = [(k, g) for k, g in enumerate([g_max, *window, g_max - 1]) if g <= g_max]
            buckets = {}
            for key, g in entries:
                buckets.setdefault(g, []).append(key)
            for mode in (VALUE, CARDINALITY):
                want = oracles.rcl_from_entries(entries, mode, alpha)
                assert _columns(entries, mode, alpha) == want
                assert rcl_from_buckets(buckets, len(entries), mode, alpha) == want


def test_per_step_alpha_draw_count():
    # n placements, one alpha draw per step plus one pick among RCL when |RCL|>1;
    # with a two-candidate instance this is observable through stream alignment
    inst = LopInstance([[0, 1], [1, 0]])
    cfg = RclConfig(alpha_low=1.0, alpha_high=1.0)  # collapsed: no alpha draws
    rng = RandomStream(12)
    construct(inst, cfg, rng)  # step 1 picks among {0,1}, step 2 is a singleton
    tail = rng.random()
    ref = RandomStream(12)
    ref.randrange(2)  # the single pick
    assert tail == ref.random()
