import pytest

from grasppr.bench_io import serialize_solution
from grasppr.core import PartitionSolution, PermutationSolution, RandomStream
from grasppr.elite_set import EliteSet

import oracles


def _part(bits, f=None):
    sol = PartitionSolution(list(bits))
    if f is not None:
        sol.cached_objective = f
    return sol


def test_first_candidate_always_admitted():
    es = EliteSet(capacity=3, diversity_threshold=5)
    res = es.try_add(_part([0] * 8, 1))
    assert res.added and res.reason is None
    assert [s.bits for s, _ in es.members] == [[0] * 8]


def test_fillup_diversity_reject():
    es = EliteSet(capacity=5, diversity_threshold=3)
    es.try_add(_part([0] * 8, 5))
    near = _part([1] + [0] * 7, 4)  # delta 1 < threshold, not better
    res = es.try_add(near)
    assert not res.added and res.reason == "diversity"
    near.cached_objective = 5
    res = es.try_add(near)  # equal objective is still a reject
    assert not res.added and res.reason == "diversity"
    assert len(es.members) == 1


def test_fillup_replaces_all_near_when_strictly_better():
    es = EliteSet(capacity=5, diversity_threshold=3)
    es.try_add(_part([0] * 8, 5))
    es.try_add(_part([1, 1, 1, 0, 0, 0, 0, 0], 6))
    # within the threshold of both members and better than both
    cand = _part([1, 1, 0, 0, 0, 0, 0, 0], 7)
    res = es.try_add(cand)
    assert res.added
    # a and b are gone, the candidate is the only member
    assert es.members[0][0] == cand and es.members[0][1] == 7
    assert len(es.members) == 1


def test_fillup_keeps_pairwise_spacing():
    r = oracles.make_rng(50)
    es = EliteSet(capacity=6, diversity_threshold=3)
    for _ in range(200):
        es.try_add(_part(oracles.rand_bits(r, 10), r.randint(0, 30)))
        if len(es.members) == es.capacity:
            break
        sols = [s for s, _ in es.members]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                assert oracles.position_delta(sols[i].bits, sols[j].bits) >= 3


def _frozen_full_set():
    # pairwise distances 3, 2, 5; candidate distances 5, 2, 7
    es = EliteSet(capacity=3, diversity_threshold=1)
    a = _part([1] * 5 + [0] * 11, 10)
    b = _part([1] * 2 + [0] * 14, 8)
    c = _part([1] * 7 + [0] * 9, 6)
    for sol in (a, b, c):
        assert es.try_add(sol).added
    return es, a, b, c


def test_full_quality_reject():
    es, _, _, _ = _frozen_full_set()
    res = es.try_add(_part([0] * 16, 6))  # ties the worst member
    assert not res.added and res.reason == "quality"
    assert len(es.members) == 3


def test_full_duplicate_reject():
    es, a, _, _ = _frozen_full_set()
    res = es.try_add(_part(a.bits, 9))  # not above the best, already present
    assert not res.added and res.reason == "duplicate"


def test_full_evicts_closest_strictly_worse():
    es, a, b, c = _frozen_full_set()
    res = es.try_add(_part([0] * 16, 9))
    assert res.added
    # b and c are the strictly worse members; b is closer (2 vs 7)
    assert sorted((s.bits, f) for s, f in es.members) == sorted([(a.bits, 10), ([0] * 16, 9), (c.bits, 6)])


def test_eviction_tie_breaks_on_objective_then_index():
    es = EliteSet(capacity=3, diversity_threshold=1)
    es.try_add(_part([0, 0, 0, 0], 5))
    es.try_add(_part([1, 1, 0, 0], 3))
    es.try_add(_part([0, 0, 1, 1], 4))
    # candidate is distance 2 from every member; worse members tie on
    # distance, so the lower objective (3) goes
    res = es.try_add(_part([1, 0, 1, 0], 6))
    assert res.added
    assert [s.bits for s, _ in es.members] == [[0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]]


def test_try_add_requires_an_objective():
    es = EliteSet()
    with pytest.raises(ValueError):
        es.try_add(_part([0, 1]))
    es.try_add(_part([0, 1], 4))  # cached objective is enough
    assert es.members[0][1] == 4


def test_admitted_member_is_a_private_copy():
    es = EliteSet(capacity=2)
    cand = _part([0, 1, 0, 1], 3)
    es.try_add(cand)
    cand.bits[0] = 1
    assert es.members[0][0].bits == [0, 1, 0, 1]
    assert es.members[0][0].cached_objective == 3


def test_mirror_equivalence_fuzz():
    r = oracles.make_rng(51)
    for capacity, d_th in ((4, 2), (3, 1), (6, 3)):
        es = EliteSet(capacity=capacity, diversity_threshold=d_th)
        mirror = oracles.EliteMirror(capacity, d_th)
        for _ in range(400):
            bits = oracles.rand_bits(r, 10)
            f = r.randint(0, 30)
            got = es.try_add(_part(bits, f))
            added, reason = mirror.add(bits, f)
            assert got.added == added and got.reason == reason
            assert len(es.members) <= capacity
            have = sorted((s.bits, f) for s, f in es.members)
            want = sorted((b, f) for b, f in mirror.members)
            assert have == want
            # payload duplicates never coexist
            payloads = [tuple(s.bits) for s, _ in es.members]
            assert len(set(payloads)) == len(payloads)


def test_select_guide_uniform_singleton_consumes_no_draw():
    es = EliteSet(capacity=3)
    es.try_add(_part([0, 1, 0, 1], 3))
    rng = RandomStream(5)
    guide = es.select_guide(_part([1, 1, 1, 1]), "uniform", rng)
    assert guide.bits == [0, 1, 0, 1]
    assert rng.random() == RandomStream(5).random()


def test_select_guide_pdelta_frequencies():
    es = EliteSet(capacity=3)
    m1 = _part([1, 0, 0, 0, 0, 0, 0, 0], 3)  # delta 1 from the reference
    m2 = _part([1, 1, 1, 0, 0, 0, 0, 0], 4)  # delta 3
    es.try_add(m1)
    es.try_add(m2)
    ref = _part([0] * 8)
    rng = RandomStream(97)
    trials = 100_000
    hits = sum(es.select_guide(ref, "pdelta", rng).bits == m1.bits for _ in range(trials))
    assert abs(hits / trials - 0.25) < 0.01


def test_select_guide_pdelta_never_picks_identical():
    es = EliteSet(capacity=3)
    ref = _part([0] * 6)
    es.try_add(_part([0] * 6, 3))
    es.try_add(_part([1, 1, 0, 0, 0, 0], 4))
    rng = RandomStream(11)
    for _ in range(2000):
        assert es.select_guide(ref, "pdelta", rng).bits == [1, 1, 0, 0, 0, 0]


def test_select_guide_pdelta_all_identical_returns_none():
    es = EliteSet(capacity=3)
    es.try_add(_part([0, 1, 1, 0], 3))
    assert es.select_guide(_part([0, 1, 1, 0]), "pdelta", RandomStream(1)) is None


def test_select_guide_errors():
    es = EliteSet()
    with pytest.raises(ValueError):
        es.select_guide(_part([0, 1]), "uniform", RandomStream(1))
    es.try_add(_part([0, 1], 2))
    with pytest.raises(ValueError):
        es.select_guide(_part([0, 1]), "roulette", RandomStream(1))


def test_next_unrelinked_pair_enumerates_lowest_index_first():
    es = EliteSet(capacity=4, diversity_threshold=1)
    sols = [_part([0, 0, 0, 0], 0), _part([1, 1, 0, 0], 1), _part([0, 0, 1, 1], 2)]
    for sol in sols:
        es.try_add(sol)
    seen = []
    while (pair := es.next_unrelinked_pair()) is not None:
        seen.append((pair[0].bits, pair[1].bits))
    assert seen == [
        (sols[0].bits, sols[1].bits),
        (sols[0].bits, sols[2].bits),
        (sols[1].bits, sols[2].bits),
    ]
    assert es.next_unrelinked_pair() is None


def test_eviction_forgets_pairs_and_admission_spawns_them():
    es = EliteSet(capacity=3, diversity_threshold=1)
    es.try_add(_part([0, 0, 0, 0], 1))
    es.try_add(_part([1, 1, 1, 1], 2))
    es.try_add(_part([1, 1, 0, 0], 3))
    while es.next_unrelinked_pair() is not None:
        pass
    # replaces the closest strictly worse member; its pair marks die with it
    res = es.try_add(_part([1, 0, 0, 0], 9))
    assert res.added
    assert [s.bits for s, _ in es.members] == [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 0, 0]]
    fresh = []
    while (pair := es.next_unrelinked_pair()) is not None:
        fresh.append(pair)
    assert len(fresh) == 2  # newcomer vs each survivor, nothing else
    for a, b in fresh:
        assert [1, 0, 0, 0] in (a.bits, b.bits)


def test_clear_resets_members_and_pair_marks():
    es = EliteSet(capacity=2, diversity_threshold=1)
    es.try_add(_part([0, 0], 1))
    es.try_add(_part([1, 1], 2))
    assert es.next_unrelinked_pair() is not None
    es.clear()
    assert es.members == []
    assert es.next_unrelinked_pair() is None
    es.try_add(_part([0, 1], 1))
    es.try_add(_part([1, 0], 2))
    assert es.next_unrelinked_pair() is not None  # fresh members, fresh pairs


def test_dump_formats():
    es = EliteSet(capacity=2, diversity_threshold=1)
    es.try_add(PermutationSolution([2, 0, 1], 9))
    es.try_add(PermutationSolution([0, 1, 2], 5))
    assert [serialize_solution(sol) for sol, _ in es.members] == ["2 0 1", "0 1 2"]
    es = EliteSet(capacity=2, diversity_threshold=1)
    es.try_add(_part([0, 0, 1, 1], 2))
    assert [serialize_solution(sol) for sol, _ in es.members] == ["0011"]


def test_constructor_validation():
    with pytest.raises(ValueError):
        EliteSet(capacity=0)
    with pytest.raises(ValueError):
        EliteSet(diversity_threshold=0)
