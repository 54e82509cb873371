import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.core import (
    PartitionSolution,
    PermutationSolution,
    RandomStream,
    delta,
    evaluate,
)
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

K3 = MaxCutInstance(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def test_evaluate_lop_2x2():
    inst = LopInstance([[0, 5], [3, 0]])
    assert evaluate(inst, PermutationSolution([0, 1])) == 5
    assert evaluate(inst, PermutationSolution([1, 0])) == 3


def test_evaluate_k3_single_vertex_side():
    sol = PartitionSolution([1, 0, 0])
    assert evaluate(K3, sol) == 2
    assert sol.cached_objective == 2


def test_evaluate_sets_cache():
    inst = LopInstance([[0, 5], [3, 0]])
    sol = PermutationSolution([0, 1])
    assert sol.cached_objective is None
    evaluate(inst, sol)
    assert sol.cached_objective == 5


def test_evaluate_rejects_dimension_mismatch():
    inst = LopInstance([[0, 5], [3, 0]])
    with pytest.raises(ValueError, match="dimension"):
        evaluate(inst, PermutationSolution([0, 1, 2]))
    with pytest.raises(ValueError, match="dimension"):
        evaluate(K3, PartitionSolution([0, 1]))


def test_symmetric_difference_worked_example():
    # 1-based (1,2,3,4) vs (3,4,2,1): every position disagrees
    a = PermutationSolution([0, 1, 2, 3])
    b = PermutationSolution([2, 3, 1, 0])
    assert delta(a, b) == 4
    assert delta(a, PermutationSolution([0, 1, 3, 2])) == 2


def test_symmetric_difference_identity():
    a = PermutationSolution([2, 0, 1])
    assert delta(a, a) == 0
    b = PartitionSolution([0, 1, 1])
    assert delta(b, b) == 0


def test_symmetric_difference_partitions():
    a = PartitionSolution([0, 0, 1, 1])
    b = PartitionSolution([0, 1, 1, 1])
    assert delta(a, b) == 1
    assert delta(a, PartitionSolution([1, 1, 0, 0])) == 4


def test_symmetric_difference_rejects_mixes():
    with pytest.raises(TypeError):
        delta(PermutationSolution([0, 1]), PartitionSolution([0, 1]))
    with pytest.raises(TypeError):
        delta(PartitionSolution([0, 1]), PermutationSolution([0, 1]))
    with pytest.raises(ValueError):
        delta(PartitionSolution([0, 1]), PartitionSolution([0, 1, 0]))


@settings(max_examples=200)
@given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32), st.integers(4, 9))
def test_symmetric_difference_is_a_metric(s1, s2, s3, n):
    r = oracles.make_rng(s1 ^ (s2 << 1) ^ (s3 << 2))
    perms = [PermutationSolution(oracles.rand_perm(r, n)) for _ in range(3)]
    parts = [PartitionSolution(oracles.rand_bits(r, n)) for _ in range(3)]
    for a, b, c in (perms, parts):
        assert delta(a, b) >= 0
        assert (delta(a, b) == 0) == (a == b)
        assert delta(a, b) == delta(b, a)
        assert delta(a, c) <= delta(a, b) + delta(b, c)


def test_solution_equality_ignores_cache():
    a = PermutationSolution([0, 1, 2], cached_objective=10)
    b = PermutationSolution([0, 1, 2], cached_objective=None)
    assert a == b
    c = PartitionSolution([1, 0], 3)
    d = PartitionSolution([1, 0], 99)
    assert c == d


def test_copy_is_independent():
    a = PermutationSolution([0, 1, 2], cached_objective=7)
    b = a.copy()
    b.order[0], b.order[1] = b.order[1], b.order[0]
    assert a.order == [0, 1, 2]
    assert b.cached_objective == 7
    p = PartitionSolution([1, 0], 2)
    q = p.copy()
    q.bits[0] = 0
    assert p.bits == [1, 0]


def test_random_stream_reproducible_first_million_draws():
    a = RandomStream(123456789)
    b = RandomStream(123456789)
    assert all(a.random() == b.random() for _ in range(10**6))


def test_random_stream_seed_sensitivity():
    a = RandomStream(1)
    b = RandomStream(2)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_random_stream_refuses_seeds_outside_64_bits():
    # 2^64 + 1 would otherwise alias seed 1, and -1 seed 2^64 - 1
    for seed in (2**64, 2**64 + 1, -1):
        with pytest.raises(ValueError, match="seed must be in"):
            RandomStream(seed)
    assert 0 <= RandomStream(2**64 - 1).randrange(1000) < 1000


def test_substreams_differ_and_reproduce():
    a = RandomStream(5)
    a.advance_substream()
    b = RandomStream(5)
    b.random()  # a jump reseeds, whatever was drawn before it
    b.advance_substream()
    assert [a.random() for _ in range(32)] == [b.random() for _ in range(32)]
    jumped = RandomStream(5)
    jumped.advance_substream()
    assert RandomStream(5).random() != jumped.random()


def test_pick_singleton_consumes_no_draw():
    a = RandomStream(9)
    b = RandomStream(9)
    assert a.pick([42]) == 42
    assert a.random() == b.random()  # streams still aligned
    with pytest.raises(IndexError):
        a.pick([])


@pytest.mark.parametrize("n", [*range(2, 18), *(2**k + d for k in (5, 31, 32, 53, 62) for d in (-1, 0, 1))])
def test_draws_equal_random_randrange(n):
    # the pinned getrandbits draw gives randrange's values and consumes its draws
    for draw, arg in ((RandomStream.pick, range(n)), (RandomStream.randrange, n)):
        ours = RandomStream(2024)
        ref = random.Random()
        ref.setstate(ours._rng.getstate())
        assert [draw(ours, arg) for _ in range(200)] == [ref.randrange(n) for _ in range(200)]
        assert ours.random() == ref.random()


def test_alpha_in_half_open_interval():
    rng = RandomStream(3)
    draws = [rng.alpha_in(0.0, 0.3) for _ in range(2000)]
    assert all(0.0 < x <= 0.3 for x in draws)
    # collapsed range is a constant and consumes nothing
    a, b = RandomStream(4), RandomStream(4)
    assert a.alpha_in(0.2, 0.2) == 0.2
    assert a.random() == b.random()


def test_weighted_index_distribution_and_guard():
    rng = RandomStream(11)
    counts = [0, 0]
    for _ in range(20000):
        counts[rng.weighted_index([1, 3])] += 1
    assert abs(counts[0] / 20000 - 0.25) < 0.02
    with pytest.raises(ValueError):
        rng.weighted_index([0, 0])
    with pytest.raises(ValueError):
        rng.weighted_index([])
