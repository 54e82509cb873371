"""EliteSet's relinked-pair bookkeeping while members come and go.

Random sequences of admissions, pair requests and clears on small pools; every
relinked pair is checked against a model that names members by their bits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.core import PartitionSolution
from grasppr.elite_set import EliteSet

import oracles

BITS = 5

# each step is (kind, bits as an integer); bits matter only to "add", the likeliest kind
_KINDS = st.sampled_from(["add", "add", "add", "pair", "pair", "clear"])
_STEPS = st.lists(st.tuples(_KINDS, st.integers(0, 2**BITS - 1)))


def _key(a, b):
    return frozenset((tuple(a.bits), tuple(b.bits)))


def _check_next_pair(pool, marked):
    # a function of its own, so that no member outlives the call here: a
    # dropped member's address is free for the next copy the pool makes
    members = [m for m, _ in oracles.pool(pool)]
    expected = next(
        ((a, b) for i, a in enumerate(members) for b in members[i + 1 :] if _key(a, b) not in marked),
        None,
    )
    pair = pool.next_unrelinked_pair()
    if expected is None:
        assert pair is None
    else:
        assert pair is not None and pair[0] is expected[0] and pair[1] is expected[1]
        marked.add(_key(*pair))


@settings(max_examples=300, deadline=None)
@given(
    objectives=st.lists(st.integers(-6, 6), min_size=2**BITS, max_size=2**BITS),
    capacity=st.integers(2, 4),
    threshold=st.integers(1, 3),
    steps=_STEPS,
)
def test_relinked_pairs_follow_a_model_that_names_members_by_their_bits(objectives, capacity, threshold, steps):
    # Each objective is a function of the bits, as in a run, so members are
    # pairwise distinct by bits and a pair of bit tuples names a pair of
    # members. Eviction and fill-up replacement interleave with relinking:
    # a pair whose member left must not stay marked for a newcomer.
    pool = EliteSet(capacity, threshold)
    marked: set[frozenset[tuple[int, ...]]] = set()
    for kind, code in steps:
        if kind == "clear":
            pool.clear()
            marked.clear()
        elif kind == "pair":
            _check_next_pair(pool, marked)
        else:
            bits = tuple(code >> i & 1 for i in range(BITS))
            before = {tuple(m.bits) for m, _ in oracles.pool(pool)}
            added = pool.try_add(PartitionSolution(list(bits), objectives[code])).added
            assert not (added and bits in before)  # no member with the newcomer's bits was dropped
            now = {tuple(m.bits) for m, _ in oracles.pool(pool)}
            assert len(now) == len(oracles.pool(pool))
            marked = {pair for pair in marked if pair <= now}
