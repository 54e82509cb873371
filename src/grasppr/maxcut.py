"""Max-cut: maximize total weight of edges crossing a two-sided vertex partition.

Weights may be negative. An instance holds its graph once, as adj: per
vertex, its (neighbour, weight) pairs by ascending neighbour. Equal pairs are
one tuple and each vertex id one int object, so a unit-weight or ±1 graph
(the G-set's kind) keeps about one or two pairs per vertex, not two per edge.
edges, the sorted (i, j, w) triples with i < j, is derived from adj on access.

The neighbourhood transfers one vertex across the cut, as does each
relinking step; flip gains are kept in a GainTable so a transfer costs
O(degree). A GainTable also keeps pos, the vertices of positive gain, and a
local-search pass picks from pos, so a pass next to a local optimum costs
O(len(pos)), not O(n). A relinking walk keeps, for each head that moves, the
positions where the heads differ in buckets by that head's gain (the
Fiduccia-Mattheyses gain buckets, sorted, as construction keeps its keys), so
a step reads its pick off the top bucket and re-buckets only the moved
vertex's differing neighbours: O(degree log n) plus the number of distinct
gains, not O(number of differing positions).

Each instance caches _TABLES GainTables, most recently used first, each
over a private copy of its bits. A lookup by bits returns a table for its
caller alone: an exact fork of the cached table with those bits (O(n)
copies, no O(m) rebuild), else a fresh O(m) build; either is cached in
front. A descent looks its table up once and a walk once per moving head;
each then holds it and flips it with its solution in O(degree), without
comparing bits. So a cached table keeps the bits its holder's solution last
had, and a later lookup of those bits (say, a walk from a descent's output)
forks it. Hand edits touch no table; the next lookup compares bits, so they
stay exact.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import compress
from operator import ne
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .construction import VALUE, RclConfig, _value_threshold, rcl_from_buckets, top_of_buckets
from .core import _INT32, Move, PartitionSolution, ProblemInstance, RandomStream, SearchDepth

# 50x G-set's largest graph (n = 20,000); a header such as "2147483647 0"
# must not allocate an adjacency list per claimed vertex
MAX_VERTICES = 2**20
# cached gain tables per instance: two walk heads and an in-path search copy of each
_TABLES = 4
_BEST = SearchDepth.BEST_IMPROVING  # bound once: each scan then reads a global, not the slower enum member lookup


def check_vertex_count(n: int) -> None:
    """ValueError unless 1 <= n <= MAX_VERTICES: the one statement of the rule, which parsers judge first."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"n must be <= {MAX_VERTICES}, got {n}")


class GainTable:
    """gain[v] = cut change if v switched sides, kept exact across flips.

    bits is a private copy of the partition the gains are of; pos is the set
    of vertices with a positive gain: the improving transfers. adj, not the
    instance, so that no reference cycle runs through the instance's cache.
    """

    def __init__(self, inst: "MaxCutInstance", bits: Sequence[int]):
        self.adj = inst.adj
        self.bits = bits = list(bits)
        self.gain = [0] * inst.n
        for v in range(inst.n):
            g = 0
            for u, w in inst.adj[v]:
                g += w if bits[u] == bits[v] else -w
            self.gain[v] = g
        self.pos = set(compress(range(inst.n), map((0).__lt__, self.gain)))

    def fork(self) -> "GainTable":
        """A copy of this table, in O(n) list copies: no O(m) rebuild."""
        twin = object.__new__(GainTable)
        twin.adj = self.adj
        twin.bits = list(self.bits)
        twin.gain = list(self.gain)
        twin.pos = set(self.pos)
        return twin

    def apply_flip(self, v: int) -> None:
        """Flip v in place. O(degree(v))."""
        gain, pos, bits = self.gain, self.pos, self.bits
        d = gain[v]
        old_side = bits[v]
        bits[v] ^= 1
        gain[v] = -d
        if d > 0:
            pos.discard(v)
        elif d < 0:
            pos.add(v)
        for u, w in self.adj[v]:
            # neighbors previously on v's side lose 2w of gain, others regain it
            was = gain[u]
            g = gain[u] = was - 2 * w if bits[u] == old_side else was + 2 * w
            if g > 0:
                if was <= 0:
                    pos.add(u)
            elif was > 0:
                pos.discard(u)


class MaxCutInstance(ProblemInstance):
    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]]):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"n must be an int, got {n!r}")
        check_vertex_count(n)
        merged: dict[int, int] = {}  # weight by key i * n + j, i < j: an int hashes and sorts faster than a pair
        try:
            for i, j, w in edges:  # read once: edges may be an iterator
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"vertex out of range in edge ({i},{j})")
                # the range test lets bools and 1.0 through, and (True, 0) would merge into (0, 1)'s
                # key unseen; isinstance runs only off an exact int, so int subclasses still pass
                if type(i) is not int or type(j) is not int:
                    for v in (i, j):
                        if not isinstance(v, int) or isinstance(v, bool):
                            raise ValueError(f"non-integer vertex: {v!r}")
                if i == j:
                    raise ValueError(f"self-loop on vertex {i}")
                if not isinstance(w, int) or isinstance(w, bool) or not (-_INT32 <= w < _INT32):
                    raise ValueError(f"weight on edge ({i},{j}) is not a 32-bit int: {w!r}")
                key = i * n + j if i < j else j * n + i
                merged[key] = merged.get(key, 0) + w
        except TypeError as exc:  # an endpoint that does not compare with ints
            raise ValueError(f"edges must be (i, j, w) int triples: {exc}") from None
        for key, w in merged.items():
            if not (-_INT32 <= w < _INT32):
                i, j = divmod(key, n)
                raise ValueError(f"merged weight on edge ({i},{j}) outside 32-bit range: {w}")
        self.n = n
        self.m = len(merged)
        # In key order each vertex lists its neighbours ascending. One int object per vertex id,
        # and one tuple per distinct (neighbour u, weight w) pair, found by the int w * n + u.
        ids = list(range(n))
        pairs: dict[int, tuple[int, int]] = {}
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for key in sorted(merged):
            i, j = divmod(key, n)
            w = merged[key]
            adj[i].append(pairs.setdefault(w * n + j, (ids[j], w)))
            adj[j].append(pairs.setdefault(w * n + i, (ids[i], w)))
        self.adj = tuple(map(tuple, adj))
        # gain tables, most recently used first, each over a private copy of
        # its bits; see _gain_table
        self._tables: list[GainTable] = []
        self._seed: Optional[int] = None  # see _seed_vertex

    def _seed_vertex(self) -> int:
        """The vertex construction forces to side 1: largest weighted degree, lowest id on ties.

        Computed in O(m) on the first construction, never in __init__, so
        parsing alone does not pay for it.
        """
        if self._seed is None:
            self._seed = max(range(self.n), key=lambda v: (sum(w for _, w in self.adj[v]), -v))
        return self._seed

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The merged edges as sorted (i, j, w) triples with i < j; built from adj on each access."""
        return tuple((i, j, w) for i, a in enumerate(self.adj) for j, w in a if i < j)

    def evaluate(self, solution: PartitionSolution) -> int:
        bits = solution.bits
        return sum(w for i, a in enumerate(self.adj) for j, w in a if i < j and bits[i] != bits[j])

    def construct(self, rcl: RclConfig, rng: RandomStream) -> PartitionSolution:
        """Assigns one vertex per step; the seed vertex is forced to side 1.

        Key 2v + side assigns v to side; its gain is the weight toward
        already-assigned vertices on the other side, i.e. the exact cut
        increase of the assignment. The unassigned keys sit in buckets by
        exact gain, each bucket sorted, so a step reads the RCL off the top
        buckets instead of scoring every candidate, and an assignment moves
        O(degree) keys between buckets. A value step whose threshold is at or
        above g_max (most steps, and the g_max < 0 fallback) draws from the
        top bucket itself; every other step asks rcl_from_buckets.
        """
        n, adj, mode = self.n, self.adj, rcl.mode
        low, high, value = rcl.alpha_low, rcl.alpha_high, mode == VALUE
        alpha_in, pick = rng.alpha_in, rng.pick
        bits: list = [None] * n  # None: not yet assigned
        gain = [0] * (2 * n)  # per key
        buckets: dict[int, list[int]] = {0: list(range(2 * n))}  # gain -> sorted keys
        objective, size = 0, 2 * n  # size: keys left in the buckets
        key = 2 * self._seed_vertex() + 1
        while True:
            v, side = key >> 1, key & 1
            objective += gain[key]
            bits[v] = side
            for k in (2 * v, 2 * v + 1):  # both of v's keys leave the candidate list
                g = gain[k]
                keys = buckets[g]
                del keys[bisect_left(keys, k)]
                if not keys:
                    del buckets[g]
            size -= 2
            if not size:
                return PartitionSolution(bits, objective)
            other = 1 - side
            for u, w in adj[v]:
                if bits[u] is None:  # key k moves from bucket g to bucket g + w
                    k = 2 * u + other
                    g = gain[k]
                    keys = buckets[g]
                    del keys[bisect_left(keys, k)]
                    if not keys:
                        del buckets[g]
                    g += w
                    gain[k] = g
                    insort(buckets.setdefault(g, []), k)
            alpha = alpha_in(low, high)
            g_max = max(buckets)
            if value and alpha and _value_threshold(g_max, alpha) >= g_max:
                key = pick(buckets[g_max])
            else:
                key = pick(rcl_from_buckets(buckets, size, mode, alpha))

    def _gain_table(self, bits: list[int]) -> GainTable:
        """A table of bits for the caller to flip: a fork of the cached one
        with equal bits, moved to the front first, else a fresh build. It is
        cached in front either way."""
        tables = self._tables
        for i, table in enumerate(tables):
            if table.bits == bits:
                tables.insert(0, tables.pop(i))
                table = table.fork()
                break
        else:
            table = GainTable(self, bits)
        tables.insert(0, table)
        del tables[_TABLES:]
        return table

    def moves(self, table: GainTable, offset: int, depth: SearchDepth) -> Iterator[Move]:
        """The pass's pick from table.pos, the table its descent holds."""
        gains, pos = table.gain, table.pos
        if not pos:
            return
        if depth is _BEST:
            best = max(map(gains.__getitem__, pos))
            v = min(compress(pos, map(best.__eq__, map(gains.__getitem__, pos))))
        else:
            v = min(compress(pos, map(offset.__le__, pos)), default=None)  # first at or after offset
            if v is None:
                v = min(pos)  # the scan wrapped around
        yield Move(v, None, None, gains[v])

    def descend(
        self, solution: PartitionSolution, depth: SearchDepth, rng: RandomStream, should_stop: Optional[Callable[[], bool]]
    ) -> None:
        """Climb with solution's table looked up once and held: each pass's
        move flips the bits and the table directly. A first-improving pass
        draws a fresh scan offset, so that no vertex id is favoured; a
        best-improving one draws nothing."""
        draw = depth is SearchDepth.FIRST_IMPROVING
        n, bits = self.n, solution.bits
        table = self._gain_table(bits)
        while should_stop is None or not should_stop():
            move = None
            for move in self.moves(table, rng.randrange(n) if draw else 0, depth):
                pass  # the scan finishes before its move is applied
            if move is None:
                return
            if move.delta <= 0:
                raise RuntimeError(f"{depth.value}-improving scan chose a non-improving move: {move}")
            bits[move.element] ^= 1
            table.apply_flip(move.element)
            solution.cached_objective += move.delta

    def new_walk(self, a: PartitionSolution, b: PartitionSolution) -> "_MaxCutWalk":
        return _MaxCutWalk(self, a, b)

    def pr_candidates(self, table: GainTable, index: dict[int, list[int]], k: int, distance: int) -> list[Move]:
        """At most k flips of the distance positions where a walk head and
        the other head differ, without the one flip that reaches it, by
        descending gain in table (the head's, as the walk holds it) with ties
        to the lower position. index holds those positions in buckets by
        their gain in table, each bucket ascending, as the walk keeps it, so
        a step reads the top buckets: about the number of distinct gains
        for k == 1, not O(distance).
        """
        if not distance:
            raise ValueError("the walk's heads coincide")
        if distance == 1:
            return []  # its one flip reaches the other head
        gains = table.gain
        return [Move(j, None, None, gains[j]) for j in top_of_buckets(index, k)]


class _MaxCutWalk:
    """A walk that counts the positions where its heads differ, and keeps
    the gain table and bucket index of each head that moves.

    Counted in O(n) once per walk; each step flips one differing position
    of one head, which drops it from the difference whichever head moved, so
    one count serves every direction, mixed included. A head's table is
    looked up on its first ranked() or take(), so a head that never moves
    (a forward walk's guide) gets none, and every step flips the table the
    walk holds with no bits comparison.

    With its table, a head gets its index: {gain: the differing positions of
    that gain in the table, ascending}, built in O(n) from the heads' bits.
    A step drops the taken vertex from every index built, and moves each of
    its neighbours that still differs from the bucket of its old gain to that
    of its new one, the old gain being the new one minus the +-2w change
    that apply_flip made. A step so costs O(degree log n), and the next
    ranked() reads the top of the buckets.
    """

    def __init__(self, inst: MaxCutInstance, a: PartitionSolution, b: PartitionSolution):
        self.instance = inst
        self.heads = (a, b)
        self.distance = sum(map(ne, a.bits, b.bits))
        self.tables: list[Optional[GainTable]] = [None, None]
        self.indexes: list[Optional[dict[int, list[int]]]] = [None, None]

    def _held(self, i: int) -> tuple[GainTable, dict[int, list[int]]]:
        table = self.tables[i]
        if table is None:
            table = self.tables[i] = self.instance._gain_table(self.heads[i].bits)
            index: dict[int, list[int]] = {}
            gain = table.gain
            differs = map(ne, self.heads[i].bits, self.heads[1 - i].bits)
            for j in compress(range(self.instance.n), differs):  # ascending, so each bucket is too
                index.setdefault(gain[j], []).append(j)
            self.indexes[i] = index
        return table, self.indexes[i]

    def ranked(self, i: int, k: int) -> list[Move]:
        table, index = self._held(i)
        return self.instance.pr_candidates(table, index, k, self.distance)

    def take(self, i: int, move: Move) -> None:
        head, v = self.heads[i], move.element
        table, index = self._held(i)
        for t, built in zip(self.tables, self.indexes):  # v leaves the difference
            if built is not None:
                g = t.gain[v]
                keys = built[g]
                del keys[bisect_left(keys, v)]
                if not keys:
                    del built[g]
        bits, other = head.bits, self.heads[1 - i].bits
        old_side = bits[v]
        bits[v] ^= 1
        table.apply_flip(v)
        head.cached_objective += move.delta
        self.distance -= 1
        gain = table.gain
        for u, w in table.adj[v]:
            if bits[u] != other[u]:  # apply_flip took 2w from u's gain if u is on v's old side, else added 2w
                g = gain[u]
                was = g + 2 * w if bits[u] == old_side else g - 2 * w
                keys = index[was]
                del keys[bisect_left(keys, u)]
                if not keys:
                    del index[was]
                insort(index.setdefault(g, []), u)
