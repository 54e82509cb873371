"""Max-cut: maximize total weight of edges crossing a two-sided vertex partition.

Weights may be negative. The neighbourhood transfers one vertex across the
cut, as does each relinking step; flip gains are kept in a GainTable so a
transfer costs O(degree). A GainTable also keeps pos, the vertices of
positive gain, and a local-search pass picks from pos, so a pass next to a
local optimum costs O(len(pos)), not O(n).

Each instance caches a few GainTables, most recently used first, each over a
private copy of its bits. A lookup has two outcomes: the table whose bits
equal the asking solution's, or a fresh O(m) build that the asking solution
owns. A table's owner is the solution whose moves apply_move applies to it
in place. A move by any other solution with the same bits forks the table
(O(n) copies, no O(m) rebuild), so a walk head, the copy an in-path search
descends from it and the other head of a mixed walk each keep their own
table. The bits comparison is the only test of validity, so flipping bits by
hand is safe.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from itertools import chain, compress
from typing import Iterator, Optional, Sequence

from .construction import rcl_from_buckets
from .core import _INT32, Move, PartitionSolution, ProblemInstance, SearchDepth, Walk

# 50x G-set's largest graph (n = 20,000); a header such as "2147483647 0"
# must not allocate an adjacency list per claimed vertex
MAX_VERTICES = 2**20
# cached gain tables per instance: two walk heads and an in-path search copy of each
_TABLES = 4


class GainTable:
    """gain[v] = cut change if v switched sides, kept exact across flips.

    bits is a private copy of the partition the gains are of; pos is the set
    of vertices with a positive gain: the improving transfers.
    """

    def __init__(self, inst: "MaxCutInstance", bits: Sequence[int]):
        self.inst = inst
        self.bits = bits = list(bits)
        self.owner: Optional[PartitionSolution] = None  # whose moves flip this table in place, see _gain_table
        self.gain = [0] * inst.n
        for v in range(inst.n):
            g = 0
            for u, w in inst.adj[v]:
                g += w if bits[u] == bits[v] else -w
            self.gain[v] = g
        self.pos = set(compress(range(inst.n), map((0).__lt__, self.gain)))

    def fork(self, owner: PartitionSolution) -> "GainTable":
        """A copy of this table for owner, in O(n) list copies: no O(m) rebuild."""
        twin = object.__new__(GainTable)
        twin.inst = self.inst
        twin.bits = list(self.bits)
        twin.owner = owner
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
        for u, w in self.inst.adj[v]:
            # neighbors previously on v's side lose 2w of gain, others regain it
            was = gain[u]
            g = gain[u] = was - 2 * w if bits[u] == old_side else was + 2 * w
            if g > 0:
                if was <= 0:
                    pos.add(u)
            elif was > 0:
                pos.discard(u)


class _MaxCutBuilder:
    """Assigns one vertex per step; the seed vertex is forced to side 1.

    Key 2v + side assigns v to side; its gain is the weight toward
    already-assigned vertices on the other side, i.e. the exact cut increase
    of the assignment. The unassigned keys sit in buckets by exact gain, each
    bucket sorted, so a step reads the RCL off the top buckets instead of
    scoring every candidate, and add() moves O(degree) keys between buckets.
    """

    def __init__(self, inst: "MaxCutInstance"):
        self.inst = inst
        self.assigned: list[int | None] = [None] * inst.n
        self.gain = [0] * (2 * inst.n)  # per key
        self.buckets: dict[int, list[int]] = {0: list(range(2 * inst.n))}  # gain -> sorted keys
        self.objective = 0
        self.count = 0
        self.add(2 * inst._seed_vertex() + 1)

    @property
    def complete(self) -> bool:
        return self.count == self.inst.n

    def rcl(self, mode: str, alpha: float) -> list[int]:
        """This step's RCL; it may be one of the builder's buckets, so read it before the next add."""
        return rcl_from_buckets(self.buckets, 2 * (self.inst.n - self.count), mode, alpha)

    def add(self, key: int) -> None:
        v, side = divmod(key, 2)
        assigned, gain, buckets = self.assigned, self.gain, self.buckets
        if assigned[v] is not None:
            raise ValueError(f"vertex {v} already assigned")
        self.objective += gain[key]
        assigned[v] = side
        self.count += 1
        for k in (2 * v, 2 * v + 1):  # both of v's keys leave the candidate list
            g = gain[k]
            keys = buckets[g]
            del keys[bisect_left(keys, k)]
            if not keys:
                del buckets[g]
        other = 1 - side
        for u, w in self.inst.adj[v]:
            if assigned[u] is None:  # key k moves from bucket g to bucket g + w
                k = 2 * u + other
                g = gain[k]
                keys = buckets[g]
                del keys[bisect_left(keys, k)]
                if not keys:
                    del buckets[g]
                g += w
                gain[k] = g
                insort(buckets.setdefault(g, []), k)

    def build(self) -> PartitionSolution:
        return PartitionSolution(self.assigned, self.objective)


class MaxCutInstance(ProblemInstance):
    randomized_first_improving = True  # per-pass scan offset, see local_search

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]]):
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"n must be an int, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"n must be <= {MAX_VERTICES}, got {n}")
        merged: dict[tuple[int, int], int] = {}
        try:
            edges = list(edges)  # read twice: by this loop and by the endpoint type pass below
            for i, j, w in edges:
                if not (0 <= i < n and 0 <= j < n):
                    raise ValueError(f"vertex out of range in edge ({i},{j})")
                if i == j:
                    raise ValueError(f"self-loop on vertex {i}")
                if not isinstance(w, int) or isinstance(w, bool) or not (-_INT32 <= w < _INT32):
                    raise ValueError(f"weight on edge ({i},{j}) is not a 32-bit int: {w!r}")
                key = (i, j) if i < j else (j, i)
                merged[key] = merged.get(key, 0) + w
        except TypeError as exc:  # an endpoint that does not compare with ints
            raise ValueError(f"edges must be (i, j, w) int triples: {exc}") from None
        # endpoint types in bulk: the range test above lets bools and floats such as 1.0 through.
        # Over the given edges, not the merged keys: a dict keeps the first of equal keys, so
        # (True, 0) after (0, 1) would merge away unseen. An int-subclass weight takes the fallback
        # too.
        types = list(map(type, chain.from_iterable(edges)))
        if types.count(int) != len(types):
            for v in chain.from_iterable((i, j) for i, j, _ in edges):
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"non-integer vertex: {v!r}")
        for (i, j), w in merged.items():
            if not (-_INT32 <= w < _INT32):
                raise ValueError(f"merged weight on edge ({i},{j}) outside 32-bit range: {w}")
        self.n = n
        self.edges = tuple(sorted((i, j, w) for (i, j), w in merged.items()))
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        self.adj = tuple(tuple(a) for a in adj)
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
    def m(self) -> int:
        return len(self.edges)

    def evaluate(self, solution: PartitionSolution) -> int:
        bits = solution.bits
        return sum(w for i, j, w in self.edges if bits[i] != bits[j])

    def new_construction(self) -> _MaxCutBuilder:
        return _MaxCutBuilder(self)

    def _matching_table(self, solution: PartitionSolution) -> Optional[GainTable]:
        """The cached table whose bits equal solution's, moved to the front; None if none does."""
        tables = self._tables
        bits = solution.bits
        for i, table in enumerate(tables):
            if table.bits == bits:
                if i:
                    tables.insert(0, tables.pop(i))
                return table
        return None

    def _cache(self, table: GainTable) -> GainTable:
        self._tables.insert(0, table)
        del self._tables[_TABLES:]
        return table

    def _gain_table(self, solution: PartitionSolution) -> GainTable:
        """The cached table whose bits equal solution's, else a fresh one that solution owns."""
        table = self._matching_table(solution)
        if table is None:
            table = self._cache(GainTable(self, solution.bits))
            table.owner = solution
        return table

    def moves(self, solution: PartitionSolution, offset: int, depth: SearchDepth) -> Iterator[Move]:
        table = self._gain_table(solution)
        gains, pos = table.gain, table.pos
        if not pos:
            return
        if depth is SearchDepth.BEST_IMPROVING:
            best = max(map(gains.__getitem__, pos))
            v = min(compress(pos, map(best.__eq__, map(gains.__getitem__, pos))))
        else:
            v = min(compress(pos, map(offset.__le__, pos)), default=None)  # first at or after offset
            if v is None:
                v = min(pos)  # the scan wrapped around
        yield Move("transfer", v, None, None, gains[v])

    def apply_move(self, solution: PartitionSolution, move: Move) -> None:
        if move.kind != "transfer":
            raise ValueError(f"not a partition move: {move.kind}")
        if not 0 <= move.element < self.n:
            raise ValueError(f"vertex {move.element} not in 0..{self.n - 1}")
        table = self._matching_table(solution)
        if table is not None and table.owner is not solution:
            table = self._cache(table.fork(solution))  # the old table stays valid for its owner
        solution.bits[move.element] ^= 1
        if table is not None:
            table.apply_flip(move.element)  # O(degree) instead of a later O(m) rebuild
        if solution.cached_objective is not None:
            solution.cached_objective += move.delta

    def new_walk(self, a: PartitionSolution, b: PartitionSolution) -> "_MaxCutWalk":
        return _MaxCutWalk(self, a, b)

    def pr_candidates(
        self, current: PartitionSolution, guiding: PartitionSolution, k: int, diff: list[int]
    ) -> list[Move]:
        """At most k flips of the positions where current and guiding differ,
        without the one flip that reaches guiding, by descending gain with
        ties to the lower position. diff lists those positions in ascending
        order, as the walk keeps them, so a step costs O(len(diff)), not O(n).
        """
        if not diff:
            raise ValueError("current and guiding coincide")
        if len(diff) == 1:
            return []  # its one flip reaches guiding
        gains = self._gain_table(current).gain
        top = heapq.nlargest(k, diff, key=gains.__getitem__)  # stable, as sorted(...)[:k]
        return [Move("transfer", j, None, None, gains[j]) for j in top]


class _MaxCutWalk(Walk):
    """A walk that keeps the positions where its heads differ, ascending.

    Built in O(n) once per walk; each step flips one differing position of
    one head, which drops it from the difference whichever head moved, so
    one list serves every direction, mixed included.
    """

    def __init__(self, inst: MaxCutInstance, a: PartitionSolution, b: PartitionSolution):
        super().__init__(inst, a, b)
        self.diff = [j for j, (x, y) in enumerate(zip(a.bits, b.bits)) if x != y]

    def ranked(self, i: int, k: int) -> list[Move]:
        return self.instance.pr_candidates(self.heads[i], self.heads[1 - i], k, self.diff)

    def take(self, i: int, move: Move) -> None:
        super().take(i, move)
        del self.diff[bisect_left(self.diff, move.element)]
