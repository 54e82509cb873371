"""Max-cut: maximize total weight of edges crossing a two-sided vertex partition.

Weights may be negative. The neighbourhood transfers one vertex across the
cut, as does each relinking step; flip gains are kept in a GainTable so a
transfer costs O(degree). Each instance caches the GainTable of the last
partition it scanned, keyed by a private copy of its bits, so consecutive
passes of a descent and consecutive relinking steps reuse it. A partition that
differs from the cached one in a few vertices (say, a relinking step after an
in-path local search) patches it flip by flip instead of rebuilding it in O(m).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from itertools import chain
from typing import Iterator, Optional, Sequence

from .construction import rcl_from_buckets
from .core import _INT32, BEST_MOVE, PartitionSolution, ProblemInstance, Walk
from .local_search import Move

# 50x G-set's largest graph (n = 20,000); a header such as "2147483647 0"
# must not allocate an adjacency list per claimed vertex
MAX_VERTICES = 2**20
# a gain cache that differs from the asked-for partition in at most this
# fraction of the vertices is patched flip by flip instead of rebuilt: on
# n = 800 random (degree 8) and torus (degree 4) graphs a patch costs about
# as much as a rebuild when 40-50 % of the vertices differ, and twice as much
# when all do
_PATCH_FRACTION = 0.5


class GainTable:
    """gain[v] = cut change if v switched sides, kept exact across flips."""

    def __init__(self, inst: "MaxCutInstance", solution: PartitionSolution):
        self.inst = inst
        self.solution = solution
        bits = solution.bits
        self.gain = [0] * inst.n
        for v in range(inst.n):
            g = 0
            for u, w in inst.adj[v]:
                g += w if bits[u] == bits[v] else -w
            self.gain[v] = g

    def apply_flip(self, v: int) -> int:
        """Flip v in place; returns the objective delta. O(degree(v))."""
        d = self.gain[v]
        bits = self.solution.bits
        old_side = bits[v]
        bits[v] ^= 1
        if self.solution.cached_objective is not None:
            self.solution.cached_objective += d
        self.gain[v] = -d
        for u, w in self.inst.adj[v]:
            # neighbors previously on v's side lose 2w of gain, others regain it
            if bits[u] == old_side:
                self.gain[u] -= 2 * w
            else:
                self.gain[u] += 2 * w
        return d


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
        return rcl_from_buckets(self.buckets, 2 * (self.inst.n - self.count), mode, alpha)

    def _move_key(self, key: int, new: Optional[int]) -> None:
        # take key out of its bucket and, unless new is None, into bucket new
        g = self.gain[key]
        keys = self.buckets[g]
        del keys[bisect_left(keys, key)]
        if not keys:
            del self.buckets[g]
        if new is not None:
            self.gain[key] = new
            insort(self.buckets.setdefault(new, []), key)

    def add(self, key: int) -> None:
        v, side = divmod(key, 2)
        if self.assigned[v] is not None:
            raise ValueError(f"vertex {v} already assigned")
        self.objective += self.gain[key]
        self.assigned[v] = side
        self.count += 1
        self._move_key(2 * v, None)
        self._move_key(2 * v + 1, None)
        other = 1 - side
        for u, w in self.inst.adj[v]:
            if self.assigned[u] is None:
                k = 2 * u + other
                self._move_key(k, self.gain[k] + w)

    def build(self) -> PartitionSolution:
        return PartitionSolution([s if s is not None else 0 for s in self.assigned], self.objective)


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
        # gains of the partition in _gains.solution.bits (a private copy); valid
        # for any solution with equal bits, patched or rebuilt when they differ
        self._gains: Optional[GainTable] = None
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

    def _gain_table(self, solution: PartitionSolution) -> GainTable:
        table = self._gains
        if table is not None and table.solution.bits != solution.bits:
            diff = [v for v, (a, b) in enumerate(zip(table.solution.bits, solution.bits)) if a != b]
            if len(diff) <= self.n * _PATCH_FRACTION:
                for v in diff:
                    table.apply_flip(v)  # O(degree) each; gains are exact, so equal to a rebuild
            else:
                table = None
        if table is None:
            table = self._gains = GainTable(self, PartitionSolution(list(solution.bits)))
        return table

    def moves(self, solution: PartitionSolution, offset: int, pick: str) -> Iterator[Move]:
        gains = self._gain_table(solution).gain
        if pick == BEST_MOVE:
            best = max(gains)
            if best > 0:
                yield Move("transfer", gains.index(best), None, None, best)
        else:
            improving = [g > 0 for g in gains[offset:] + gains[:offset]]
            if True in improving:
                v = (offset + improving.index(True)) % self.n
                yield Move("transfer", v, None, None, gains[v])

    def apply_move(self, solution: PartitionSolution, move: Move) -> None:
        if move.kind != "transfer":
            raise ValueError(f"not a partition move: {move.kind}")
        table = self._gains
        in_sync = table is not None and table.solution.bits == solution.bits
        solution.bits[move.element] ^= 1
        if in_sync:
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
        if k == 1:
            top = [max(diff, key=gains.__getitem__)]  # the first maximum: the lowest position
        else:
            top = heapq.nsmallest(k, diff, key=lambda j: -gains[j])  # stable, as sorted(...)[:k]
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
