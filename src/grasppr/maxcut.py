"""Max-cut: maximize total weight of edges crossing a two-sided vertex partition.

Weights may be negative. The default neighborhood transfers one vertex across
the cut; flip gains are kept in a GainTable so a transfer costs O(degree).
Each instance caches the GainTable of the last partition it scanned, keyed by
a private copy of its bits, so consecutive passes of a descent and
consecutive relinking steps reuse it instead of rebuilding in O(m).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional, Sequence

from .construction import rcl_from_buckets
from .core import ALL_MOVES, BEST_MOVE, FIRST_MOVE, PARTITION, PartitionSolution, ProblemInstance, pick_moves
from .local_search import Move
from .path_relinking import PrStep

_INT32 = 2**31


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
        if inst.n > 0:
            seed = max(range(inst.n), key=lambda v: (sum(w for _, w in inst.adj[v]), -v))
            self.add(2 * seed + 1)

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
    representation = PARTITION
    randomized_first_improving = True  # per-pass scan offset, see local_search

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]], neighborhood: str = "transfer"):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if neighborhood not in ("transfer", "swap"):
            raise ValueError(f"unknown neighborhood: {neighborhood!r}")
        merged: dict[tuple[int, int], int] = {}
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"vertex out of range in edge ({i},{j})")
            if i == j:
                raise ValueError(f"self-loop on vertex {i}")
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError(f"non-integer weight on edge ({i},{j}): {w!r}")
            key = (i, j) if i < j else (j, i)
            merged[key] = merged.get(key, 0) + w
        for (i, j), w in merged.items():
            if not (-_INT32 <= w < _INT32):
                raise ValueError(f"merged weight on edge ({i},{j}) outside 32-bit range: {w}")
        self.n = n
        self.edges = tuple(sorted((i, j, w) for (i, j), w in merged.items()))
        self.neighborhood = neighborhood
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        self.adj = tuple(tuple(a) for a in adj)
        self._weight = {(i, j): w for i, j, w in self.edges}
        # gains of the partition in _gains.solution.bits (a private copy); valid
        # for any solution with equal bits, rebuilt when they differ
        self._gains: Optional[GainTable] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_weight(self, u: int, v: int) -> int:
        return self._weight.get((u, v) if u < v else (v, u), 0)

    def evaluate(self, solution: PartitionSolution) -> int:
        bits = solution.bits
        return sum(w for i, j, w in self.edges if bits[i] != bits[j])

    def new_construction(self) -> _MaxCutBuilder:
        return _MaxCutBuilder(self)

    def _gain_table(self, solution: PartitionSolution) -> GainTable:
        table = self._gains
        if table is None or table.solution.bits != solution.bits:
            table = self._gains = GainTable(self, PartitionSolution(list(solution.bits)))
        return table

    def moves(self, solution: PartitionSolution, offset: int = 0, pick: str = ALL_MOVES) -> Iterator[Move]:
        if self.neighborhood == "swap":
            yield from pick_moves(self._swap_moves(solution), pick)
            return
        gains = self._gain_table(solution).gain
        n = self.n
        if pick == BEST_MOVE:
            best = max(gains)
            if best > 0:
                yield Move("transfer", gains.index(best), None, None, None, best)
        elif pick == FIRST_MOVE:
            improving = [g > 0 for g in gains[offset:] + gains[:offset]]
            if True in improving:
                v = (offset + improving.index(True)) % n
                yield Move("transfer", v, None, None, None, gains[v])
        else:
            gains = list(gains)  # a copy: the cache follows any in-sync solution a caller moves mid-scan
            for k in range(n):
                v = (offset + k) % n
                yield Move("transfer", v, None, None, None, gains[v])

    def _swap_moves(self, solution: PartitionSolution) -> Iterator[Move]:
        gains = list(self._gain_table(solution).gain)  # a copy, as for the transfer scan
        bits = solution.bits
        n = self.n
        for u in range(n):
            if bits[u] != 1:
                continue
            for v in range(n):
                if bits[v] == 0:
                    d = gains[u] + gains[v] + 2 * self.edge_weight(u, v)
                    yield Move("swap", u, None, None, v, d)

    def apply_move(self, solution: PartitionSolution, move: Move) -> None:
        if move.kind == "transfer":
            flipped = (move.element,)
        elif move.kind == "swap":
            flipped = (move.element, move.other)
        else:
            raise ValueError(f"not a partition move: {move.kind}")
        table = self._gains
        in_sync = table is not None and table.solution.bits == solution.bits
        for v in flipped:
            solution.bits[v] ^= 1
            if in_sync:
                table.apply_flip(v)  # O(degree) instead of a later O(m) rebuild
        if solution.cached_objective is not None:
            solution.cached_objective += move.delta

    def pr_candidates(self, current: PartitionSolution, guiding: PartitionSolution) -> list[PrStep]:
        if current == guiding:
            raise ValueError("current and guiding coincide")
        # every flip of a differing position reduces the difference by exactly 1
        gains = self._gain_table(current).gain
        diff = [j for j in range(self.n) if current.bits[j] != guiding.bits[j]]
        reaches = len(diff) == 1
        return [PrStep(Move("transfer", j, None, None, None, gains[j]), gains[j], reaches_guiding=reaches) for j in diff]

