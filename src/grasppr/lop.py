"""Linear ordering problem: maximize the sum of matrix entries above the diagonal.

A solution is an ordering of the n vertices; vertex a placed before vertex b
contributes cost[a][b]. The neighbourhood is insert (move one vertex to
another position), and relinking steps insert a misplaced vertex at its
guiding position.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain
from operator import add, itemgetter
from typing import Iterator, Optional, Sequence

from .construction import rcl_from_columns
from .core import _INT32, BEST_MOVE, PermutationSolution, ProblemInstance, Walk
from .local_search import Move


class _LopBuilder:
    """Appends one vertex per step; g(v) = objective increase of appending v.

    The unplaced vertices stay ascending, their gains in a parallel list: the
    two columns rcl_from_columns reads, both updated in one pass per add().
    """

    def __init__(self, inst: "LopInstance"):
        self.inst = inst
        self.order: list[int] = []
        self.unplaced = list(range(inst.n))
        self.gains = [0] * inst.n  # gains[i]: sum of cost[u][unplaced[i]] over placed u
        self.objective = 0

    @property
    def complete(self) -> bool:
        return not self.unplaced

    def rcl(self, mode: str, alpha: float) -> list[int]:
        return rcl_from_columns(self.unplaced, self.gains, mode, alpha)

    def add(self, v: int) -> None:
        i = bisect_left(self.unplaced, v)
        if self.unplaced[i : i + 1] != [v]:
            raise ValueError(f"vertex {v} already placed or not in 0..{self.inst.n - 1}")
        del self.unplaced[i]
        self.objective += self.gains.pop(i)
        self.order.append(v)
        self.gains = list(map(add, self.gains, map(self.inst.cost[v].__getitem__, self.unplaced)))

    def build(self) -> PermutationSolution:
        return PermutationSolution(self.order, self.objective)


class LopInstance(ProblemInstance):
    def __init__(self, cost: Sequence[Sequence[int]]):
        n = len(cost)
        if n < 2:
            raise ValueError(f"n must be >= 2, got {n}")
        rows = tuple(map(tuple, cost))
        exact_ints = set(map(len, rows)) == {n} and set(map(type, chain.from_iterable(rows))) == {int}
        if not (exact_ints and -_INT32 <= min(map(min, rows)) and max(map(max, rows)) < _INT32):
            # entry by entry, to raise at the first fault in row order, or to
            # accept int subclasses other than bool
            for i, row in enumerate(cost):
                if len(row) != n:
                    raise ValueError(f"row {i} has {len(row)} entries, expected {n}")
                for j, w in enumerate(row):
                    if not isinstance(w, int) or isinstance(w, bool):
                        raise ValueError(f"non-integer cost at ({i},{j}): {w!r}")
                    if not (-_INT32 <= w < _INT32):
                        raise ValueError(f"cost at ({i},{j}) outside 32-bit range: {w}")
        self.cost = rows
        self.n = n
        # skew[e][u] = cost[e][u] - cost[u][e]; built by _skew_rows on the first
        # insert scan or relinking step, so parsing alone (setup,
        # construction-only cells) never pays for it
        self._skew: Optional[tuple[tuple[int, ...], ...]] = None

    def evaluate(self, solution: PermutationSolution) -> int:
        order = solution.order
        cost = self.cost
        total = 0
        for i in range(self.n):
            row = cost[order[i]]
            for j in range(i + 1, self.n):
                total += row[order[j]]
        return total

    def new_construction(self) -> _LopBuilder:
        return _LopBuilder(self)

    def _skew_rows(self) -> tuple[tuple[int, ...], ...]:
        if self._skew is None:
            self._skew = tuple(tuple(a - b for a, b in zip(row, col)) for row, col in zip(self.cost, zip(*self.cost)))
        return self._skew

    def _insert_prefixes(self, order: Sequence[int]) -> Iterator[tuple[int, int, list[int]]]:
        """(e, i, prefix) for each element e ascending, i its position.

        prefix[k] = sum of skew[e][order[p]] over p < k. Moving e from i to
        j < i gains prefix[i] - prefix[j]; to j > i it loses the skew of
        order[i+1..j], i.e. gains prefix[i] - prefix[j + 1]. So prefix index
        k stands for target k if k < i and k - 1 if k > i + 1, in scan order;
        skew[e][e] = 0 makes prefix[i + 1] = prefix[i], so k = i and k = i + 1
        never improve. O(n) per element, computed only when the caller asks
        for the next one.
        """
        skew = self._skew_rows()
        pos = [0] * self.n
        for p, v in enumerate(order):
            pos[v] = p
        in_order = itemgetter(*order)  # n >= 2, so it always returns a tuple
        for e in range(self.n):
            yield e, pos[e], list(accumulate(in_order(skew[e]), initial=0))

    def moves(self, solution: PermutationSolution, offset: int, pick: str) -> Iterator[Move]:
        # canonical scan order: element id ascending, target position ascending;
        # the permutation scan ignores offsets (first-improving stays canonical)
        order = solution.order
        move = self._best_insert(order) if pick == BEST_MOVE else self._first_insert(order)
        if move is not None:
            yield move

    def _best_insert(self, order: Sequence[int]) -> Optional[Move]:
        best, chosen = 0, None
        for e, i, prefix in self._insert_prefixes(order):
            # the first minimum is the first best target in scan order; prefix[i]
            # and prefix[i + 1] equal base, so an improving minimum is never there
            low = min(prefix)
            if prefix[i] - low > best:
                best, chosen = prefix[i] - low, (e, i, prefix.index(low))
        if chosen is None:
            return None
        e, i, k = chosen
        return Move("insert", e, i, k if k < i else k - 1, best)

    def _first_insert(self, order: Sequence[int]) -> Optional[Move]:
        for e, i, prefix in self._insert_prefixes(order):
            base = prefix[i]
            if min(prefix) < base:
                k = list(map(base.__gt__, prefix)).index(True)  # first improving target
                return Move("insert", e, i, k if k < i else k - 1, base - prefix[k])
        return None

    def apply_move(self, solution: PermutationSolution, move: Move) -> None:
        if move.kind != "insert":
            raise ValueError(f"not a permutation move: {move.kind}")
        order = solution.order
        order.insert(move.to_pos, order.pop(move.from_pos))
        if solution.cached_objective is not None:
            solution.cached_objective += move.delta

    def new_walk(self, a: PermutationSolution, b: PermutationSolution) -> Walk:
        return Walk(self, a, b)

    def pr_candidates(self, current: PermutationSolution, guiding: PermutationSolution, k: int) -> list[Move]:
        """At most k insertions of a misplaced element into its guiding
        position that strictly reduce the position-wise difference to guiding
        without reaching it, by descending delta, ties to the lower element."""
        if current == guiding:
            raise ValueError("current and guiding coincide")
        cur, tgt = current.order, guiding.order
        pos_cur = [0] * self.n
        pos_tgt = [0] * self.n
        for p in range(self.n):
            pos_cur[cur[p]] = p
            pos_tgt[tgt[p]] = p
        base = sum(1 for p in range(self.n) if cur[p] != tgt[p])
        skew = self._skew_rows()
        steps: list[Move] = []
        for e in range(self.n):
            i, j = pos_cur[e], pos_tgt[e]
            if i == j:
                continue
            scratch = list(cur)
            scratch.pop(i)
            scratch.insert(j, e)
            if 0 < sum(1 for p in range(self.n) if scratch[p] != tgt[p]) < base:
                # e gains skew[e][u] for each u it jumps ahead of, loses it for each it falls behind
                d = sum(map(skew[e].__getitem__, cur[j:i] if j < i else cur[i + 1 : j + 1]))
                steps.append(Move("insert", e, i, j, d if j < i else -d))
        return sorted(steps, key=lambda m: -m.delta)[:k]  # stable: ties keep ascending e
