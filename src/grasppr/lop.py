"""Linear ordering problem: maximize the sum of matrix entries above the diagonal.

A solution is an ordering of the n vertices; vertex a placed before vertex b
contributes cost[a][b]. The neighbourhood is insert (move one vertex to
another position), and relinking steps insert a misplaced vertex at its
guiding position.

Each instance caches the insert scan of the last scanned order, over a
private copy of it. A scan of an equal order reads the cache; any other
order gets a full pass, which replaces it. apply_move patches the cache when
the moving solution's order equals the cached one. The order comparison is
the only test of validity, so editing an order by hand is safe.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from math import isqrt
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .construction import rcl_from_columns
from .core import _INT32, Move, PermutationSolution, ProblemInstance, SearchDepth

# The insert scan packs one 64-bit field per element into a
# Python int. |skew| < 2^32, so |prefix| <= n * 2^32 < 2^62 for any n a matrix
# can have: a prefix biased by 2^62 stays in [0, 2^63), below each field's
# guard bit 63, and no field borrows from or carries into the next.
_FIELD_BIAS, _FIELD_GUARD = 1 << 62, 1 << 63
_SKEW_OFFSET = 1 << 32  # added to each skew entry so struct packs it unsigned


def _swar_min(values: Sequence[int], guard: int) -> int:
    """Field-wise minimum of packed values: bit 63 of (low | guard) - p stays
    set where low >= p, and spread over the field's low 63 bits it selects p
    there."""
    low = values[0]
    for p in values[1:]:
        ge = ((low | guard) - p) & guard
        low ^= (low ^ p) & (ge - (ge >> 63))
    return low


@dataclass(slots=True)
class _InsertScan:
    """The packed insert scan of one order, kept so that a move patches it.

    Field e of prefixes[k] is 2^62 + prefix_e[k] (see _prefix), after the
    first k vertices of order; field e of base is that of prefixes[i] for
    e's own position i; lows[c] is the field-wise minimum of the chunk
    prefixes[c * step : (c + 1) * step] for the instance's step. order is a
    private copy.
    """

    order: list[int]
    prefixes: list[int]
    base: int
    lows: list[int]


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
        row = self.inst.cost[v]
        self.gains = [g + row[u] for g, u in zip(self.gains, self.unplaced)]

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
        # the packed columns of the insert scan, built by _packed on its
        # first call, likewise never at parse time
        self._columns: Optional[tuple] = None
        # the insert scan of the last scanned order, patched by apply_move;
        # see _insert_gains
        self._scan: Optional[_InsertScan] = None
        self._step = isqrt(n + 1)  # prefixes per chunk of _InsertScan.lows

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

    def moves(self, solution: PermutationSolution, offset: int, depth: SearchDepth) -> Iterator[Move]:
        # canonical scan order: element id ascending, target position ascending;
        # the permutation scan ignores offsets (first-improving stays canonical).
        # best: the lowest element of largest gain and its first minimum, the
        # first best target in scan order; first: the lowest improving
        # element and its first improving target
        order = solution.order
        gains = self._insert_gains(order)
        best = depth is SearchDepth.BEST_IMPROVING
        gain = max(gains) if best else next(filter((0).__lt__, gains), 0)
        if gain <= 0:
            return
        e = gains.index(gain)
        i = order.index(e)
        prefix = self._prefix(e, order)
        base = prefix[i]
        k = prefix.index(base - gain) if best else list(map(base.__gt__, prefix)).index(True)
        yield Move("insert", e, i, k if k < i else k - 1, base - prefix[k])

    def _packed(self) -> tuple:
        """(columns, masks, bias, guard): columns[u] holds skew[e][u] in
        64-bit field e, masks[u] selects field u, and bias and guard hold
        2^62 and 2^63 in every field."""
        if self._columns is None:
            n = self.n
            ones = ((1 << 64 * n) - 1) // ((1 << 64) - 1)  # 1 in every field
            offset, pack = ones * _SKEW_OFFSET, struct.Struct(f"<{n}Q").pack
            # skew is antisymmetric, so column u is row u negated
            columns = tuple(
                offset - int.from_bytes(pack(*map(_SKEW_OFFSET.__add__, row)), "little") for row in self._skew_rows()
            )
            masks = tuple(((1 << 64) - 1) << 64 * u for u in range(n))
            self._columns = (columns, masks, ones * _FIELD_BIAS, ones * _FIELD_GUARD)
        return self._columns

    def _insert_gains(self, order: Sequence[int]) -> tuple[int, ...]:
        """gains[e]: the largest gain of moving element e, 0 if none improves.

        gains = base - low field-wise, where base holds each element's prefix
        at its own position and low the field-wise minimum of all n + 1
        prefixes (see _InsertScan); base >= low in every field. The cached
        scan gives low as one SWAR minimum over its chunk minima if its order
        equals order; otherwise one pass over order rebuilds it.
        """
        scan = self._scan
        if scan is None or scan.order != order:
            scan = self._scan = self._full_scan(order)
        low = _swar_min(scan.lows, self._packed()[3])
        return struct.unpack(f"<{self.n}Q", (scan.base - low).to_bytes(8 * self.n, "little"))

    def _full_scan(self, order: Sequence[int]) -> _InsertScan:
        bias, n = self._packed()[2], self.n
        scan = _InsertScan(list(order), [bias] * (n + 1), 0, [bias] * (n // self._step + 1))
        self._rescan(scan, 0, n - 1)
        return scan

    def _rescan(self, scan: _InsertScan, lo: int, hi: int) -> None:
        """From prefixes[lo] on, recompute the prefixes lo+1..hi+1, the base
        fields of the elements at positions lo..hi, and the minima of the
        chunks that hold those prefixes. Moving the element at i to j changes
        nothing else, with lo, hi = min, max of i, j."""
        columns, masks, _, guard = self._packed()
        order, prefixes, lows, step = scan.order, scan.prefixes, scan.lows, self._step
        base, p = scan.base, prefixes[lo]
        for k in range(lo, hi + 1):
            u = order[k]
            base ^= (base ^ p) & masks[u]
            p += columns[u]
            prefixes[k + 1] = p
        scan.base = base
        for c in range((lo + 1) // step, (hi + 1) // step + 1):
            lows[c] = _swar_min(prefixes[c * step : (c + 1) * step], guard)

    def _prefix(self, e: int, order: Sequence[int]) -> list[int]:
        """prefix[k] = sum of skew[e][order[p]] over p < k, for k = 0..n.

        With i the position of e, moving e to j < i gains prefix[i] -
        prefix[j]; to j > i it loses the skew of order[i+1..j], i.e. gains
        prefix[i] - prefix[j + 1]. So prefix index k stands for target k if
        k < i and k - 1 if k > i + 1, in scan order; skew[e][e] = 0 makes
        prefix[i + 1] = prefix[i], so k = i and k = i + 1 never improve.
        """
        # n >= 2, so itemgetter returns a tuple
        return list(accumulate(itemgetter(*order)(self._skew_rows()[e]), initial=0))

    def apply_move(self, solution: PermutationSolution, move: Move) -> None:
        if move.kind != "insert":
            raise ValueError(f"not a permutation move: {move.kind}")
        order, i, j = solution.order, move.from_pos, move.to_pos
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"insert positions ({i}, {j}) not in 0..{self.n - 1}")
        # patch the cached scan if it is of this order; it stays detached
        # while patched, so a move that raises leaves no half-updated scan behind
        scan, self._scan = self._scan, None
        patch = scan is not None and scan.order == order
        order.insert(j, order.pop(i))
        if patch:
            scan.order.insert(j, scan.order.pop(i))
            self._rescan(scan, min(i, j), max(i, j))
        self._scan = scan
        if solution.cached_objective is not None:
            solution.cached_objective += move.delta

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
