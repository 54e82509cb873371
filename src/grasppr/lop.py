"""Linear ordering problem: maximize the sum of matrix entries above the diagonal.

A solution is an ordering of the n vertices; vertex a placed before vertex b
contributes cost[a][b]. The neighbourhood is insert (move one vertex to
another position), and each step of the problem's walk (_LopWalk) inserts a
misplaced vertex at its guiding position.

Element e's prefix sums of skew[e][u] = cost[e][u] - cost[u][e] along the
order give the deltas of all its targets (see moves). An insert scan packs
them, one w-bit field per element (see _FIELD_WIDTHS), and keeps every
field's minimum by SWAR (_swar_min): a full pass is O(n^2) word operations.
A descent holds the scan of its solution's order (_InsertScan): a pass reads
its chunk minima in O(n sqrt(n)), and a move from i to j patches it (_rescan)
in O(n (|i - j| + sqrt(n))). The descent's one full scan asks the instance
for its packing (_packed) and keeps it on the scan, where every later pass
and patch reads it. No other state is kept, so walk steps and hand edits
only move the order.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import ne
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .construction import RclConfig, rcl_from_columns
from .core import _INT32, Move, PermutationSolution, ProblemInstance, RandomStream, SearchDepth

# The insert scan packs one w-bit field per element into a Python int, and
# each instance picks w from its data (see _packed): the smallest of 16, 32
# and 64 with (n - 1) * max|skew| < 2^(w-2). A prefix sums at most n - 1
# nonzero skews (skew[e][e] = 0), so a prefix biased by 2^(w-2) stays in
# [0, 2^(w-1)), below each field's guard bit w - 1, and no field borrows from
# or carries into the next. 64 bits always suffice: |skew| < 2^32 from
# 32-bit entries, and n - 1 < 2^30 for any matrix that fits in memory.
_FIELD_WIDTHS = {16: "H", 32: "I", 64: "Q"}  # width -> struct code
_BEST = SearchDepth.BEST_IMPROVING  # bound once: each scan then reads a global, not the slower enum member lookup


class _Packing(NamedTuple):
    """The packed columns of an instance's insert scan, in w-bit fields.

    columns[u] holds skew[e][u] in field e, masks[u] selects field u, bias
    and guard hold 2^(w-2) and 2^(w-1) in every field, shift is w - 1, and
    fields packs or unpacks n unsigned w-bit fields.
    """

    columns: tuple[int, ...]
    masks: tuple[int, ...]
    bias: int
    guard: int
    shift: int
    fields: struct.Struct


def _swar_min(values: Sequence[int], guard: int, shift: int) -> int:
    """Field-wise minimum of packed values whose fields lie in [0, guard),
    guard = 2^shift in each field, read once in order: values may be any
    non-empty sequence, and no copy of it is made.

    Per field, (low | guard) - p is 2^shift + low - p, in (0, 2^(shift+1)):
    never negative and never past the field, so no field borrows from the
    next. Its bit shift stays set where low >= p, and ge - (ge >> shift)
    spreads it over the field's low shift bits to select p there.
    """
    it = iter(values)
    low = next(it)
    for p in it:
        ge = ((low | guard) - p) & guard
        low ^= (low ^ p) & (ge - (ge >> shift))
    return low


@dataclass(slots=True)
class _InsertScan:
    """The packed insert scan of one order, held by a descent so that a move patches it.

    packing is the instance's, taken once by _full_scan, so that passes and
    patches read it from the scan. Field e of prefixes[k] is 2^(w-2) +
    prefix_e[k] (see _Packing), with prefix_e[k] the sum of
    skew[e][order[p]] over p < k; field e of base is that of prefixes[i]
    for e's own position i; lows[c] is the field-wise minimum of the chunk
    prefixes[c * step : (c + 1) * step] for the instance's step.
    """

    packing: _Packing
    prefixes: list[int]
    base: int
    lows: list[int]


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
        self._columns: Optional[_Packing] = None
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

    def construct(self, rcl: RclConfig, rng: RandomStream) -> PermutationSolution:
        """Appends one vertex per step; g(v) = objective increase of appending v.

        The unplaced vertices stay ascending, their gains in a parallel list:
        the two columns rcl_from_columns reads, both updated in one pass per step.
        """
        cost, mode, low, high = self.cost, rcl.mode, rcl.alpha_low, rcl.alpha_high
        order: list[int] = []
        unplaced = list(range(self.n))
        gains = [0] * self.n  # gains[i]: sum of cost[u][unplaced[i]] over placed u
        objective = 0
        while unplaced:
            alpha = rng.alpha_in(low, high)
            v = rng.pick(rcl_from_columns(unplaced, gains, mode, alpha))
            i = bisect_left(unplaced, v)
            del unplaced[i]
            objective += gains.pop(i)
            order.append(v)
            row = cost[v]
            gains = [g + row[u] for g, u in zip(gains, unplaced)]
        return PermutationSolution(order, objective)

    def _skew_rows(self) -> tuple[tuple[int, ...], ...]:
        if self._skew is None:
            self._skew = tuple(tuple(a - b for a, b in zip(row, col)) for row, col in zip(self.cost, zip(*self.cost)))
        return self._skew

    def moves(self, solution: PermutationSolution, depth: SearchDepth, scan: _InsertScan) -> Iterator[Move]:
        # scan: the one a descent holds of solution's order. Canonical scan
        # order: element id ascending, target position ascending. best: the
        # lowest element of largest gain and its first minimum, the first
        # best target in scan order; first: the lowest improving element and
        # its first improving target
        order = solution.order
        gains = self._insert_gains(scan)
        best = depth is _BEST
        gain = max(gains) if best else next(filter((0).__lt__, gains), 0)
        if gain <= 0:
            return
        e = gains.index(gain)
        i = order.index(e)
        # Moving e from i to j < i gains prefix_e[i] - prefix_e[j]; to j > i,
        # prefix_e[i] - prefix_e[j + 1]. So prefix k stands for target k if
        # k < i and k - 1 if k > i + 1; skew[e][e] = 0 makes prefix_e[i + 1] =
        # prefix_e[i], so k = i and k = i + 1 never improve. k is the first
        # prefix whose field e, compared in place (masked), is below bound:
        # low_e + 1 for best, base_e for first; the first chunk whose
        # minimum is below bound holds it
        packing, lows, prefixes = scan.packing, scan.lows, scan.prefixes
        mask, at = packing.masks[e], (packing.shift + 1) * e
        base = scan.base & mask
        bound = base - ((gain - 1) << at) if best else base
        c = 0
        while lows[c] & mask >= bound:
            c += 1
        k = c * self._step
        while prefixes[k] & mask >= bound:
            k += 1
        yield Move(e, i, k if k < i else k - 1, (base - (prefixes[k] & mask)) >> at)

    def _packed(self) -> _Packing:
        """The insert scan's packing, built on the first call, in the
        smallest width w of 16, 32 and 64 with (n - 1) * max|skew| <
        2^(w-2). Narrower fields shorten every big-int operation of a scan
        or patch; the arithmetic is exact at any width."""
        if self._columns is None:
            n, skew = self.n, self._skew_rows()
            # skew is antisymmetric, so its largest entry is its largest |entry|
            top = (n - 1) * max(map(max, skew))
            width = next((w for w in (16, 32) if top < 1 << w - 2), 64)
            ones = ((1 << width * n) - 1) // ((1 << width) - 1)  # 1 in every field
            field_bias, fields = 1 << width - 2, struct.Struct(f"<{n}{_FIELD_WIDTHS[width]}")
            bias = ones * field_bias
            # column u is row u negated; field_bias + skew lies in (0, 2^(w-1)),
            # so it packs unsigned
            columns = tuple(
                bias - int.from_bytes(fields.pack(*map(field_bias.__add__, row)), "little") for row in skew
            )
            masks = tuple(((1 << width) - 1) << width * u for u in range(n))
            self._columns = _Packing(columns, masks, bias, bias << 1, width - 1, fields)
        return self._columns

    def _insert_gains(self, scan: _InsertScan) -> tuple[int, ...]:
        """gains[e]: the largest gain of moving element e, 0 if none improves.

        gains = base - low field-wise, where base holds each element's prefix
        at its own position and low the field-wise minimum of all n + 1
        prefixes (see _InsertScan), one SWAR minimum over the chunk minima;
        base >= low in every field.
        """
        packing = scan.packing
        low = _swar_min(scan.lows, packing.guard, packing.shift)
        return packing.fields.unpack((scan.base - low).to_bytes(packing.fields.size, "little"))

    def _full_scan(self, order: Sequence[int]) -> _InsertScan:
        packing, n = self._packed(), self.n
        scan = _InsertScan(packing, [packing.bias] * (n + 1), 0, [packing.bias] * (n // self._step + 1))
        self._rescan(scan, order, 0, n - 1)
        return scan

    def _rescan(self, scan: _InsertScan, order: Sequence[int], lo: int, hi: int) -> None:
        """From prefixes[lo] on, recompute the prefixes lo+1..hi+1, the base
        fields of the elements at positions lo..hi of order, and the minima
        of the chunks that hold those prefixes. Moving the element at i to j
        changes nothing else, with lo, hi = min, max of i, j."""
        columns, masks, _, guard, shift, _ = scan.packing
        prefixes, lows, step = scan.prefixes, scan.lows, self._step
        base, p = scan.base, prefixes[lo]
        for k in range(lo, hi + 1):
            u = order[k]
            base ^= (base ^ p) & masks[u]
            p += columns[u]
            prefixes[k + 1] = p
        scan.base = base
        for c in range((lo + 1) // step, (hi + 1) // step + 1):
            lows[c] = _swar_min(prefixes[c * step : (c + 1) * step], guard, shift)

    def descend(
        self,
        solution: PermutationSolution,
        depth: SearchDepth,
        rng: RandomStream,
        should_stop: Optional[Callable[[], bool]],
    ) -> None:
        """Climb with one insert scan of solution's order, held across the
        passes: a full pass before the first, then a patch after each move.
        The insert scan takes no offset, so no pass draws from rng."""
        order, scan = solution.order, None
        while should_stop is None or not should_stop():
            if scan is None:  # after the first check, so a descent stopped at once scans nothing
                scan = self._full_scan(order)
            move = None
            for move in self.moves(solution, depth, scan):
                pass  # the scan finishes before its move is applied
            if move is None:
                return
            _, i, j, delta = move
            if delta <= 0:
                raise RuntimeError(f"{depth.value}-improving scan chose a non-improving move: {move}")
            order.insert(j, order.pop(i))
            if i < j:
                self._rescan(scan, order, i, j)
            else:
                self._rescan(scan, order, j, i)
            solution.cached_objective += delta

    def new_walk(self, a: PermutationSolution, b: PermutationSolution) -> "_LopWalk":
        return _LopWalk(self, a, b)

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
        base = sum(map(ne, cur, tgt))
        skew = self._skew_rows()
        steps: list[Move] = []
        for e in range(self.n):
            i, j = pos_cur[e], pos_tgt[e]
            if i == j:
                continue
            # only positions lo..hi change: e lands on its guiding position j,
            # where it matches, and the elements it jumps shift one toward i
            lo, hi = (j, i) if j < i else (i, j)
            jumped, beside = (cur[j:i], tgt[j + 1 : i + 1]) if j < i else (cur[i + 1 : j + 1], tgt[i:j])
            if 0 < base - sum(map(ne, cur[lo : hi + 1], tgt[lo : hi + 1])) + sum(map(ne, jumped, beside)) < base:
                # e gains skew[e][u] for each u it jumps ahead of, loses it for each it falls behind
                d = sum(map(skew[e].__getitem__, jumped))
                steps.append(Move(e, i, j, d if j < i else -d))
        return sorted(steps, key=lambda m: -m.delta)[:k]  # stable: ties keep ascending e


class _LopWalk:
    """Relinking steps between two orders, heads[0] and heads[1].

    ranked asks the instance's pr_candidates for the steps of one head,
    looked up at each call; take moves that head's order and objective.
    """

    def __init__(self, inst: LopInstance, a: PermutationSolution, b: PermutationSolution):
        self.instance = inst
        self.heads = (a, b)

    def ranked(self, i: int, k: int) -> list[Move]:
        return self.instance.pr_candidates(self.heads[i], self.heads[1 - i], k)

    def take(self, i: int, move: Move) -> None:
        head = self.heads[i]
        head.order.insert(move.to_pos, head.order.pop(move.from_pos))
        head.cached_objective += move.delta
