"""Reference implementations the tests check the package against.

Everything here is deliberately naive and independent of the package
internals (it shares only the Move and SearchDepth types): full-matrix
sums, explicit enumeration, bitmask DP. Slow is fine; these only run at
test scale. The reference instances RefLop and RefMaxCut also share the
problem interface, the solution types and the default walk, so that the
package's drivers can run on them; every kernel behind that interface is
built from the functions here.
"""

import math
import random
from contextlib import contextmanager
from itertools import permutations

from grasppr.core import Move, PartitionSolution, PermutationSolution, ProblemInstance, SearchDepth


def lop_value(cost, order):
    n = len(order)
    return sum(cost[order[i]][order[j]] for i in range(n) for j in range(i + 1, n))


def cut_value(edges, bits):
    return sum(w for i, j, w in edges if bits[i] != bits[j])


def position_delta(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def lop_optimum_dp(cost):
    """Exact LOP optimum: f(mask) = best value placing exactly mask, last free choice."""
    n = len(cost)
    full = 1 << n
    f = [None] * full
    f[0] = 0
    for mask in range(full):
        if f[mask] is None:
            continue
        for v in range(n):
            if mask >> v & 1:
                continue
            gain = 0
            m = mask
            while m:
                u = (m & -m).bit_length() - 1
                gain += cost[u][v]
                m &= m - 1
            nm = mask | (1 << v)
            val = f[mask] + gain
            if f[nm] is None or val > f[nm]:
                f[nm] = val
    return f[full - 1]


def lop_optimum_enum(cost):
    n = len(cost)
    return max(lop_value(cost, p) for p in permutations(range(n)))


def maxcut_optimum_enum(n, edges):
    # fix vertex 0 on side 0; the cut is complement-symmetric
    best = 0
    for mask in range(1 << (n - 1)):
        bits = [0] + [(mask >> v) & 1 for v in range(n - 1)]
        best = max(best, cut_value(edges, bits))
    return best


def top_relink_flips(edges, current, target, k):
    """(position, gain) of the at most k best relinking flips of current toward
    target, skipping a flip that reaches target: the stable top k of the full
    scan in ascending position, by descending cut gain."""
    base = cut_value(edges, current)
    flips = []
    for j in range(len(current)):
        if current[j] != target[j]:
            flipped = list(current)
            flipped[j] ^= 1
            flips.append((j, cut_value(edges, flipped) - base))
    if len(flips) == 1:
        return []
    return sorted(flips, key=lambda f: -f[1])[:k]


def reducing_insertions(order, target):
    """Elements whose insertion into their target position strictly shrinks
    the position-wise difference; the permutation analogue of a PR step."""
    base = position_delta(order, target)
    pos = {v: i for i, v in enumerate(order)}
    tpos = {v: i for i, v in enumerate(target)}
    out = []
    for e in order:
        i, j = pos[e], tpos[e]
        if i == j:
            continue
        l = list(order)
        l.pop(i)
        l.insert(j, e)
        if position_delta(l, target) < base:
            out.append(e)
    return out


@contextmanager
def record_path(instance):
    """Record every relinking step on instance while the block runs.

    Wraps instance.new_walk, so each take of each walk appends (a copy of
    the moved head, its index, its objective) to the yielded list, in the
    order relink visits them.
    """
    path = []

    def new_walk(a, b):
        walk = type(instance).new_walk(instance, a, b)
        take = walk.take

        def recording_take(i, move):
            take(i, move)
            path.append((walk.heads[i].copy(), i, walk.heads[i].cached_objective))

        walk.take = recording_take
        return walk

    instance.new_walk = new_walk
    try:
        yield path
    finally:
        del instance.new_walk


def build_rcl_value(entries, alpha):
    """Keys of the (key, gain) entries with g >= (1 - alpha) * g_max, applied
    literally: with g_max < 0 and alpha > 0 the set is empty."""
    threshold = (1.0 - alpha) * max(g for _, g in entries)
    return [key for key, g in entries if g >= threshold]


def build_rcl_cardinality(entries, alpha):
    """Keys of the p_max = 1 + floor(alpha * (|CL| - 1)) largest gains, ties to the lowest key."""
    p_max = 1 + math.floor(alpha * (len(entries) - 1))
    ranked = sorted(entries, key=lambda e: (-e[1], e[0]))
    return [key for key, _ in ranked[:p_max]]


def _greedy_keys(entries):
    g_max = max(g for _, g in entries)
    return [key for key, g in entries if g == g_max]


def rcl_from_entries(entries, mode, alpha):
    """The documented RCL of one construction step over (key, gain) entries:
    the lowest argmax key for alpha 0, else the value or cardinality list,
    with the argmax set when the literal value threshold empties it."""
    if alpha == 0.0:
        return [min(_greedy_keys(entries))]
    if mode == "value":
        return build_rcl_value(entries, alpha) or _greedy_keys(entries)
    return build_rcl_cardinality(entries, alpha)


class EliteMirror:
    """Straight transcription of the documented pool admission rules, kept as
    plain (bits, objective) lists so divergence from the real structure shows
    up as a decision or membership mismatch."""

    def __init__(self, capacity, d_th):
        self.capacity = capacity
        self.d_th = d_th
        self.members = []  # [bits, objective]

    def add(self, bits, f):
        """Returns (added, reason); the members show what was evicted."""
        bits = list(bits)
        if len(self.members) < self.capacity:
            near = [m for m in self.members if position_delta(m[0], bits) < self.d_th]
            if not near:
                self.members.append([bits, f])
                return True, None
            if all(f > m[1] for m in near):
                for m in near:
                    self.members.remove(m)
                self.members.append([bits, f])
                return True, None
            return False, "diversity"
        worst = min(m[1] for m in self.members)
        if f <= worst:
            return False, "quality"
        best = max(m[1] for m in self.members)
        if f <= best and any(position_delta(m[0], bits) == 0 for m in self.members):
            return False, "duplicate"
        worse = [(i, m) for i, m in enumerate(self.members) if m[1] < f]
        _, victim = min(worse, key=lambda im: (position_delta(im[1][0], bits), im[1][1], im[0]))
        self.members.remove(victim)
        self.members.append([bits, f])
        return True, None


def insert_delta(cost, order, i, j):
    """Objective change of moving order[i] to position j, summed over the crossed block."""
    e = order[i]
    if j > i:  # e falls behind order[i+1..j]
        return sum(cost[u][e] - cost[e][u] for u in order[i + 1 : j + 1])
    return sum(cost[e][u] - cost[u][e] for u in order[j:i])  # e jumps ahead of order[j..i-1]


def all_moves(instance, solution, offset=0):
    """Every move of the neighbourhood with its exact delta, in the package's
    canonical scan order: LOP inserts by element, then target position,
    ascending (offset ignored); max-cut transfers by vertex, rotated to start
    at offset. Each LOP element gets one running sum over cost per side of
    its position, so a scan is O(n^2); each max-cut gain is summed from adj."""
    if hasattr(solution, "order"):
        order, cost = solution.order, instance.cost
        n = len(order)
        moves = []
        for e in range(n):
            i = order.index(e)
            deltas = {}
            d = 0
            for j in range(i - 1, -1, -1):
                d += cost[e][order[j]] - cost[order[j]][e]
                deltas[j] = d
            d = 0
            for j in range(i + 1, n):
                d += cost[order[j]][e] - cost[e][order[j]]
                deltas[j] = d
            moves += [Move("insert", e, i, j, deltas[j]) for j in sorted(deltas)]
        return moves
    bits = solution.bits
    n = len(bits)
    moves = []
    for v in [(offset + k) % n for k in range(n)]:
        gain = sum(w if bits[u] == bits[v] else -w for u, w in instance.adj[v])
        moves.append(Move("transfer", v, None, None, gain))
    return moves


def best_move(moves):
    """Best-improving selection over an all_moves() scan: largest delta > 0, first on ties."""
    best = None
    for move in moves:
        if move.delta > 0 and (best is None or move.delta > best.delta):
            best = move
    return best


def first_move(moves):
    """First-improving selection over an all_moves() scan."""
    for move in moves:
        if move.delta > 0:
            return move
    return None


class _RefBuilder:
    """A construction that scores every candidate key at every step: the
    instance's entries(chosen) lists them as (key, gain), and its
    finish(chosen) makes the solution."""

    def __init__(self, instance, chosen):
        self.instance, self.chosen = instance, chosen

    @property
    def complete(self):
        return len(self.chosen) == self.instance.n

    def rcl(self, mode, alpha):
        return rcl_from_entries(self.instance.entries(self.chosen), mode, alpha)

    def add(self, key):
        self.chosen.append(key)

    def build(self):
        return self.instance.finish(self.chosen)


class _RefInstance(ProblemInstance):
    """Moves picked from all_moves, applied naively, with the objective
    recomputed from scratch; relinking by the default walk."""

    def moves(self, solution, offset, depth):
        scan = all_moves(self, solution, offset)
        move = best_move(scan) if depth is SearchDepth.BEST_IMPROVING else first_move(scan)
        if move is not None:
            yield move

    def apply_move(self, solution, move):
        self.change(solution, move)
        if solution.cached_objective is not None:
            solution.cached_objective = self.evaluate(solution)


class RefLop(_RefInstance):
    def __init__(self, cost):
        self.cost, self.n = cost, len(cost)

    def evaluate(self, solution):
        return lop_value(self.cost, solution.order)

    def entries(self, order):
        return [(v, sum(self.cost[u][v] for u in order)) for v in range(self.n) if v not in order]

    def finish(self, order):
        return PermutationSolution(order, lop_value(self.cost, order))

    def new_construction(self):
        return _RefBuilder(self, [])

    def change(self, solution, move):
        solution.order.insert(move.to_pos, solution.order.pop(move.from_pos))

    def pr_candidates(self, current, guiding, k):
        cur, tgt = current.order, guiding.order
        steps = []
        for e in sorted(reducing_insertions(cur, tgt)):
            after = list(cur)
            after.remove(e)
            after.insert(tgt.index(e), e)
            if after != tgt:
                d = lop_value(self.cost, after) - lop_value(self.cost, cur)
                steps.append(Move("insert", e, cur.index(e), tgt.index(e), d))
        return sorted(steps, key=lambda m: -m.delta)[:k]


class RefMaxCut(_RefInstance):
    randomized_first_improving = True

    def __init__(self, n, edges):
        merged = {}
        for i, j, w in edges:
            key = (min(i, j), max(i, j))
            merged[key] = merged.get(key, 0) + w
        self.n = n
        self.edges = [(i, j, w) for (i, j), w in merged.items()]
        self.adj = [[] for _ in range(n)]
        for i, j, w in self.edges:
            self.adj[i].append((j, w))
            self.adj[j].append((i, w))

    def evaluate(self, solution):
        return cut_value(self.edges, solution.bits)

    def entries(self, keys):
        # key 2v + side gains the weight toward assigned vertices on the other side
        side_of = {k // 2: k % 2 for k in keys}
        return [
            (2 * v + side, sum(w for u, w in self.adj[v] if side_of.get(u, side) != side))
            for v in range(self.n)
            if v not in side_of
            for side in (0, 1)
        ]

    def finish(self, keys):
        bits = [0] * self.n
        for k in keys:
            bits[k // 2] = k % 2
        return PartitionSolution(bits, cut_value(self.edges, bits))

    def new_construction(self):
        # the seed vertex, on side 1: largest weighted degree, lowest id on ties
        seed = max(range(self.n), key=lambda v: (sum(w for _, w in self.adj[v]), -v))
        return _RefBuilder(self, [2 * seed + 1])

    def change(self, solution, move):
        solution.bits[move.element] ^= 1

    def pr_candidates(self, current, guiding, k):
        flips = top_relink_flips(self.edges, current.bits, guiding.bits, k)
        return [Move("transfer", j, None, None, g) for j, g in flips]


def rand_lop_matrix(r, n, lo=0, hi=99):
    return [[0 if i == j else r.randint(lo, hi) for j in range(n)] for i in range(n)]


def rand_edges(r, n, p=0.5, lo=1, hi=10):
    return [(i, j, r.randint(lo, hi)) for i in range(n) for j in range(i + 1, n) if r.random() < p]


def rand_perm(r, n):
    order = list(range(n))
    r.shuffle(order)
    return order


def rand_bits(r, n):
    return [r.randrange(2) for _ in range(n)]


def make_rng(seed):
    return random.Random(seed)
