"""Problem-agnostic building blocks: solutions, the problem interface, seeded RNG.

Objectives are exact Python ints throughout (maximization); no floats enter the
solver core. The instance constructors alone judge instance values (the parsers
only read text): each given weight, and each merged max-cut weight, must fit 32
bits, so that any objective sum fits comfortably in 64 bits.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

_INT32 = 2**31  # instance weights w satisfy -_INT32 <= w < _INT32


@dataclass(eq=False)
class PermutationSolution:
    """An ordering of vertices 0..n-1; order[i] is the vertex at position i."""

    order: list[int]
    cached_objective: Optional[int] = None

    def copy(self) -> "PermutationSolution":
        return PermutationSolution(list(self.order), self.cached_objective)

    def __eq__(self, other: object) -> bool:
        # cached_objective is derived state, not identity
        return isinstance(other, PermutationSolution) and self.order == other.order

    def __repr__(self) -> str:
        return f"PermutationSolution({self.order}, f={self.cached_objective})"


@dataclass(eq=False)
class PartitionSolution:
    """A two-sided vertex partition; bits[v] == 1 means v is on side S."""

    bits: list[int]
    cached_objective: Optional[int] = None

    def copy(self) -> "PartitionSolution":
        return PartitionSolution(list(self.bits), self.cached_objective)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PartitionSolution) and self.bits == other.bits

    def __repr__(self) -> str:
        return f"PartitionSolution({''.join(map(str, self.bits))}, f={self.cached_objective})"


Solution = PermutationSolution | PartitionSolution


def _payload(solution: Solution) -> list[int]:
    if isinstance(solution, PermutationSolution):
        return solution.order
    if isinstance(solution, PartitionSolution):
        return solution.bits
    raise TypeError(f"not a solution: {solution!r}")


def delta(a: Solution, b: Solution) -> int:
    """Size of the symmetric difference: positions where a and b disagree.

    For permutations this counts {j : a.order[j] != b.order[j]}; for
    partitions {j : a.bits[j] != b.bits[j]}.
    """
    if type(a) is not type(b):
        raise TypeError(f"mixed solution types: {type(a).__name__} vs {type(b).__name__}")
    pa, pb = _payload(a), _payload(b)
    if len(pa) != len(pb):
        raise ValueError(f"dimension mismatch: {len(pa)} vs {len(pb)}")
    return sum(1 for x, y in zip(pa, pb) if x != y)


class SearchDepth(enum.Enum):
    """A local search's depth: which improving move each of its scans picks."""

    FIRST_IMPROVING = "first"
    BEST_IMPROVING = "best"


class Move(NamedTuple):
    """One neighbourhood move with its exact objective delta.

    kinds: "insert" (permutation: element from_pos -> to_pos) and "transfer"
    (partition: flip element's side; no positions). The move a local-search
    pass applies and a relinking step are both Moves; immutable and hashable.
    """

    kind: str
    element: int
    from_pos: Optional[int] = None
    to_pos: Optional[int] = None
    delta: int = 0


class ProblemInstance(ABC):
    """Immutable problem data plus the hooks the generic search modules drive.

    Concrete adapters provide construction, one neighbourhood scan and the
    relinking steps of a walk.
    """

    n: int

    # first-improving passes draw a random scan offset only when this is set
    randomized_first_improving = False

    @abstractmethod
    def evaluate(self, solution: Solution) -> int:
        """Exact objective of a complete solution."""

    @abstractmethod
    def new_construction(self):
        """Fresh construction builder: rcl(mode, alpha) / add(key) / complete / build().

        rcl(mode, alpha) lists the restricted candidate keys of the next step
        in the order construction draws from; a single key is the greedy
        choice and costs no draw. build() returns the complete solution with
        its exact objective cached: the search evaluates no construction.
        """

    @abstractmethod
    def moves(self, solution: Solution, offset: int, depth: SearchDepth):
        """One neighbourhood scan: the move one local-search pass applies, if any.

        Each problem has one move kind: insert for permutations, transfer
        for partitions. BEST_IMPROVING yields the improving move of largest
        delta, the first in canonical scan order on ties; FIRST_IMPROVING the
        first improving move of that order rotated by offset, where
        supported. Adapters select it with a kernel that builds no Move per
        candidate.
        """

    def best_move(self, solution: Solution) -> Optional[Move]:
        """The improving move of largest delta (ties: first in scan order), or None."""
        return _last(self.moves(solution, 0, SearchDepth.BEST_IMPROVING))

    def first_move(self, solution: Solution, offset: int = 0) -> Optional[Move]:
        """The first improving move in the scan rotated by offset, or None."""
        return _last(self.moves(solution, offset, SearchDepth.FIRST_IMPROVING))

    @abstractmethod
    def apply_move(self, solution: Solution, move: Move) -> None:
        """Apply a move in place, keeping cached_objective consistent; a position
        or vertex outside 0..n-1, which no kernel produces, raises ValueError."""

    def new_walk(self, a: Solution, b: Solution) -> "Walk":
        """A relinking walk that moves a and b in place: the base Walk, which
        needs pr_candidates(current, guiding, k), unless the problem overrides it."""
        return Walk(self, a, b)


class Walk:
    """Relinking steps between two solutions, heads[0] and heads[1].

    ranked(i, k) is the instance's pr_candidates(heads[i], heads[1 - i], k):
    at most k Moves that take heads[i] toward the other head without
    reaching it, by descending delta, ties to the lower element. take(i,
    move) applies one of them to heads[i]. A problem that tracks state
    across steps subclasses it.
    """

    def __init__(self, instance: ProblemInstance, a: Solution, b: Solution):
        self.instance = instance
        self.heads = (a, b)

    def ranked(self, i: int, k: int) -> list[Move]:
        return self.instance.pr_candidates(self.heads[i], self.heads[1 - i], k)

    def take(self, i: int, move: Move) -> None:
        self.instance.apply_move(self.heads[i], move)


def evaluate(instance: ProblemInstance, solution: Solution) -> int:
    """Evaluate and cache the exact objective."""
    if len(_payload(solution)) != instance.n:
        raise ValueError(
            f"dimension mismatch: solution has {len(_payload(solution))} entries, instance has n={instance.n}"
        )
    value = instance.evaluate(solution)
    solution.cached_objective = value
    return value


def _last(moves: Iterable):
    # runs a moves() scan to its end, so it has finished before its move is applied
    chosen = None
    for chosen in moves:
        pass
    return chosen


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # splitmix64 finalizer; used only to derive generator seeds, never as the stream
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


class RandomStream:
    """Seeded, reproducible random stream with explicit substreams.

    The core generator is CPython's Mersenne Twister, which is stable across
    platforms and versions for a fixed integer seed. Substream k reseeds with
    splitmix64(seed + k * golden), matching splitmix64's own stream stepping,
    so a restart gets an unrelated but fully reproducible sequence.

    randrange(n) and pick draw getrandbits(n.bit_length()) until it is below n:
    random.Random.randrange(n)'s own draws on CPython 3.10 and 3.11.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must be in 0..2^64-1, got {seed}")
        self.seed = seed
        self.substream = 0
        self._rng = random.Random(_splitmix64(seed))

    def advance_substream(self) -> None:
        """Jump to the next substream (used by the restart strategy)."""
        self.substream += 1
        self._rng.seed(_splitmix64((self.seed + self.substream * 0x9E3779B97F4A7C15) & _MASK64))

    def random(self) -> float:
        return self._rng.random()

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError(f"empty range for randrange({n})")
        k = n.bit_length()
        r = self._rng.getrandbits(k)
        while r >= n:
            r = self._rng.getrandbits(k)
        return r

    def pick(self, seq: Sequence):
        """Uniform choice; a singleton is returned without consuming a draw.

        The no-draw singleton rule is what makes alpha=0 construction a pure
        function of the instance and rcl_size=1 step selection bit-identical
        to greedy: downstream draws stay aligned.
        """
        if not seq:
            raise IndexError("pick from empty sequence")
        if len(seq) == 1:
            return seq[0]
        return seq[self.randrange(len(seq))]

    def alpha_in(self, low: float, high: float) -> float:
        """Uniform draw from the half-open interval (low, high]; collapsed range draws nothing."""
        if low == high:
            return low
        return high - self._rng.random() * (high - low)

    def weighted_index(self, weights: Sequence[int]) -> int:
        """Index drawn with probability weights[i] / sum(weights); requires a positive total."""
        total = sum(weights)
        if total <= 0:
            raise ValueError("weighted_index needs a positive weight total")
        r = self._rng.random() * total
        acc = 0
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                return i
        return len(weights) - 1  # guard against float edge at r == total
