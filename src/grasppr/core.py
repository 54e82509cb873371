"""Problem-agnostic building blocks: solutions, the problem interface, seeded RNG.

Each problem writes its own climb (ProblemInstance.descend) and relinking
walk (new_walk), so that each holds that problem's search state.

Objectives are exact Python ints throughout (maximization); no floats enter the
solver core. The instance constructors judge every value that reaches an
instance: each given weight, and each merged max-cut weight, must fit 32 bits,
so that any objective sum fits comfortably in 64 bits. A parser's located
reread re-judges a malformed text (dimensions, counts, 32-bit tokens, vertex
ranges, self-loops) only to place its first fault; the differential tests in
tests/test_bench_io.py hold the two in agreement.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import ne
from typing import Callable, NamedTuple, Optional, Sequence

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
    return sum(map(ne, pa, pb))


class SearchDepth(enum.Enum):
    """A local search's depth: which improving move each of its scans picks."""

    FIRST_IMPROVING = "first"
    BEST_IMPROVING = "best"


class Move(NamedTuple):
    """One neighbourhood move with its exact objective delta.

    An insert moves a permutation's element from from_pos to to_pos; a
    transfer flips a partition's element, with no positions. The move a
    local-search pass applies and a relinking step are both Moves.
    """

    element: int
    from_pos: Optional[int] = None
    to_pos: Optional[int] = None
    delta: int = 0


class ProblemInstance(ABC):
    """Immutable problem data and the hooks the search drives: evaluate,
    construct, descend and new_walk."""

    n: int

    @abstractmethod
    def evaluate(self, solution: Solution) -> int:
        """Exact objective of a complete solution."""

    @abstractmethod
    def construct(self, rcl, rng: "RandomStream") -> Solution:
        """One semi-greedy construction, its exact objective cached: the search
        evaluates no construction. rcl is a construction.RclConfig.

        Each step draws alpha with rng.alpha_in(rcl.alpha_low, rcl.alpha_high),
        then one key with rng.pick from the step's restricted candidate list,
        ordered as construction.rcl_from_columns lists it; a single key is the
        greedy choice and costs no draw.
        """

    @abstractmethod
    def descend(
        self, solution: Solution, depth: SearchDepth, rng: "RandomStream", should_stop: Optional[Callable[[], bool]]
    ) -> None:
        """Climb in place from an evaluated solution until no improving move remains.

        Each pass finishes one neighbourhood scan before it applies the move
        the scan picks; a scan that picks nothing ends the descent. Each
        problem has one move: an insert for permutations, a transfer for
        partitions. BEST_IMPROVING picks the improving move of largest
        delta, the first in scan order on ties; FIRST_IMPROVING the first
        improving move of that order rotated by a drawn offset, where
        supported. A move that does not improve raises RuntimeError, since
        applying it could cycle forever.
        should_stop, if given, is called before every pass; once it returns
        true the climb stops where it stands. solution is local_search's
        private copy, so the descent holds its search state across passes.
        """

    @abstractmethod
    def new_walk(self, a: Solution, b: Solution):
        """A relinking walk that moves a and b, its heads[0] and heads[1], in place.

        ranked(i, k) returns at most k Moves that take heads[i] toward the
        other head without reaching it, by descending delta, ties to the
        lower element; take(i, move) applies one of them to heads[i] and
        adds its delta to the cached_objective that relink set first.
        """


def evaluate(instance: ProblemInstance, solution: Solution) -> int:
    """Evaluate and cache the exact objective."""
    if len(_payload(solution)) != instance.n:
        raise ValueError(
            f"dimension mismatch: solution has {len(_payload(solution))} entries, instance has n={instance.n}"
        )
    value = instance.evaluate(solution)
    solution.cached_objective = value
    return value


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
    so a restart gets an unrelated but fully reproducible sequence. A seed
    outside 0..2^64-1 raises ValueError, so that no seed runs another's stream.

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
