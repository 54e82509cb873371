"""Hill climbing, first- or best-improving: a copy of the start, climbed by the problem's descend."""

from __future__ import annotations

from typing import Callable, Optional

from .core import ProblemInstance, RandomStream, SearchDepth, Solution, evaluate


def local_search(
    instance: ProblemInstance,
    start: Solution,
    depth: SearchDepth,
    rng: RandomStream,
    should_stop: Optional[Callable[[], bool]] = None,
) -> Solution:
    """Climb from start until no improving move remains; start is not mutated.

    Runs instance.descend(sol, depth, rng, should_stop) on a copy of start,
    evaluated first if start carries no objective; ProblemInstance.descend
    states the passes, the RuntimeError on a non-improving move and
    should_stop, and each problem's descent its offset draws and the search
    state it holds. A depth that is not a SearchDepth raises ValueError.
    """
    sol = start.copy()
    if sol.cached_objective is None:
        evaluate(instance, sol)
    if not isinstance(depth, SearchDepth):
        raise ValueError(f"depth must be a SearchDepth, not {depth!r}")
    instance.descend(sol, depth, rng, should_stop)
    return sol
