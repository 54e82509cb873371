"""Hill climbing over a problem-defined neighbourhood, first- or best-improving."""

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

    Each pass asks the instance for one move (best_move or first_move).
    Best-improving applies the maximum-delta move each pass (ties: first in
    scan order) and consumes no rng. First-improving applies the first
    improving move per scan; for problems that declare
    randomized_first_improving a fresh scan offset is drawn each pass so the
    scan is not biased toward low vertex ids. A move that does not improve
    raises RuntimeError: the instance's kernel is wrong, and applying the
    move could cycle forever. A depth that is not a SearchDepth raises
    ValueError. should_stop, if given, is called before every pass; once it
    returns true the climb stops and returns where it stands.
    """
    sol = start.copy()
    if sol.cached_objective is None:
        evaluate(instance, sol)
    best = depth is SearchDepth.BEST_IMPROVING
    if not best and depth is not SearchDepth.FIRST_IMPROVING:
        raise ValueError(f"depth must be a SearchDepth, not {depth!r}")
    while should_stop is None or not should_stop():
        if best:
            move = instance.best_move(sol)
        else:
            offset = rng.randrange(instance.n) if instance.randomized_first_improving else 0
            move = instance.first_move(sol, offset)
        if move is None:
            return sol
        if move.delta <= 0:
            raise RuntimeError(f"{depth.value}_move returned a non-improving move: {move}")
        instance.apply_move(sol, move)
    return sol
