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

    Runs instance.descend(sol, depth, rng, should_stop) on a copy of start,
    evaluated first if start carries no objective; ProblemInstance.descend
    states the passes, the RuntimeError on a non-improving move and
    should_stop. Best-improving applies the maximum-delta move each pass
    (ties: first in scan order) and consumes no rng. First-improving applies
    the first improving move per scan; for problems that declare
    randomized_first_improving a fresh scan offset is drawn each pass so the
    scan is not biased toward low vertex ids. A depth that is not a
    SearchDepth raises ValueError. Only the descent moves the copy, so the
    instance may hold its search state (a max-cut GainTable) across passes.
    """
    sol = start.copy()
    if sol.cached_objective is None:
        evaluate(instance, sol)
    if not isinstance(depth, SearchDepth):
        raise ValueError(f"depth must be a SearchDepth, not {depth!r}")
    instance.descend(sol, depth, rng, should_stop)
    return sol
