"""Path relinking: interior walks in four directions, truncation and a minimum
distance guard.

Interior steps are restricted to moves that strictly reduce the symmetric
difference to the guiding solution and the guiding solution itself is never
re-visited. For partitions every flip of a differing position qualifies; for
permutations the insertion of a misplaced element into its guiding position
is filtered by that rule, so a walk can stop early when only non-reducing
insertions remain (e.g. the two endpoints differ by a non-adjacent
transposition).

Each problem owns its walk (ProblemInstance.new_walk): every step asks it
for at most k ranked Moves, k = 1 for greedy and rcl_size for grpr, and
applies the one rng.pick chooses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import ProblemInstance, RandomStream, Solution, Walk, delta as delta_size, evaluate

FORWARD = "forward"
BACKWARD = "backward"
BACK_AND_FORWARD = "back_and_forward"
MIXED = "mixed"
_DIRECTIONS = (FORWARD, BACKWARD, BACK_AND_FORWARD, MIXED)

GREEDY = "greedy"
GREEDY_RANDOMIZED = "grpr"

LS_NONE = "none"
LS_ALL = "all"
LS_EVERY = "every"
LS_BEST = "best"


@dataclass
class PrConfig:
    direction: str = FORWARD
    step: str = GREEDY
    rcl_size: int = 3  # candidate moves kept per step under grpr selection
    truncation: float = 1.0  # fraction rho of the full path walked, per directional segment
    min_distance: int = 4  # below this symmetric difference relinking is skipped
    in_path_ls: str = LS_NONE
    ls_every: int = 5

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"unknown direction: {self.direction!r}")
        if self.step not in (GREEDY, GREEDY_RANDOMIZED):
            raise ValueError(f"unknown step selection: {self.step!r}")
        if self.rcl_size < 1:
            raise ValueError("rcl_size must be >= 1")
        if not (0.0 < self.truncation <= 1.0):
            raise ValueError("truncation must be in (0, 1]")
        if self.min_distance < 0:
            raise ValueError("min_distance must be >= 0")
        if self.in_path_ls not in (LS_NONE, LS_ALL, LS_EVERY, LS_BEST):
            raise ValueError(f"unknown in-path local search policy: {self.in_path_ls!r}")
        if self.ls_every < 1:
            raise ValueError("ls_every must be >= 1")


@dataclass
class PathTrace:
    """The objectives of the solutions visited between (never including) the endpoints, in order."""

    visited: list[int] = field(default_factory=list)


def _walk(
    walk: Walk,
    alternate: bool,
    budget: int,
    cfg: PrConfig,
    rng: RandomStream,
    visit: Callable[[Solution], None],
    should_stop: Optional[Callable[[], bool]],
) -> None:
    # heads[0] moves toward heads[1]; with alternate the roles reverse after
    # every accepted step (mixed). Each moving head gets `budget` steps, and
    # the walk ends early once should_stop returns true before a step.
    # Greedy ranks one move and rng.pick of a single move draws nothing.
    k = 1 if cfg.step == GREEDY else cfg.rcl_size
    steps = [0, 0]
    mover = 0
    while steps[mover] < budget and (should_stop is None or not should_stop()):
        ranked = walk.ranked(mover, k)
        if not ranked:
            return
        walk.take(mover, rng.pick(ranked))
        steps[mover] += 1
        visit(walk.heads[mover])
        if alternate:
            mover = 1 - mover


def relink(
    instance: ProblemInstance,
    s: Solution,
    t: Solution,
    cfg: PrConfig,
    rng: RandomStream,
    ls: Optional[Callable[[Solution], Solution]] = None,
    should_stop: Optional[Callable[[], bool]] = None,
) -> tuple[Solution, PathTrace]:
    """Relink s and t; returns (best solution found, trace of the path walked).

    Roles are resolved by objective: forward initiates from the worse endpoint,
    backward from the better one, back_and_forward concatenates a backward and
    a forward pass, mixed alternates heads. The returned best is the maximum
    over the better endpoint, the visited solutions, and any in-path local
    search outputs (the trace records the raw path's objectives only). ls is
    the in-path local search, required unless cfg.in_path_ls is none; best
    runs it once, from the first visited solution of largest objective.
    should_stop, if given, is called before every walk step; once it returns
    true no further step is taken and the best found so far is returned.
    """
    if type(s) is not type(t):
        raise TypeError("mismatched solution types")
    if s == t:
        raise ValueError("relink endpoints must differ")
    if ls is None and cfg.in_path_ls != LS_NONE:
        raise ValueError(f"in-path local search {cfg.in_path_ls!r} needs ls")

    fs, ft = (evaluate(instance, x) if x.cached_objective is None else x.cached_objective for x in (s, t))
    better, worse = (s, t) if fs >= ft else (t, s)
    # best is the better endpoint, a peak copy or an in-path search output;
    # none of them changes later, so it is copied once, on return. best is
    # never below the peak, so a visit that is no new peak cannot improve it
    best = better
    peak: Optional[Solution] = None  # a copy of the first visited solution of largest objective
    trace = PathTrace()

    dsize = delta_size(s, t)
    if dsize < cfg.min_distance:
        return best.copy(), trace

    def offer(sol: Solution) -> None:
        nonlocal best
        if sol.cached_objective > best.cached_objective:
            best = sol

    def visit(sol: Solution) -> None:
        nonlocal peak
        trace.visited.append(sol.cached_objective)
        if peak is None or sol.cached_objective > peak.cached_objective:
            peak = sol.copy()
            offer(peak)
        if cfg.in_path_ls == LS_ALL or (
            cfg.in_path_ls == LS_EVERY and len(trace.visited) % cfg.ls_every == 0
        ):
            offer(ls(sol))

    budget = math.ceil(cfg.truncation * (dsize - 1))
    if cfg.direction == MIXED:
        _walk(instance.new_walk(worse.copy(), better.copy()), True, budget, cfg, rng, visit, should_stop)
    if cfg.direction in (BACKWARD, BACK_AND_FORWARD):
        _walk(instance.new_walk(better.copy(), worse), False, budget, cfg, rng, visit, should_stop)
    if cfg.direction in (FORWARD, BACK_AND_FORWARD):
        _walk(instance.new_walk(worse.copy(), better), False, budget, cfg, rng, visit, should_stop)

    if peak is not None and cfg.in_path_ls == LS_BEST:
        offer(ls(peak))
    return best.copy(), trace
