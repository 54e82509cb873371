"""Top-level search: multi-start GRASP and its relinking hybrids, one run().

All variants share one bookkeeping object (DriverState) and one iteration
shape: construct, improve, update the incumbent. The hybrids differ only in
when solutions enter the elite pool and when pairs of solutions get relinked.
Control flow never branches on wall-clock values unless a time limit is set,
so fixed seed + fixed iteration_limit gives bit-identical reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .construction import RclConfig, construct
from .core import ProblemInstance, RandomStream, Solution, evaluate
from .elite_set import PROPORTIONAL_DELTA, UNIFORM, EliteSet
from .local_search import SearchDepth, local_search
from .path_relinking import PrConfig, relink

SEMIGREEDY = "semigreedy"
GRASP = "grasp"
STATIC_PR = "static_pr"
DYNAMIC_PR = "dynamic_pr"
EVOLUTIONARY_PR = "evolutionary_pr"
VARIANTS = (SEMIGREEDY, GRASP, STATIC_PR, DYNAMIC_PR, EVOLUTIONARY_PR)


def default_diversity_threshold(n: int) -> int:
    """Pool admission distance: 5 percent of the solution length, at least 1."""
    return max(1, math.ceil(n / 20))


@dataclass
class RunConfig:
    variant: str = GRASP
    seed: int = 1
    time_limit: Optional[float] = None
    iteration_limit: Optional[int] = None
    restart_kappa: Optional[int] = None  # stagnation restarts of the dynamic loop; None disables
    rcl: RclConfig = field(default_factory=RclConfig)
    depth: SearchDepth = SearchDepth.BEST_IMPROVING
    pr: PrConfig = field(default_factory=PrConfig)
    elite_k: int = 10
    d_th: Optional[int] = None  # None resolves to default_diversity_threshold(n)
    guide_policy: str = UNIFORM
    static_sample: int = 100  # constructions feeding the pool before static relinking

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant: {self.variant!r}")
        if self.time_limit is None and self.iteration_limit is None:
            raise ValueError("need a time_limit or an iteration_limit")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.time_limit is not None and not math.isfinite(self.time_limit):
            raise ValueError("time_limit must be finite")
        if self.iteration_limit is not None and self.iteration_limit < 1:
            raise ValueError("iteration_limit must be >= 1")
        if self.restart_kappa is not None and self.restart_kappa < 1:
            raise ValueError("restart_kappa must be >= 1")
        if self.elite_k < 1:
            raise ValueError("elite_k must be >= 1")
        if self.d_th is not None and self.d_th < 1:
            raise ValueError("d_th must be >= 1")
        if self.guide_policy not in (UNIFORM, PROPORTIONAL_DELTA):
            raise ValueError(f"unknown guide policy: {self.guide_policy!r}")
        if self.static_sample < 1:
            raise ValueError("static_sample must be >= 1")
        if self.restart_kappa is not None and self.variant not in (DYNAMIC_PR, EVOLUTIONARY_PR):
            raise ValueError(f"restart_kappa applies only to {DYNAMIC_PR} and {EVOLUTIONARY_PR}, not {self.variant}")


@dataclass
class RunReport:
    best_solution: Solution
    best_objective: int
    incumbent_series: list[tuple[float, int]]  # (elapsed seconds, objective)
    iterations: int
    restarts: int
    pr_calls: int
    pr_improvements: int
    elapsed_s: float


@dataclass
class DriverState:
    """Mutable bookkeeping for one run; maybe_restart operates on this."""

    instance: ProblemInstance
    cfg: RunConfig
    rng: RandomStream
    elite: EliteSet
    started: float
    deadline: Optional[float]
    best_solution: Optional[Solution] = None
    best_objective: Optional[int] = None
    incumbent_series: list[tuple[float, int]] = field(default_factory=list)
    iterations: int = 0
    restarts: int = 0
    pr_calls: int = 0
    pr_improvements: int = 0
    stagnation: int = 0  # iterations since the incumbent last improved
    epoch_iterations: int = 0  # iterations since the last restart
    improved_this_iteration: bool = False


def _new_state(instance: ProblemInstance, cfg: RunConfig) -> DriverState:
    d_th = cfg.d_th if cfg.d_th is not None else default_diversity_threshold(instance.n)
    started = time.monotonic()
    deadline = started + cfg.time_limit if cfg.time_limit is not None else None
    return DriverState(instance, cfg, RandomStream(cfg.seed), EliteSet(cfg.elite_k, d_th), started, deadline)


def _should_iterate(state: DriverState, phase_deadline: Optional[float] = None) -> bool:
    if state.cfg.iteration_limit is not None and state.iterations >= state.cfg.iteration_limit:
        return False
    if state.iterations == 0:
        return True  # always complete one iteration, however tight the clock
    if state.deadline is not None and time.monotonic() >= state.deadline:
        return False
    if phase_deadline is not None and time.monotonic() >= phase_deadline:
        return False
    return True


def _time_up(state: DriverState) -> bool:
    return state.deadline is not None and time.monotonic() >= state.deadline


def _offer_incumbent(state: DriverState, sol: Solution) -> None:
    obj = sol.cached_objective
    if state.best_objective is None or obj > state.best_objective:
        state.best_solution = sol.copy()
        state.best_objective = obj
        state.incumbent_series.append((time.monotonic() - state.started, obj))
        state.improved_this_iteration = True


def _improve(state: DriverState, sol: Solution) -> Solution:
    return local_search(state.instance, sol, state.cfg.depth, state.rng)


def _grasp_iteration(state: DriverState, with_ls: bool) -> Solution:
    sol = construct(state.instance, state.cfg.rcl, state.rng)
    if sol.cached_objective is None:
        evaluate(state.instance, sol)
    if with_ls:
        sol = _improve(state, sol)
    _offer_incumbent(state, sol)
    return sol


def _relink_pipeline(state: DriverState, a: Solution, b: Solution) -> Solution:
    """Relink a with b, locally search the outcome, update the incumbent."""
    state.pr_calls += 1
    best, _ = relink(state.instance, a, b, state.cfg.pr, state.rng, ls=lambda s: _improve(state, s))
    result = _improve(state, best)
    if result.cached_objective > max(a.cached_objective, b.cached_objective):
        state.pr_improvements += 1
    _offer_incumbent(state, result)
    return result


def maybe_restart(state: DriverState, kappa: int) -> bool:
    """Restart once kappa iterations have passed without incumbent improvement.

    A restart empties the elite pool and jumps the rng to a fresh substream;
    the incumbent and its series survive. Returns True when it fired.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    if state.stagnation < kappa:
        return False
    state.elite.clear()
    state.rng.advance_substream()
    state.stagnation = 0
    state.epoch_iterations = 0
    state.restarts += 1
    return True


def _close_iteration(state: DriverState) -> None:
    if state.improved_this_iteration:
        state.stagnation = 0
    else:
        state.stagnation += 1
    if state.cfg.restart_kappa is not None:
        maybe_restart(state, state.cfg.restart_kappa)


def _report(state: DriverState) -> RunReport:
    if state.best_solution is None:
        raise RuntimeError("driver finished without completing an iteration")
    return RunReport(
        best_solution=state.best_solution,
        best_objective=state.best_objective,
        incumbent_series=list(state.incumbent_series),
        iterations=state.iterations,
        restarts=state.restarts,
        pr_calls=state.pr_calls,
        pr_improvements=state.pr_improvements,
        elapsed_s=time.monotonic() - state.started,
    )


def run(instance: ProblemInstance, cfg: RunConfig) -> RunReport:
    """Run the variant cfg.variant names.

    semigreedy: construction only. grasp: construction plus local search.
    static_pr: static_sample grasp iterations fill the pool, then its pairs
    are relinked. dynamic_pr: each locally optimal solution is relinked with
    a guide from the pool as the run goes. evolutionary_pr: a dynamic phase
    (half the time limit, if set), then the pool is relinked to exhaustion.
    """
    state = _new_state(instance, cfg)
    dynamic = cfg.variant in (DYNAMIC_PR, EVOLUTIONARY_PR)
    sample = cfg.static_sample if cfg.variant == STATIC_PR else math.inf
    phase_deadline = None
    if cfg.variant == EVOLUTIONARY_PR and cfg.time_limit is not None:
        phase_deadline = state.started + cfg.time_limit / 2.0
    while _should_iterate(state, phase_deadline) and state.iterations < sample:
        state.iterations += 1
        state.epoch_iterations += 1
        state.improved_this_iteration = False
        sol = _grasp_iteration(state, with_ls=cfg.variant != SEMIGREEDY)
        if cfg.variant == STATIC_PR or (dynamic and state.epoch_iterations <= cfg.elite_k):
            # every static sample enters the pool; a dynamic pool is seeded by
            # the first k iterations of each epoch, and as duplicates may be
            # rejected, relinking starts on schedule even if the pool is small
            state.elite.try_add(sol)
        elif dynamic:
            guide = state.elite.select_guide(sol, cfg.guide_policy, state.rng)
            if guide is not None and guide != sol:  # else nothing to relink against
                state.elite.try_add(_relink_pipeline(state, sol, guide))
        _close_iteration(state)

    if cfg.variant in (STATIC_PR, EVOLUTIONARY_PR):
        # Relink unrelinked pool pairs, lowest indices first, until none is
        # left. A static pool is frozen, so each pair is relinked once.
        # Evolutionary outcomes are resubmitted, and each admission spawns
        # fresh pairs; the loop still ends, because every admission strictly
        # raises the pool's objective multiset, which lives in a finite space.
        while not _time_up(state):
            pair = state.elite.next_unrelinked_pair()
            if pair is None:
                break
            result = _relink_pipeline(state, *pair)
            if cfg.variant == EVOLUTIONARY_PR:
                state.elite.try_add(result)
    return _report(state)
