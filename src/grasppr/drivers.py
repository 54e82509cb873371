"""Top-level search drivers: multi-start GRASP and its relinking hybrids.

All drivers share one bookkeeping object (DriverState) and one iteration
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
    restart_kappa: Optional[int] = None  # stagnation restarts; None disables
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


def _new_state(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream]) -> DriverState:
    if rng is None:
        rng = RandomStream(cfg.seed)
    d_th = cfg.d_th if cfg.d_th is not None else default_diversity_threshold(instance.n)
    started = time.monotonic()
    deadline = started + cfg.time_limit if cfg.time_limit is not None else None
    return DriverState(instance, cfg, rng, EliteSet(cfg.elite_k, d_th), started, deadline)


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


def _grasp_iteration(state: DriverState, with_ls: bool = True) -> Solution:
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


def _require_variant(cfg: RunConfig, variant: str) -> None:
    if cfg.variant != variant:
        raise ValueError(f"config variant is {cfg.variant!r}, driver expects {variant!r}")


def run_semigreedy(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Construction-only multi-start, the no-local-search baseline."""
    _require_variant(cfg, SEMIGREEDY)
    state = _new_state(instance, cfg, rng)
    while _should_iterate(state):
        state.iterations += 1
        state.improved_this_iteration = False
        _grasp_iteration(state, with_ls=False)
    return _report(state)


def run_grasp(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Plain multi-start: semi-greedy construction plus local search."""
    _require_variant(cfg, GRASP)
    state = _new_state(instance, cfg, rng)
    while _should_iterate(state):
        state.iterations += 1
        state.improved_this_iteration = False
        _grasp_iteration(state)
    return _report(state)


def _dynamic_iteration(state: DriverState) -> None:
    sol = _grasp_iteration(state)
    if state.epoch_iterations <= state.cfg.elite_k:
        # the first k iterations of each epoch seed the pool; duplicates may
        # be rejected, so relinking starts on schedule even if the pool is small
        state.elite.try_add(sol)
        return
    guide = state.elite.select_guide(sol, state.cfg.guide_policy, state.rng)
    if guide is None or guide == sol:
        return  # nothing to relink against
    result = _relink_pipeline(state, sol, guide)
    state.elite.try_add(result)


def _dynamic_loop(state: DriverState, phase_deadline: Optional[float] = None) -> None:
    while _should_iterate(state, phase_deadline):
        state.iterations += 1
        state.epoch_iterations += 1
        state.improved_this_iteration = False
        _dynamic_iteration(state)
        _close_iteration(state)


def run_dynamic_pr(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Relink each locally optimal solution with the pool as the run goes."""
    _require_variant(cfg, DYNAMIC_PR)
    state = _new_state(instance, cfg, rng)
    _dynamic_loop(state)
    return _report(state)


def run_static_pr(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Sample first, relink later: the pool is frozen before any relinking."""
    _require_variant(cfg, STATIC_PR)
    state = _new_state(instance, cfg, rng)
    while _should_iterate(state) and state.iterations < cfg.static_sample:
        state.iterations += 1
        state.improved_this_iteration = False
        sol = _grasp_iteration(state)
        state.elite.try_add(sol)
    # relink every unordered pair once; outcomes are never resubmitted
    members = state.elite.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if _time_up(state):
                return _report(state)
            _relink_pipeline(state, members[i][0], members[j][0])
    return _report(state)


def run_evolutionary_pr(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Dynamic phase, then relink the pool to exhaustion.

    Post-phase admissions spawn fresh unrelinked pairs, so the loop keeps
    going until the pool stops changing. Termination is guaranteed: every
    admission strictly raises the pool's objective multiset, which lives in
    a finite space.
    """
    _require_variant(cfg, EVOLUTIONARY_PR)
    state = _new_state(instance, cfg, rng)
    phase_deadline = None
    if cfg.time_limit is not None:
        phase_deadline = state.started + cfg.time_limit / 2.0
    _dynamic_loop(state, phase_deadline)
    while not _time_up(state):
        pair = state.elite.next_unrelinked_pair()
        if pair is None:
            break
        result = _relink_pipeline(state, pair[0], pair[1])
        state.elite.try_add(result)
    return _report(state)


_DISPATCH = {
    SEMIGREEDY: run_semigreedy,
    GRASP: run_grasp,
    STATIC_PR: run_static_pr,
    DYNAMIC_PR: run_dynamic_pr,
    EVOLUTIONARY_PR: run_evolutionary_pr,
}


def run(instance: ProblemInstance, cfg: RunConfig, rng: Optional[RandomStream] = None) -> RunReport:
    """Dispatch on cfg.variant."""
    return _DISPATCH[cfg.variant](instance, cfg, rng)
