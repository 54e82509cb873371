"""Top-level search: multi-start GRASP and its relinking hybrids, one run().

All variants run one loop: construct, improve, update the incumbent. The
hybrids differ only in when solutions enter the elite pool and when pairs
get relinked. A private _Run holds the incumbent, the pool, the random
stream and the relinking counters; the loop keeps its own counts. A restart
(dynamic_pr and evolutionary_pr with restart_kappa set) follows
restart_kappa iterations in a row without a new incumbent: it empties the
pool and jumps the stream to its next substream, and the next elite_k
iterations seed the pool again. The incumbent and its series survive.
A time limit is checked between iterations and, through should_stop, before
every local-search pass and walk step. Control flow never reads the clock
unless a time limit is set, so fixed seed + fixed iteration_limit gives
bit-identical reports.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional

from .construction import RclConfig, construct
from .core import ProblemInstance, RandomStream, SearchDepth, Solution
from .elite_set import PROPORTIONAL_DELTA, UNIFORM, EliteSet
from .local_search import local_search
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
        if not 0 <= self.seed < 2**64:  # as RandomStream does, but before any work starts
            raise ValueError(f"seed must be in 0..2^64-1, got {self.seed}")
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
        if not isinstance(self.depth, SearchDepth):
            raise ValueError(f"depth must be a SearchDepth, not {self.depth!r}")
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


class _Run:
    """What one run's steps share: the incumbent, the pool, the stream, the relinking counters."""

    def __init__(self, instance: ProblemInstance, cfg: RunConfig):
        self.instance = instance
        self.cfg = cfg
        self.rng = RandomStream(cfg.seed)
        d_th = cfg.d_th if cfg.d_th is not None else default_diversity_threshold(instance.n)
        self.elite = EliteSet(cfg.elite_k, d_th)
        self.started = time.monotonic()
        self.deadline = None if cfg.time_limit is None else self.started + cfg.time_limit
        # None without a time limit, so local_search and relink never call it
        self.should_stop = None if self.deadline is None else functools.partial(_past, self.deadline)
        self.best_solution: Optional[Solution] = None
        self.incumbent_series: list[tuple[float, int]] = []
        self.pr_calls = 0
        self.pr_improvements = 0

    def offer(self, sol: Solution) -> None:
        obj = sol.cached_objective
        if self.best_solution is None or obj > self.best_solution.cached_objective:
            self.best_solution = sol.copy()
            self.incumbent_series.append((time.monotonic() - self.started, obj))

    def improve(self, sol: Solution) -> Solution:
        return local_search(self.instance, sol, self.cfg.depth, self.rng, should_stop=self.should_stop)

    def relink_pair(self, a: Solution, b: Solution) -> Solution:
        """Relink a with b, locally search the outcome, update the incumbent."""
        self.pr_calls += 1
        best, _ = relink(self.instance, a, b, self.cfg.pr, self.rng, ls=self.improve, should_stop=self.should_stop)
        result = self.improve(best)
        if result.cached_objective > max(a.cached_objective, b.cached_objective):
            self.pr_improvements += 1
        self.offer(result)
        return result


def _past(deadline: Optional[float]) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def run(instance: ProblemInstance, cfg: RunConfig) -> RunReport:
    """Run the variant cfg.variant names.

    semigreedy: construction only. grasp: construction plus local search.
    static_pr: static_sample grasp iterations fill the pool, then its pairs
    are relinked. dynamic_pr: each locally optimal solution is relinked with
    a guide from the pool as the run goes. evolutionary_pr: a dynamic phase
    (half the time limit, if set), then the pool is relinked to exhaustion.
    """
    r = _Run(instance, cfg)
    dynamic = cfg.variant in (DYNAMIC_PR, EVOLUTIONARY_PR)
    limit = cfg.iteration_limit if cfg.iteration_limit is not None else math.inf
    if cfg.variant == STATIC_PR:
        limit = min(limit, cfg.static_sample)
    deadline = phase_end = r.deadline
    if deadline is not None and cfg.variant == EVOLUTIONARY_PR:
        phase_end = r.started + cfg.time_limit / 2.0
    iterations = epoch = stagnation = restarts = 0
    # the first iteration always runs, however tight the clock
    while iterations < limit and (iterations == 0 or not _past(phase_end)):
        iterations += 1
        epoch += 1
        before = r.best_solution
        sol = construct(instance, cfg.rcl, r.rng)
        if cfg.variant != SEMIGREEDY:
            sol = r.improve(sol)
        r.offer(sol)
        if cfg.variant == STATIC_PR or (dynamic and epoch <= cfg.elite_k):
            # every static sample enters the pool; a dynamic pool is seeded by
            # the first k iterations of each epoch, and as duplicates may be
            # rejected, relinking starts on schedule even if the pool is small
            r.elite.try_add(sol)
        elif dynamic:
            guide = r.elite.select_guide(sol, cfg.guide_policy, r.rng)
            if guide is not None and guide != sol:  # else nothing to relink against
                r.elite.try_add(r.relink_pair(sol, guide))
        stagnation = 0 if r.best_solution is not before else stagnation + 1
        if cfg.restart_kappa is not None and stagnation >= cfg.restart_kappa:
            r.elite.clear()
            r.rng.advance_substream()
            epoch = stagnation = 0
            restarts += 1

    if cfg.variant in (STATIC_PR, EVOLUTIONARY_PR):
        # Relink unrelinked pool pairs, lowest indices first, until none is
        # left. A static pool is frozen, so each pair is relinked once.
        # Evolutionary outcomes are resubmitted, and each admission spawns
        # fresh pairs; the loop still ends, because every admission strictly
        # raises the pool's objective multiset, which lives in a finite space.
        while not _past(deadline):
            pair = r.elite.next_unrelinked_pair()
            if pair is None:
                break
            result = r.relink_pair(*pair)
            if cfg.variant == EVOLUTIONARY_PR:
                r.elite.try_add(result)
    return RunReport(
        best_solution=r.best_solution,
        best_objective=r.best_solution.cached_objective,
        incumbent_series=r.incumbent_series,
        iterations=iterations,
        restarts=restarts,
        pr_calls=r.pr_calls,
        pr_improvements=r.pr_improvements,
        elapsed_s=time.monotonic() - r.started,
    )
