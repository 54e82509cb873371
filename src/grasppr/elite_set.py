"""Bounded pool of high-quality, mutually diverse solutions for relinking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import RandomStream, Solution, delta as delta_size

UNIFORM = "uniform"
PROPORTIONAL_DELTA = "pdelta"


@dataclass
class AddResult:
    added: bool
    reason: Optional[str] = None  # quality | duplicate | diversity when rejected


class EliteSet:
    """Admission follows two phases.

    Fill-up (below capacity): a candidate enters iff it is at least
    diversity_threshold away from every member; a candidate failing that but
    strictly better than every member closer than the threshold replaces all
    of them (keeping the fill-up pairwise diversity invariant). The first
    solution is always admitted.

    Full: better than the best member always enters; better than the worst
    enters if not identical to any member. Admission evicts the closest
    strictly-worse member (ties: lower objective, then lowest index).

    Members are the pool's private copies of admitted solutions, each scored
    by its cached_objective.
    """

    def __init__(self, capacity: int = 10, diversity_threshold: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if diversity_threshold < 1:
            raise ValueError("diversity_threshold must be >= 1")
        self.capacity = capacity
        self.diversity_threshold = diversity_threshold
        self._members: list[Solution] = []
        # pairs of member ids; _drop and clear forget a member's pairs with it, so
        # no key outlives its member and an address reused later starts unmarked
        self._relinked: set[frozenset[int]] = set()

    @property
    def members(self) -> list[tuple[Solution, int]]:
        """(solution, objective) pairs in index order; treat as read-only."""
        return [(m, m.cached_objective) for m in self._members]

    def clear(self) -> None:
        self._members.clear()
        self._relinked.clear()

    def _drop(self, member: Solution) -> None:
        self._members = [m for m in self._members if m is not member]
        self._relinked = {pair for pair in self._relinked if id(member) not in pair}

    def try_add(self, solution: Solution) -> AddResult:
        """Offer solution, scored by its cached_objective; an admitted candidate is copied."""
        objective = solution.cached_objective
        if objective is None:
            raise ValueError("candidate has no objective")

        if len(self._members) < self.capacity:
            near = [m for m in self._members if delta_size(solution, m) < self.diversity_threshold]
            if not all(objective > m.cached_objective for m in near):
                return AddResult(False, reason="diversity")
            for m in near:
                self._drop(m)
        else:
            objectives = [m.cached_objective for m in self._members]
            if objective <= min(objectives):
                return AddResult(False, reason="quality")
            if objective <= max(objectives) and any(delta_size(solution, m) == 0 for m in self._members):
                return AddResult(False, reason="duplicate")
            # evict the closest member among those strictly worse than the candidate
            worse = [(i, m) for i, m in enumerate(self._members) if m.cached_objective < objective]
            _, victim = min(worse, key=lambda im: (delta_size(im[1], solution), im[1].cached_objective, im[0]))
            self._drop(victim)
        self._members.append(solution.copy())
        return AddResult(True)

    def select_guide(self, reference: Solution, policy: str, rng: RandomStream) -> Optional[Solution]:
        """Pick a relinking guide for reference; None when no usable candidate.

        uniform ignores distances; pdelta draws proportionally to the symmetric
        difference, so identical members are never selected and an all-identical
        set yields None.
        """
        if not self._members:
            raise ValueError("elite set is empty")
        if policy == UNIFORM:
            return rng.pick(self._members)
        if policy != PROPORTIONAL_DELTA:
            raise ValueError(f"unknown guide policy: {policy!r}")
        deltas = [delta_size(m, reference) for m in self._members]
        if not any(deltas):
            return None
        if len(self._members) == 1:
            return self._members[0]
        return self._members[rng.weighted_index(deltas)]

    def next_unrelinked_pair(self) -> Optional[tuple[Solution, Solution]]:
        """First member pair (lowest index order) not yet relinked; marks it."""
        for i, a in enumerate(self._members):
            for b in self._members[i + 1 :]:
                key = frozenset((id(a), id(b)))
                if key not in self._relinked:
                    self._relinked.add(key)
                    return a, b
        return None

