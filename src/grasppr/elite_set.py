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


@dataclass(eq=False)  # identity: relinked pairs are sets of members
class _Member:
    solution: Solution
    objective: int


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
    """

    def __init__(self, capacity: int = 10, diversity_threshold: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if diversity_threshold < 1:
            raise ValueError("diversity_threshold must be >= 1")
        self.capacity = capacity
        self.diversity_threshold = diversity_threshold
        self._members: list[_Member] = []
        self._relinked: set[frozenset[_Member]] = set()

    @property
    def members(self) -> list[tuple[Solution, int]]:
        """(solution, objective) pairs in index order; treat as read-only."""
        return [(m.solution, m.objective) for m in self._members]

    def clear(self) -> None:
        self._members.clear()
        self._relinked.clear()

    def _admit(self, solution: Solution, objective: int) -> None:
        self._members.append(_Member(solution.copy(), objective))

    def _drop(self, member: _Member) -> None:
        self._members.remove(member)
        self._relinked = {pair for pair in self._relinked if member not in pair}

    def try_add(self, solution: Solution) -> AddResult:
        """Offer solution, scored by its cached_objective; an admitted candidate is copied."""
        objective = solution.cached_objective
        if objective is None:
            raise ValueError("candidate has no objective")

        if len(self._members) < self.capacity:
            near = [m for m in self._members if delta_size(solution, m.solution) < self.diversity_threshold]
            if not near:
                self._admit(solution, objective)
                return AddResult(True)
            if all(objective > m.objective for m in near):
                for m in near:
                    self._drop(m)
                self._admit(solution, objective)
                return AddResult(True)
            return AddResult(False, reason="diversity")

        objectives = [m.objective for m in self._members]
        if objective <= min(objectives):
            return AddResult(False, reason="quality")
        if objective <= max(objectives) and any(delta_size(solution, m.solution) == 0 for m in self._members):
            return AddResult(False, reason="duplicate")

        # evict the closest member among those strictly worse than the candidate
        worse = [(i, m) for i, m in enumerate(self._members) if m.objective < objective]
        _, victim = min(worse, key=lambda im: (delta_size(im[1].solution, solution), im[1].objective, im[0]))
        self._drop(victim)
        self._admit(solution, objective)
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
            return rng.pick([m.solution for m in self._members])
        if policy != PROPORTIONAL_DELTA:
            raise ValueError(f"unknown guide policy: {policy!r}")
        deltas = [delta_size(m.solution, reference) for m in self._members]
        if not any(deltas):
            return None
        if len(self._members) == 1:
            return self._members[0].solution
        return self._members[rng.weighted_index(deltas)].solution

    def next_unrelinked_pair(self) -> Optional[tuple[Solution, Solution]]:
        """First member pair (lowest index order) not yet relinked; marks it."""
        for i in range(len(self._members)):
            for j in range(i + 1, len(self._members)):
                key = frozenset((self._members[i], self._members[j]))
                if key not in self._relinked:
                    self._relinked.add(key)
                    return self._members[i].solution, self._members[j].solution
        return None

