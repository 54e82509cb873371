"""Semi-greedy construction with value- and cardinality-restricted candidate lists."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import ProblemInstance, RandomStream, Solution

VALUE = "value"
CARDINALITY = "cardinality"


class ConstructionError(RuntimeError):
    pass


@dataclass
class RclConfig:
    """How the restricted candidate list is built each construction step.

    alpha is drawn uniformly from (alpha_low, alpha_high] at every step.
    alpha == 0 is pure greedy, alpha == 1 pure random. A collapsed range
    (low == high) fixes alpha and consumes no draws.
    """

    mode: str = VALUE
    alpha_low: float = 0.0
    alpha_high: float = 0.3

    def __post_init__(self):
        if self.mode not in (VALUE, CARDINALITY):
            raise ValueError(f"unknown RCL mode: {self.mode!r}")
        if not (0.0 <= self.alpha_low <= self.alpha_high <= 1.0):
            raise ValueError(f"alpha range must satisfy 0 <= low <= high <= 1, got [{self.alpha_low}, {self.alpha_high}]")


def build_rcl_value(entries: Sequence[tuple], alpha: float) -> list:
    """Keys of candidates with g(v) >= (1 - alpha) * g_max, applied literally.

    With g_max < 0 and alpha > 0 the threshold rises above g_max and the
    literal set is empty; construct() falls back to the greedy argmax set in
    that case so construction stays total.
    """
    if not entries:
        raise ConstructionError("empty candidate list")
    g_max = max(g for _, g in entries)
    threshold = (1.0 - alpha) * g_max
    return [key for key, g in entries if g >= threshold]


def build_rcl_cardinality(entries: Sequence[tuple], alpha: float) -> list:
    """Keys of the p_max = 1 + floor(alpha * (|CL| - 1)) most attractive candidates.

    Boundary ties are resolved by lowest key so the cut is deterministic.
    """
    if not entries:
        raise ConstructionError("empty candidate list")
    p_max = 1 + math.floor(alpha * (len(entries) - 1))
    ranked = sorted(entries, key=lambda e: (-e[1], e[0]))
    return [key for key, _ in ranked[:p_max]]


def _greedy_keys(entries: Sequence[tuple]) -> list:
    g_max = max(g for _, g in entries)
    return [key for key, g in entries if g == g_max]


def construct(instance: ProblemInstance, cfg: RclConfig, rng: RandomStream) -> Solution:
    """One semi-greedy construction: repeatedly pick uniformly from the RCL.

    With alpha == 0 the step degenerates to deterministic greedy (lowest key
    among the argmax set, no draw), making the whole construction a pure
    function of the instance.
    """
    builder = instance.new_construction()
    while not builder.complete:
        entries = builder.candidates()
        if not entries:
            raise ConstructionError("empty candidate list")
        alpha = rng.alpha_in(cfg.alpha_low, cfg.alpha_high)
        if alpha == 0.0:
            key = min(_greedy_keys(entries))
        else:
            if cfg.mode == VALUE:
                rcl = build_rcl_value(entries, alpha)
                if not rcl:  # literal threshold emptied the list (g_max < 0)
                    rcl = _greedy_keys(entries)
            else:
                rcl = build_rcl_cardinality(entries, alpha)
            key = rng.pick(rcl)
        builder.add(key)
    return builder.build()
