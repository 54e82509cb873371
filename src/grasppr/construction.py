"""Semi-greedy construction with value- and cardinality-restricted candidate lists."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .core import ProblemInstance, RandomStream, Solution

VALUE = "value"
CARDINALITY = "cardinality"


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


def _value_threshold(g_max: int, alpha: float) -> int:
    # an int gain g passes g >= t exactly when g >= ceil(t): the same RCLs
    return math.ceil((1.0 - alpha) * g_max)


def _cardinality_cut(size: int, alpha: float) -> int:
    return 1 + math.floor(alpha * (size - 1))


def rcl_from_columns(keys: Sequence, gains: Sequence[int], mode: str, alpha: float) -> list:
    """The RCL of one step over candidate keys in ascending order and their gains.

    The value RCL keeps the keys with g >= (1 - alpha) * g_max, applied
    literally; the cardinality RCL keeps the p_max = 1 + floor(alpha * (|CL| - 1))
    most attractive keys, ties to the lowest key. alpha == 0 gives the lowest
    key of the argmax set alone, so the step is deterministic greedy and draws
    nothing. With g_max < 0 and alpha > 0 the literal threshold rises above
    g_max and empties the value RCL; it then falls back to the argmax set so
    construction stays total. Each rule is one pass over the columns.
    """
    g_max = max(gains)
    if alpha == 0.0:
        return [keys[gains.index(g_max)]]
    if mode == VALUE:
        threshold = _value_threshold(g_max, alpha)
        literal = [k for k, g in zip(keys, gains) if g >= threshold]
        return literal or [k for k, g in zip(keys, gains) if g == g_max]
    ranked = sorted(range(len(keys)), key=gains.__getitem__, reverse=True)  # stable: ties keep key order
    return list(map(keys.__getitem__, ranked[: _cardinality_cut(len(keys), alpha)]))


def rcl_from_buckets(buckets: dict[int, list], size: int, mode: str, alpha: float) -> list:
    """rcl_from_columns over candidates kept as {gain: keys sorted ascending}.

    size is the number of keys in all buckets. A value step costs about the
    number of buckets when one bucket passes the threshold (or the g_max < 0
    fallback takes the top bucket): that bucket is the RCL, returned as is,
    without a copy. Only a step that takes several buckets merges their keys.
    The returned list may therefore be the caller's own bucket: read it
    before the buckets change again, and never mutate it.
    """
    g_max = max(buckets)
    if alpha == 0.0:
        return [buckets[g_max][0]]
    if mode == VALUE:
        threshold = _value_threshold(g_max, alpha)
        taken = [keys for g, keys in buckets.items() if g >= threshold]
        if len(taken) > 1:
            return sorted(chain.from_iterable(taken))
        return taken[0] if taken else buckets[g_max]
    return top_of_buckets(buckets, _cardinality_cut(size, alpha))


def top_of_buckets(buckets: dict[int, list], p: int) -> list:
    """The p keys of largest gain in {gain: keys sorted ascending}, by
    descending gain with ties to the lower key; every key if there are
    fewer. It costs about the number of buckets for p == 1, and a sort of
    the gains otherwise: the cardinality RCL, and a max-cut walk's ranked
    steps."""
    if p == 1:
        return [buckets[max(buckets)][0]]
    out: list = []
    for g in sorted(buckets, reverse=True):
        out += buckets[g][: p - len(out)]
        if len(out) == p:
            break
    return out


def construct(instance: ProblemInstance, cfg: RclConfig, rng: RandomStream) -> Solution:
    """One semi-greedy construction: repeatedly pick uniformly from the RCL.

    Each problem runs the whole loop itself (ProblemInstance.construct), with
    each step's RCL by the rules of rcl_from_columns; with alpha == 0 every
    step is deterministic greedy, making the whole construction a pure
    function of the instance.
    """
    return instance.construct(cfg, rng)
