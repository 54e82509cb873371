"""GRASP with path relinking for linear ordering and max-cut instances."""

__version__ = "0.1.0"

from .bench_io import load_instance
from .construction import CARDINALITY, VALUE, RclConfig, construct
from .core import (
    Move,
    PartitionSolution,
    PermutationSolution,
    ProblemInstance,
    RandomStream,
    SearchDepth,
    Solution,
    delta,
    evaluate,
)
from .drivers import VARIANTS, RunConfig, RunReport, run
from .elite_set import AddResult, EliteSet
from .local_search import local_search
from .lop import LopInstance
from .maxcut import MaxCutInstance
from .path_relinking import PrConfig, relink

__all__ = [
    "AddResult",
    "CARDINALITY",
    "EliteSet",
    "LopInstance",
    "MaxCutInstance",
    "Move",
    "PartitionSolution",
    "PermutationSolution",
    "PrConfig",
    "ProblemInstance",
    "RandomStream",
    "RclConfig",
    "RunConfig",
    "RunReport",
    "SearchDepth",
    "Solution",
    "VALUE",
    "VARIANTS",
    "construct",
    "delta",
    "evaluate",
    "load_instance",
    "local_search",
    "relink",
    "run",
]
