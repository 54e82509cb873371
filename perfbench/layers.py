"""Which functions the traced run times, and the per-layer metrics made from the spans."""

from __future__ import annotations

import statistics

from .tracer import GENERATOR, SHIP, Hook, Span, Tracer, percentile, self_times

LS = "local_search.local_search"
RELINK = "path_relinking.relink"
MOVES = ("lop.moves", "maxcut.moves")
# p90 needs at least ten samples beyond it
P90_MIN_CALLS = 100


def _observe_local_search(tracer: Tracer, args: tuple, result) -> None:
    start = args[1]
    if start.cached_objective is not None:
        tracer.counts["ls.gain"] += result.cached_objective - start.cached_objective
        tracer.counts["ls.gain_calls"] += 1
    if tracer.parent_name() == RELINK:
        tracer.counts["ls.in_relink"] += 1


def _observe_relink(tracer: Tracer, args: tuple, result) -> None:
    _, trace = result
    tracer.counts["pr.trace_copies"] += len(trace.visited)


def _observe_try_add(tracer: Tracer, args: tuple, result) -> None:
    tracer.counts["elite.added" if result.added else f"elite.reject.{result.reason}"] += 1


def _observe_run(tracer: Tracer, args: tuple, report) -> None:
    tracer.counts["pr.calls"] += report.pr_calls
    tracer.counts["pr.improvements"] += report.pr_improvements


# Each hook replaces the name its callers look up at call time. drivers.run is
# looked up both by the benchmark (grasppr.drivers.run) and by run_cell
# (grasppr.bench_io.run), hence two hooks under one metric name.
HOOKS = [
    Hook("bench_io.load_instance", "grasppr.bench_io", "load_instance"),
    Hook("bench_io.run_cell", "grasppr.bench_io", "run_cell", SHIP),
    Hook("drivers.run", "grasppr.drivers", "run", observe=_observe_run),
    Hook("drivers.run", "grasppr.bench_io", "run", observe=_observe_run),
    Hook("construction.construct", "grasppr.drivers", "construct"),
    Hook(LS, "grasppr.drivers", "local_search", observe=_observe_local_search),
    Hook(RELINK, "grasppr.drivers", "relink", observe=_observe_relink),
    Hook("elite_set.try_add", "grasppr.elite_set", "EliteSet.try_add", observe=_observe_try_add),
    Hook("elite_set.select_guide", "grasppr.elite_set", "EliteSet.select_guide"),
    Hook("elite_set.next_unrelinked_pair", "grasppr.elite_set", "EliteSet.next_unrelinked_pair"),
    Hook("lop.moves", "grasppr.lop", "LopInstance.moves", GENERATOR),
    Hook("maxcut.moves", "grasppr.maxcut", "MaxCutInstance.moves", GENERATOR),
    Hook("lop.pr_candidates", "grasppr.lop", "LopInstance.pr_candidates"),
    Hook("maxcut.pr_candidates", "grasppr.maxcut", "MaxCutInstance.pr_candidates"),
    Hook("maxcut.GainTable", "grasppr.maxcut", "GainTable.__init__"),
]

FUNCTIONS = list(dict.fromkeys(h.name for h in HOOKS))
# the functions called at least P90_MIN_CALLS times in a traced pass of some workload
P90_FUNCTIONS = (
    "construction.construct",
    LS,
    "lop.moves",
    "maxcut.moves",
    "lop.pr_candidates",
    "maxcut.pr_candidates",
    "maxcut.GainTable",
)

# derived metrics, each with the hooks it is computed from
DERIVED = {
    "local_search.passes_per_call": (LS,) + MOVES,
    "local_search.gain_per_call": (LS,),
    "local_search.in_relink_share": (LS, RELINK),
    "path_relinking.steps_per_walk": (RELINK,),
    "path_relinking.trace_copies": (RELINK,),
    "path_relinking.improve_ratio": ("drivers.run",),
    "elite_set.admit_ratio": ("elite_set.try_add",),
    "elite_set.reject.quality": ("elite_set.try_add",),
    "elite_set.reject.duplicate": ("elite_set.try_add",),
    "elite_set.reject.diversity": ("elite_set.try_add",),
}

UNITS = {"calls": "count", "self_s": "s", "share": "ratio", "ms.p50": "ms", "ms.p90": "ms"}
DERIVED_UNITS = {
    "local_search.passes_per_call": "count",
    "local_search.gain_per_call": "objective",
    "local_search.in_relink_share": "ratio",
    "path_relinking.steps_per_walk": "count",
    "path_relinking.trace_copies": "count",
    "path_relinking.improve_ratio": "ratio",
    "elite_set.admit_ratio": "ratio",
    "elite_set.reject.quality": "count",
    "elite_set.reject.duplicate": "count",
    "elite_set.reject.diversity": "count",
    "bench_io.run_grid.parallel_eff": "ratio",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    # an empty base (the layer never ran on this workload) reads as 0
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, capacity_s: float) -> tuple[dict, float]:
    """Per-function and derived metrics, per traced pass, plus the untraced remainder.

    capacity_s is the traced wall time times the number of processes that
    ran traced code (the grid's worker count, otherwise 1). The self times
    of all spans plus the returned remainder add up to it.
    """
    spans: list[Span] = tracer.finished()
    selfs = self_times(spans)
    out = {}
    for name in FUNCTIONS:
        if name in tracer.missing:
            continue
        durations = [s.end - s.start for s in spans if s.name == name]
        self_s = sum(t for s, t in zip(spans, selfs) if s.name == name)
        out[f"{name}.calls"] = len(durations) / passes
        out[f"{name}.self_s"] = self_s / passes
        out[f"{name}.share"] = _ratio(self_s, capacity_s)
        out[f"{name}.ms.p50"] = 1000 * statistics.median(durations) if durations else 0.0
        if name in P90_FUNCTIONS:
            out[f"{name}.ms.p90"] = 1000 * percentile(durations, 90) if len(durations) >= P90_MIN_CALLS else 0.0

    c = tracer.counts
    ls_calls = sum(1 for s in spans if s.name == LS)
    walks = sum(1 for s in spans if s.name == RELINK)
    scans = sum(1 for s in spans if s.name in MOVES and s.parent is not None and spans[s.parent].name == LS)
    tries = sum(1 for s in spans if s.name == "elite_set.try_add")
    derived = {
        "local_search.passes_per_call": _ratio(scans, ls_calls),
        "local_search.gain_per_call": _ratio(c["ls.gain"], c["ls.gain_calls"]),
        "local_search.in_relink_share": _ratio(c["ls.in_relink"], ls_calls),
        "path_relinking.steps_per_walk": _ratio(c["pr.trace_copies"], walks),
        "path_relinking.trace_copies": c["pr.trace_copies"] / passes,
        "path_relinking.improve_ratio": _ratio(c["pr.improvements"], c["pr.calls"]),
        "elite_set.admit_ratio": _ratio(c["elite.added"], tries),
        "elite_set.reject.quality": c["elite.reject.quality"] / passes,
        "elite_set.reject.duplicate": c["elite.reject.duplicate"] / passes,
        "elite_set.reject.diversity": c["elite.reject.diversity"] / passes,
    }
    for name, needs in DERIVED.items():
        if not any(n in tracer.missing for n in needs):
            out[name] = derived[name]
    return out, capacity_s - sum(selfs)


def unit_of(metric: str) -> str:
    if metric in DERIVED_UNITS:
        return DERIVED_UNITS[metric]
    for suffix, unit in UNITS.items():
        if metric.endswith("." + suffix):
            return unit
    raise KeyError(metric)
