"""The benchmark's tracer hooks name functions the package still has.

perfbench/layers.py's HOOKS replace package names with timing wrappers when
the benchmark traces a run. A hook whose target was renamed away is skipped
there and its per-layer metrics vanish, and a generator timed as a plain call
records only the generator's creation. The first check reads HOOKS; the
second installs them for two small solves, as a traced benchmark run does.
"""

import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

import pytest

from grasppr import bench_io, drivers
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import HOOKS  # noqa: E402
from perfbench.tracer import GENERATOR, Tracer  # noqa: E402

# the hooks the benchmark's traced smoke run requires to be called: the four
# layers, and the kernels of its LOP and max-cut search workloads
REQUIRED = (
    "construction.construct",
    "local_search.local_search",
    "path_relinking.relink",
    "elite_set.try_add",
    "lop.moves",
    "lop.pr_candidates",
    "maxcut.moves",
    "maxcut.pr_candidates",
    "maxcut.GainTable",
)


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: f"{hook.module}.{hook.attr}")
def test_hook_target_resolves_to_a_function_of_its_kind(hook):
    target = importlib.import_module(hook.module)
    for part in hook.attr.split("."):
        target = getattr(target, part)
    assert inspect.isfunction(target)
    assert inspect.isgeneratorfunction(target) == (hook.kind == GENERATOR)


def test_traced_solves_call_every_required_hook():
    # a search that stops calling a hooked kernel, say a walk that ranks its
    # steps without pr_candidates, leaves that kernel's span count at 0. Each
    # problem's relinking walks also feed the harness's step count, which it
    # reads from relink's trace: one copy per walk step
    r = oracles.make_rng(76)
    lop = LopInstance(oracles.rand_lop_matrix(r, 10))
    maxcut = MaxCutInstance(20, oracles.rand_edges(r, 20, 0.4, -5, 9))
    tracer = Tracer()
    tracer.install(HOOKS)
    try:
        for problem, instance, variant in ((bench_io.LOP, lop, "evolutionary_pr"), (bench_io.MAXCUT, maxcut, "dynamic_pr")):
            options = {"variant": variant, "elite-k": "2"}
            copies = tracer.counts["pr.trace_copies"]
            report = drivers.run(instance, bench_io.build_run_config(problem, options, 1, None, 6))
            assert report.pr_calls > 0, variant
            assert tracer.counts["pr.trace_copies"] > copies, variant
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    calls = Counter(span.name for span in tracer.finished())
    assert [name for name in REQUIRED if calls[name] == 0] == []
