"""The benchmark's tracer hooks name functions the package still has.

perfbench/layers.py's HOOKS replace package names with timing wrappers when
the benchmark traces a run. A hook whose target was renamed away is skipped
there and its per-layer metrics vanish, and a generator timed as a plain call
records only the generator's creation. These checks read HOOKS without
installing them.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import HOOKS  # noqa: E402
from perfbench.tracer import GENERATOR  # noqa: E402


@pytest.mark.parametrize("hook", HOOKS, ids=lambda hook: f"{hook.module}.{hook.attr}")
def test_hook_target_resolves_to_a_function_of_its_kind(hook):
    target = importlib.import_module(hook.module)
    for part in hook.attr.split("."):
        target = getattr(target, part)
    assert inspect.isfunction(target)
    assert inspect.isgeneratorfunction(target) == (hook.kind == GENERATOR)
