"""Host-speed probe used to express timings at a fixed reference speed.

The shared host this benchmark was written on switches between a fast and a
slow state every few seconds; identical work takes up to 1.7x longer in the
slow state, in CPU time as well as wall time. The probe is a few milliseconds
of pure-Python work made of the benchmark's own frozen code (no solver code),
timed right before and after each operation. An operation's time is scaled
by NOMINAL_S over the mean of its two probe times. On lop-evpr at one seed,
over six windows of three passes each, this cut the spread of the summed
solve times (interquartile range over median) from 0.21 to 0.07.
"""

from __future__ import annotations

import time

from . import generators as gen

# a small matrix and graph that stay in cache, and a larger pair that does not:
# the small pair tracks the LOP kernels best, the large one the max-cut walks
_SMALL = (gen.mb_lop(0, "probe", 48), list(range(48)), gen.random_maxcut(0, "probe", 400, 0.04), [v & 1 for v in range(400)])
_LARGE = (gen.mb_lop(0, "probe-l", 160), list(range(160)), gen.random_maxcut(0, "probe-l", 3000, 0.003), [v & 1 for v in range(3000)])

# median probe time on a 2-CPU x86-64 cloud VM with CPython 3.11
NOMINAL_S = 0.008


def probe_seconds() -> float:
    started = time.perf_counter()
    for matrix, order, graph, bits, repeats in (_SMALL + (16,), _LARGE + (1,)):
        for _ in range(repeats):
            gen.lop_objective(matrix, order)
            gen.maxcut_objective(graph, bits)
            gen.maxcut_objective(graph, bits)
    return time.perf_counter() - started


class Scaler:
    """Probes between consecutive operations; each operation gets the mean of its neighbours."""

    def __init__(self):
        self.last = probe_seconds()

    def start_factor(self) -> float:
        """Scale for the first moments of the next operation, from the probe just before it."""
        return NOMINAL_S / self.last

    def factor(self) -> float:
        """Scale for the operation that just ended (probe before it and now)."""
        now = probe_seconds()
        factor = NOMINAL_S / ((self.last + now) / 2)
        self.last = now
        return factor
