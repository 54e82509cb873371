#!/usr/bin/env python3
"""Regenerate the bundled toy instances under instances/toy/.

Everything is seeded, so reruns are byte-identical. Sizes are picked to keep
the whole benchmark suite runnable on a laptop in seconds. The files are
written by the package's own serializers, so run it with the package
importable, e.g. `PYTHONPATH=src python3 scripts/make_toy_instances.py`.
"""

import random
from pathlib import Path

from grasppr import LopInstance, MaxCutInstance, bench_io

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "instances" / "toy"


def lop_matrix(n: int, seed: int, lo: int = 0, hi: int = 99) -> list[list[int]]:
    r = random.Random(seed)
    return [[0 if i == j else r.randint(lo, hi) for j in range(n)] for i in range(n)]


def write_lop(name: str, cost: list[list[int]]) -> None:
    (OUT / f"{name}.mat").write_text(bench_io.serialize_lolib(LopInstance(cost), name))


def random_graph(n: int, p: float, seed: int, weights: tuple[int, int]) -> list[tuple[int, int, int]]:
    r = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if r.random() < p:
                edges.append((i, j, r.randint(*weights)))
    return edges


def random_signed_graph(n: int, p: float, seed: int) -> list[tuple[int, int, int]]:
    r = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if r.random() < p:
                edges.append((i, j, r.choice((-1, 1))))
    return edges


def write_maxcut(name: str, n: int, edges: list[tuple[int, int, int]]) -> None:
    (OUT / f"{name}.el").write_text(bench_io.serialize_edge_list(MaxCutInstance(n, edges)))


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)

    write_lop("lop-n08-a", lop_matrix(8, seed=101))
    write_lop("lop-n10-a", lop_matrix(10, seed=102))
    write_lop("lop-n12-a", lop_matrix(12, seed=103))
    # mixed-sign costs: exercises the negative-threshold construction path
    write_lop("lop-n10-neg", lop_matrix(10, seed=104, lo=-50, hi=50))

    write_maxcut("mc-n10-unit", 10, random_graph(10, 0.5, seed=201, weights=(1, 1)))
    write_maxcut("mc-n12-unit", 12, random_graph(12, 0.5, seed=202, weights=(1, 1)))
    write_maxcut("mc-n14-w", 14, random_graph(14, 0.4, seed=203, weights=(1, 10)))
    # signed +-1 weights
    write_maxcut("mc-n12-pm", 12, random_signed_graph(12, 0.6, seed=204))

    for path in sorted(OUT.iterdir()):
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
