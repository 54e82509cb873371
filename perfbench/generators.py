"""Seeded instance generators for the benchmark.

Every generator draws from a ``random.Random`` seeded with a string built
from the workload seed and the instance name, so one (seed, name) pair always
gives the same numbers and, through the writers below, byte-identical files.
The solver only ever sees the written files; the benchmark keeps the
generated data to check results independently of the solver's own code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class LopData:
    name: str
    matrix: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class MaxCutData:
    name: str
    n: int
    edges: tuple[tuple[int, int, int], ...]  # 0-based (u, v, w), u < v, no repeats


def instance_rng(seed: int, name: str) -> random.Random:
    # str seeds are hashed with SHA-512, stable across CPython versions
    return random.Random(f"perfbench:{seed}:{name}")


def mb_lop(seed: int, name: str, n: int) -> LopData:
    """Linear ordering matrix in the style of the Mitchell-Borchers library.

    Entries above the diagonal are drawn from [0, 99] and below it from
    [0, 39], so the identity order is good but not optimal; rows and columns
    are then permuted together to hide it.
    """
    rng = instance_rng(seed, name)
    raw = [[0 if i == j else rng.randrange(100 if i < j else 40) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = tuple(tuple(raw[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    return LopData(name, matrix)


def random_maxcut(seed: int, name: str, n: int, density: float) -> MaxCutData:
    """G-set-shaped random graph: round(density * n(n-1)/2) distinct unit-weight edges."""
    rng = instance_rng(seed, name)
    m = round(density * n * (n - 1) / 2)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return MaxCutData(name, n, tuple((u, v, 1) for u, v in sorted(chosen)))


def torus_maxcut(seed: int, name: str, rows: int, cols: int) -> MaxCutData:
    """Toroidal rows x cols grid with weights drawn from {-1, +1}, as in the G-set's G11-G13."""
    if rows < 3 or cols < 3:
        raise ValueError("a torus needs at least 3 rows and 3 columns to avoid repeated edges")
    rng = instance_rng(seed, name)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for u in (r * cols + (c + 1) % cols, ((r + 1) % rows) * cols + c):
                edges.append((min(u, v), max(u, v), rng.choice((-1, 1))))
    return MaxCutData(name, rows * cols, tuple(sorted(edges)))


def lop_text(data: LopData) -> str:
    """LOLIB layout: name line, n, then one matrix row per line."""
    lines = [data.name, str(data.n)]
    lines.extend(" ".join(map(str, row)) for row in data.matrix)
    return "\n".join(lines) + "\n"


def maxcut_text(data: MaxCutData) -> str:
    """Edge-list layout: "n m" header, then "u v w" lines with 1-based endpoints."""
    lines = [f"{data.n} {len(data.edges)}"]
    lines.extend(f"{u + 1} {v + 1} {w}" for u, v, w in data.edges)
    return "\n".join(lines) + "\n"


def lop_objective(data: LopData, order: list[int]) -> int:
    """Sum of matrix entries above the diagonal under `order`, computed from the generated data."""
    matrix = data.matrix
    total = 0
    for i, a in enumerate(order):
        row = matrix[a]
        for b in order[i + 1 :]:
            total += row[b]
    return total


def maxcut_objective(data: MaxCutData, bits: list[int]) -> int:
    """Total weight of edges whose endpoints sit on different sides."""
    return sum(w for u, v, w in data.edges if bits[u] != bits[v])


def lop_upper_bound(data: LopData) -> int:
    """Every pair contributes at most the larger of its two entries."""
    m = data.matrix
    return sum(max(m[i][j], m[j][i]) for i in range(data.n) for j in range(i + 1, data.n))


def maxcut_upper_bound(data: MaxCutData) -> int:
    """A cut gains at most every positive edge weight."""
    return sum(w for _, _, w in data.edges if w > 0)
