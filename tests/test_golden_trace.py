"""Golden traces: the solver's search paths, frozen byte for byte.

Each run is a deterministic function of (instance, config, seed) under an
iteration budget, so every RunReport field except the wall-clock times must
reproduce exactly, as must each construction, descent and relink call traced
here. GOLDEN_FILES lists the eight golden files and what each freezes; every
file must equal its payload as the current code computes it, byte for byte,
and refactors and faster kernels must leave them unchanged. Regenerate all
eight (only for a named, justified behaviour change) with

    PYTHONPATH=src python tests/test_golden_trace.py
"""

import hashlib
import itertools
import json
import random
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from grasppr import bench_io, drivers, path_relinking
from grasppr.construction import CARDINALITY, VALUE, RclConfig, construct
from grasppr.core import PartitionSolution, PermutationSolution, RandomStream, SearchDepth, evaluate
from grasppr.local_search import local_search
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance

import oracles

HERE = Path(__file__).resolve().parent
TOY_DIR = HERE.parent / "instances" / "toy"

SEEDS = (1, 2, 3)
ITERATIONS = 25
# a small pool and sample so static relinking runs within the budget
OPTIONS = {"elite-k": "4", "static-sample": "12"}


def _toys():
    for problem in bench_io.PROBLEMS:
        for path in sorted(TOY_DIR.glob(bench_io.INSTANCE_GLOB[problem])):
            yield problem, path


def _trace(report: drivers.RunReport) -> dict:
    return {
        "best_objective": report.best_objective,
        "best_solution": bench_io.serialize_solution(report.best_solution),
        "iterations": report.iterations,
        "restarts": report.restarts,
        "pr_calls": report.pr_calls,
        "pr_improvements": report.pr_improvements,
        "incumbents": [obj for _, obj in report.incumbent_series],
    }


def compute_traces() -> dict:
    traces = {}
    for problem, path in _toys():
        instance = bench_io.load_instance(path, problem)
        for variant in drivers.VARIANTS:
            for seed in SEEDS:
                cfg = bench_io.build_run_config(problem, {"variant": variant, **OPTIONS}, seed, None, ITERATIONS)
                traces[f"{variant}/{path.stem}/{seed}"] = _trace(drivers.run(instance, cfg))
    return {"iterations": ITERATIONS, "options": OPTIONS, "seeds": list(SEEDS), "runs": traces}


def _large_lop() -> LopInstance:
    r = random.Random(50)
    return LopInstance([[0 if i == j else r.randint(0, 99) for j in range(50)] for i in range(50)])


def _large_maxcut() -> MaxCutInstance:
    # G-set-like: n = 800 at 1 % density, weights in [-3, 10]
    r = random.Random(800)
    n = 800
    edges = [(i, j, r.randint(-3, 10)) for i in range(n) for j in range(i + 1, n) if r.random() < 0.01]
    return MaxCutInstance(n, edges)


# (key, problem, instance factory, options, iterations)
LARGE_RUNS = (
    ("evolutionary_pr/lop-n50/1", bench_io.LOP, _large_lop, {"variant": "evolutionary_pr", "elite-k": "2"}, 5),
    ("dynamic_pr/maxcut-n800/1", bench_io.MAXCUT, _large_maxcut, {"variant": "dynamic_pr", "elite-k": "2"}, 3),
)


def compute_large_traces() -> dict:
    traces = {}
    for key, problem, make, options, iterations in LARGE_RUNS:
        cfg = bench_io.build_run_config(problem, options, 1, None, iterations)
        traces[key] = _trace(drivers.run(make(), cfg))
    return traces


# search paths the value-RCL, best-improving traces above never take
PATH_OPTIONS = {"first": {"depth": "first"}, "card": {"rcl-mode": "card"}}
PATH_VARIANTS = (drivers.GRASP, drivers.DYNAMIC_PR)


def compute_path_traces() -> dict:
    traces = {}
    for problem, path in _toys():
        instance = bench_io.load_instance(path, problem)
        for seed in SEEDS:
            for name, extra in PATH_OPTIONS.items():
                for variant in PATH_VARIANTS:
                    options = {"variant": variant, **OPTIONS, **extra}
                    cfg = bench_io.build_run_config(problem, options, seed, None, ITERATIONS)
                    traces[f"{name}/{variant}/{path.stem}/{seed}"] = _trace(drivers.run(instance, cfg))
    for key, problem, make, options, iterations in LARGE_RUNS:
        cfg = bench_io.build_run_config(problem, {**options, "depth": "first"}, 1, None, iterations)
        traces[f"first/{key}"] = _trace(drivers.run(make(), cfg))
    return traces


RESTART_VARIANTS = (drivers.DYNAMIC_PR, drivers.EVOLUTIONARY_PR)
RESTART_KAPPAS = (1, 3)


def compute_restart_traces() -> dict:
    traces = {}
    for problem, path in _toys():
        instance = bench_io.load_instance(path, problem)
        for variant in RESTART_VARIANTS:
            for kappa in RESTART_KAPPAS:
                for seed in SEEDS:
                    options = {"variant": variant, "elite-k": "4", "kappa": str(kappa)}
                    cfg = bench_io.build_run_config(problem, options, seed, None, ITERATIONS)
                    traces[f"kappa{kappa}/{variant}/{path.stem}/{seed}"] = _trace(drivers.run(instance, cfg))
    return traces


def _relink_maxcut() -> MaxCutInstance:
    # +-1 weights, so equal flip gains are common and step tie-breaks matter
    r = random.Random(120)
    n = 120
    edges = [(i, j, r.choice((-1, 1))) for i in range(n) for j in range(i + 1, n) if r.random() < 0.05]
    return MaxCutInstance(n, edges)


def _relink_instances():
    yield "lop-n10-a", bench_io.load_instance(TOY_DIR / "lop-n10-a.mat", bench_io.LOP)
    yield "mc-n12-pm", bench_io.load_instance(TOY_DIR / "mc-n12-pm.el", bench_io.MAXCUT)
    yield "mc-n120", _relink_maxcut()


RELINK_SEEDS = (1, 2)
# (direction, step, truncation, in-path policy): every value a driver or an experiment can set
RELINK_CONFIGS = tuple(
    itertools.product(
        (path_relinking.FORWARD, path_relinking.BACKWARD, path_relinking.BACK_AND_FORWARD, path_relinking.MIXED),
        (path_relinking.GREEDY, path_relinking.GREEDY_RANDOMIZED),
        (1.0, 0.5),
        (path_relinking.LS_NONE, path_relinking.LS_ALL, path_relinking.LS_EVERY, path_relinking.LS_BEST),
    )
)


def _endpoint_pairs(instance, seed):
    """Two random solutions, and the local optima a best-improving descent reaches from them."""
    r = random.Random(seed)
    if isinstance(instance, LopInstance):
        sols = [PermutationSolution(r.sample(range(instance.n), instance.n)) for _ in range(2)]
    else:
        sols = [PartitionSolution([r.randrange(2) for _ in range(instance.n)]) for _ in range(2)]
    for sol in sols:
        evaluate(instance, sol)
    optima = [local_search(instance, sol, SearchDepth.BEST_IMPROVING, RandomStream(seed)) for sol in sols]
    return {"random": sols, "optima": optima}


def compute_relink_traces() -> dict:
    traces = {}
    for name, instance in _relink_instances():
        for seed in RELINK_SEEDS:
            for pair, (s, t) in _endpoint_pairs(instance, seed).items():
                if s == t:
                    continue
                for direction, step, truncation, in_path in RELINK_CONFIGS:
                    cfg = path_relinking.PrConfig(direction=direction, step=step, truncation=truncation, in_path_ls=in_path)
                    rng = RandomStream(seed)
                    ls = lambda sol: local_search(instance, sol, SearchDepth.BEST_IMPROVING, rng)
                    with oracles.record_path(instance) as steps:
                        best, trace = path_relinking.relink(instance, s.copy(), t.copy(), cfg, rng, ls=ls)
                    path = "|".join(f"{bench_io.serialize_solution(sol)}={obj}" for sol, _, obj in steps)
                    objs = [obj for _, _, obj in steps]
                    assert trace.visited == objs
                    traces[f"{name}/{seed}/{pair}/{direction}/{step}/{truncation}/{in_path}"] = {
                        "best_objective": best.cached_objective,
                        "best_solution": bench_io.serialize_solution(best),
                        "steps": len(trace.visited),
                        "path_sha256": hashlib.sha256(path.encode()).hexdigest(),  # visited solutions and objectives
                        "best_index": objs.index(max(objs)) if objs else None,  # the first maximum on the path
                        "rng_after": rng.randrange(2**31),  # the draws the walk consumed
                    }
    return traces


def _construct_lop(n: int, seed: int, low: int, high: int) -> LopInstance:
    r = random.Random(seed)
    return LopInstance([[0 if i == j else r.randint(low, high) for j in range(n)] for i in range(n)])


CONSTRUCT_INSTANCES = (
    ("n2", lambda: _construct_lop(2, 2, -20, 20)),
    ("n30", lambda: _construct_lop(30, 30, 0, 99)),
    ("n30-ties", lambda: _construct_lop(30, 31, 0, 1)),  # equal gains at every step
    ("n30-negative", lambda: _construct_lop(30, 32, -9, -1)),  # g_max < 0: the value RCL falls back
    ("n150", lambda: _construct_lop(150, 150, 0, 99)),
)
CONSTRUCT_ALPHAS = ((0.0, 0.0), (0.0, 0.3), (0.2, 0.7), (1.0, 1.0))
CONSTRUCT_SEEDS = (1, 2)
CONSTRUCTIONS = 3  # consecutive constructions from one stream


def compute_construct_traces() -> dict:
    traces = {}
    for name, make in CONSTRUCT_INSTANCES:
        instance = make()
        for mode in (VALUE, CARDINALITY):
            for low, high in CONSTRUCT_ALPHAS:
                cfg = RclConfig(mode=mode, alpha_low=low, alpha_high=high)
                for seed in CONSTRUCT_SEEDS:
                    rng = RandomStream(seed)
                    sols = [construct(instance, cfg, rng) for _ in range(CONSTRUCTIONS)]
                    orders = "|".join(map(bench_io.serialize_solution, sols))
                    traces[f"{name}/{mode}/{low}-{high}/{seed}"] = {
                        "objectives": [sol.cached_objective for sol in sols],
                        "orders_sha256": hashlib.sha256(orders.encode()).hexdigest(),
                        "rng_after": rng.randrange(2**31),  # the draws the constructions consumed
                    }
    return traces


def _construct_random_maxcut() -> MaxCutInstance:
    # unit weights at 1 % density, like the maxcut-dynpr random graphs
    r = random.Random(801)
    n = 800
    return MaxCutInstance(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n) if r.random() < 0.01])


def _construct_torus() -> MaxCutInstance:
    # 20x40 toroidal grid with +-1 weights: large gain ties, and many steps with g_max = 0
    r = random.Random(2040)
    rows, cols = 20, 40
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            for u in (i * cols + (j + 1) % cols, ((i + 1) % rows) * cols + j):
                edges.append((v, u, r.choice((-1, 1))))
    return MaxCutInstance(rows * cols, edges)


def _construct_signed_maxcut() -> MaxCutInstance:
    # weights in [-5, 5]: late steps have g_max < 0, where the value RCL falls back to the argmax set
    r = random.Random(121)
    n = 120
    return MaxCutInstance(n, [(i, j, r.randint(-5, 5)) for i in range(n) for j in range(i + 1, n) if r.random() < 0.1])


CONSTRUCT_MAXCUT_INSTANCES = (
    ("n800", _construct_random_maxcut),
    ("torus20x40", _construct_torus),
    ("n120-signed", _construct_signed_maxcut),
)


def compute_construct_maxcut_traces() -> dict:
    traces = {}
    for name, make in CONSTRUCT_MAXCUT_INSTANCES:
        instance = make()
        for mode in (VALUE, CARDINALITY):
            for low, high in CONSTRUCT_ALPHAS:
                cfg = RclConfig(mode=mode, alpha_low=low, alpha_high=high)
                for seed in CONSTRUCT_SEEDS:
                    rng = RandomStream(seed)
                    sols = [construct(instance, cfg, rng) for _ in range(CONSTRUCTIONS)]
                    bits = "|".join(map(bench_io.serialize_solution, sols))
                    traces[f"{name}/{mode}/{low}-{high}/{seed}"] = {
                        "objectives": [sol.cached_objective for sol in sols],
                        "bits_sha256": hashlib.sha256(bits.encode()).hexdigest(),
                        "rng_after": rng.randrange(2**31),  # the draws the constructions consumed
                    }
    return traces


class _RecordingLop(LopInstance):
    """A LopInstance that logs every move applied to one of its solutions.

    A descent applies each scan's last yield itself, so that is logged at
    the scan; a walk step is logged at its walk's take.
    """

    def __init__(self, cost):
        super().__init__(cost)
        self.applied = []

    def moves(self, solution, depth, scan):
        move = None
        for move in super().moves(solution, depth, scan):
            yield move
        if move is not None:
            self.applied.append(move)

    def new_walk(self, a, b):
        walk = super().new_walk(a, b)
        take = walk.take

        def recording_take(i, move):
            self.applied.append(move)
            take(i, move)

        walk.take = recording_take
        return walk


def _moves_sha256(moves) -> str:
    # each move as the text insert,e,i,j,d, its kind first as the golden files hash it
    return hashlib.sha256(";".join(",".join(map(str, ("insert", *m))) for m in moves).encode()).hexdigest()


def _descent_lop(n: int) -> _RecordingLop:
    return _RecordingLop(_construct_lop(n, n, 0, 99).cost)


DESCENT_SIZES = (100, 150)
DESCENT_SEEDS = (1, 2)
# (key, n, options, iterations) of one solve whose in-path searches start from walk points
DESCENT_SOLVE = ("evolutionary_pr/n100/1", 100, {"variant": "evolutionary_pr", "elite-k": "4", "inpath-ls": "best"}, 4)


def compute_lop_descent_traces() -> dict:
    traces = {}
    for n in DESCENT_SIZES:
        instance = _descent_lop(n)
        for depth in SearchDepth:
            for seed in DESCENT_SEEDS:
                rng = RandomStream(seed)
                start = construct(instance, RclConfig(), rng)
                instance.applied.clear()
                sol = local_search(instance, start, depth, rng)
                traces[f"n{n}/{depth.value}/{seed}"] = {
                    "start_objective": start.cached_objective,
                    "objective": sol.cached_objective,
                    "moves": len(instance.applied),
                    "moves_sha256": _moves_sha256(instance.applied),  # every move and its delta, in order
                    "order_sha256": hashlib.sha256(bench_io.serialize_solution(sol).encode()).hexdigest(),
                }
    key, n, options, iterations = DESCENT_SOLVE
    instance = _descent_lop(n)
    report = drivers.run(instance, bench_io.build_run_config(bench_io.LOP, options, 1, None, iterations))
    trace = _trace(report)
    trace["best_solution"] = hashlib.sha256(trace["best_solution"].encode()).hexdigest()
    traces[key] = {**trace, "moves": len(instance.applied), "moves_sha256": _moves_sha256(instance.applied)}
    return traces


def _toy_preconditions(expected):
    assert expected["options"] == OPTIONS and expected["iterations"] == ITERATIONS
    runs = expected["runs"]
    # a trace set in which no walk ever runs would freeze nothing about relinking
    for variant in (drivers.STATIC_PR, drivers.DYNAMIC_PR, drivers.EVOLUTIONARY_PR):
        assert sum(r["pr_calls"] for k, r in runs.items() if k.startswith(variant + "/")) > 0, variant


def _large_preconditions(expected):
    # both runs relink, so the walks and in-path searches are frozen too
    assert all(r["pr_calls"] > 0 for r in expected.values())


def _path_preconditions(expected):
    assert sum(r["pr_calls"] for k, r in expected.items() if f"/{drivers.DYNAMIC_PR}/" in k) > 0


def _relink_preconditions(expected):
    # every configuration walks somewhere on every instance
    for name, _ in _relink_instances():
        for config in RELINK_CONFIGS:
            suffix = "/" + "/".join(map(str, config))
            assert any(k.startswith(name + "/") and k.endswith(suffix) and r["steps"] for k, r in expected.items())


def _construct_maxcut_preconditions(expected):
    # the signed graph reaches g_max < 0 in value steps, so the value fallback is frozen too
    signed = _construct_signed_maxcut()
    reference = oracles.RefMaxCut(signed.n, signed.edges)
    for low, high in CONSTRUCT_ALPHAS:
        reference.construct(RclConfig(mode=VALUE, alpha_low=low, alpha_high=high), RandomStream(CONSTRUCT_SEEDS[0]))
    assert reference.steps["fallback"]


def _lop_descent_preconditions(expected):
    # the solve relinks, so its in-path searches are frozen too
    assert expected[DESCENT_SOLVE[0]]["pr_calls"] > 0


def _restart_preconditions(expected):
    # every (kappa, variant) group restarts; with kappa 1 the pool is emptied too often to
    # relink, so each variant relinks after a restart somewhere in its kappa 3 runs
    for kappa in RESTART_KAPPAS:
        for variant in RESTART_VARIANTS:
            group = [r for k, r in expected.items() if k.startswith(f"kappa{kappa}/{variant}/")]
            assert sum(r["restarts"] for r in group) > 0, (kappa, variant)
            if kappa > 1:
                assert sum(r["pr_calls"] for r in group if r["restarts"]) > 0, (kappa, variant)


class Golden(NamedTuple):
    name: str  # the file, in tests/
    compute: Callable[[], dict]  # its payload from the current code
    preconditions: Optional[Callable[[dict], None]]  # what the committed payload must cover to freeze anything


GOLDEN_FILES = (
    # every driver on every bundled toy, with the value RCL and best-improving search
    Golden("golden_trace.json", compute_traces, _toy_preconditions),
    # the toys have n <= 14, so two larger runs: a LOP n = 50 matrix and a max-cut
    # n = 800 graph, both generated here from fixed seeds
    Golden("golden_trace_large.json", compute_large_traces, _large_preconditions),
    # the cardinality RCL and first-improving search on the toys, and the two
    # larger runs with first-improving search
    Golden("golden_trace_paths.json", compute_path_traces, _path_preconditions),
    # single relink calls over every direction, step rule, truncation and in-path
    # policy, on a LOP toy, a max-cut toy and a generated max-cut graph with n = 120;
    # oracles.record_path records their visited solutions
    Golden("golden_trace_relink.json", compute_relink_traces, _relink_preconditions),
    # semi-greedy LOP constructions alone (n = 2, 30 and 150, both RCL modes,
    # collapsed and open alpha ranges), which the driver runs start from a value RCL only
    Golden("golden_trace_construct.json", compute_construct_traces, None),
    # the same for max-cut: a random n = 800 graph, a 20x40 +-1 torus and a signed
    # n = 120 graph on which the value RCL falls back
    Golden("golden_trace_construct_maxcut.json", compute_construct_maxcut_traces, _construct_maxcut_preconditions),
    # every move of best- and first-improving LOP descents from semi-greedy constructions
    # at n = 100 and 150, and of one n = 100 evolutionary_pr solve with best-point in-path search
    Golden("golden_trace_lop_descent.json", compute_lop_descent_traces, _lop_descent_preconditions),
    # the dynamic and evolutionary drivers with stagnation restarts (kappa 1 and 3)
    # on the toys, which no other golden file enables
    Golden("golden_trace_restarts.json", compute_restart_traces, _restart_preconditions),
)


def _text(payload: dict) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def _first_difference(expected, actual, keys=()) -> Optional[tuple]:
    """The keys down to the first difference between two JSON values, in sorted key order, or None."""
    if not (isinstance(expected, dict) and isinstance(actual, dict)):
        return None if expected == actual else keys
    for key in sorted(expected.keys() | actual.keys()):
        if key not in expected or key not in actual:
            return (*keys, key)
        found = _first_difference(expected[key], actual[key], (*keys, key))
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("golden", GOLDEN_FILES, ids=lambda golden: golden.name)
def test_golden_file_reproduces(golden):
    path = HERE / golden.name
    assert path.is_file(), f"{golden.name} is missing"
    committed = path.read_bytes().decode()
    expected = json.loads(committed)
    if golden.preconditions:
        golden.preconditions(expected)
    text = _text(golden.compute())
    if text != committed:
        keys = _first_difference(expected, json.loads(text))
        pytest.fail(f"{golden.name} differs first at {keys}" if keys is not None else f"{golden.name}: same values, other text")


def test_golden_files_on_disk_are_the_table():
    assert sorted(path.name for path in HERE.glob("golden_trace*.json")) == sorted(golden.name for golden in GOLDEN_FILES)


if __name__ == "__main__":
    for golden in GOLDEN_FILES:
        (HERE / golden.name).write_bytes(_text(golden.compute()).encode())
        print(f"wrote {HERE / golden.name}")
