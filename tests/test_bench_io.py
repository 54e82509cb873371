import io
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr.bench_io import (
    BenchError,
    CellSpec,
    OptionError,
    ParseError,
    RunRow,
    aggregate_best,
    build_run_config,
    compute_stats,
    emit_profile,
    load_instance,
    parse_edge_list,
    parse_lolib,
    read_best_known,
    run_cell,
    run_grid,
    serialize_edge_list,
    serialize_lolib,
    serialize_solution,
    write_results_csv,
    write_stats_csv,
)
from grasppr.construction import CARDINALITY
from grasppr.core import PartitionSolution, PermutationSolution, evaluate
from grasppr.drivers import RunReport
from grasppr.local_search import SearchDepth
from grasppr.lop import LopInstance
from grasppr.maxcut import MaxCutInstance
from grasppr.path_relinking import BACK_AND_FORWARD

import oracles


def test_parse_lolib_minimal():
    inst = parse_lolib("t\n2\n0 5\n3 0\n")
    assert inst.n == 2
    assert inst.cost == ((0, 5), (3, 0))


def test_parse_lolib_entries_flow_across_lines():
    inst = parse_lolib("name\n3 0 1 2 3\n4 5 6 7 8\n")
    assert inst.cost == ((0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_parse_lolib_shortfall_is_an_error():
    with pytest.raises(ParseError, match="expected 4 matrix entries, found 3"):
        parse_lolib("t\n2\n0 5 3\n")


def test_parse_lolib_extra_entry_is_located():
    with pytest.raises(ParseError) as exc:
        parse_lolib("t\n2\n0 5 3 0 7\n")
    assert exc.value.line == 3 and exc.value.col == 9
    # \x1c, \u0085 and the ideographic space separate tokens like a blank does
    with pytest.raises(ParseError) as exc:
        parse_lolib("t\n2\n0\x1c5\u00853\u30000\u3000\x1c7\n")
    assert exc.value.line == 3 and exc.value.col == 10


def test_parse_lolib_rejects_n_below_two():
    with pytest.raises(ParseError, match="n must be >= 2"):
        parse_lolib("t\n1\n0\n")


def test_parse_lolib_rejects_non_integer_entry():
    with pytest.raises(ParseError) as exc:
        parse_lolib("t\n2\n0 x 3 0\n")
    assert "not an integer" in str(exc.value)
    assert exc.value.line == 3 and exc.value.col == 3


def test_parse_lolib_rejects_wide_values():
    with pytest.raises(ParseError, match="32-bit"):
        parse_lolib(f"t\n2\n0 {2**31}\n3 0\n")


def test_parse_lolib_missing_dimension_line():
    with pytest.raises(ParseError, match="no dimension line"):
        parse_lolib("alpha\nbeta\n")


def test_parse_lolib_warns_on_extra_header_lines():
    with pytest.warns(UserWarning, match="header"):
        inst = parse_lolib("one\ntwo\n2\n0 5 3 0\n")
    assert inst.cost == ((0, 5), (3, 0))


def test_lolib_round_trip():
    r = oracles.make_rng(70)
    for _ in range(20):
        n = r.randint(2, 9)
        inst = LopInstance(oracles.rand_lop_matrix(r, n, -20, 99))
        again = parse_lolib(serialize_lolib(inst, name="rt"))
        assert again.cost == inst.cost


def test_parse_edge_list_k3():
    inst = parse_edge_list("3 3\n1 2 1\n2 3 1\n1 3 1\n")
    assert inst.n == 3 and inst.m == 3
    assert inst.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_parse_edge_list_merges_duplicates():
    inst = parse_edge_list("2 2\n1 2 3\n2 1 4\n")
    assert inst.m == 1 and inst.edges == ((0, 1, 7),)
    sol = PartitionSolution([0, 1])
    assert evaluate(inst, sol) == 7


def test_parse_edge_list_errors():
    with pytest.raises(ParseError, match="header"):
        parse_edge_list("3\n")
    with pytest.raises(ParseError, match="expected 2 edge lines, found 1"):
        parse_edge_list("3 2\n1 2 1\n")
    with pytest.raises(ParseError, match="expected 1 edge lines, found 2"):
        parse_edge_list("3 1\n1 2 1\n2 3 1\n")
    with pytest.raises(ParseError, match="out of range"):
        parse_edge_list("3 1\n1 4 1\n")
    with pytest.raises(ParseError, match="'i j w'"):
        parse_edge_list("3 1\n1 2\n")
    with pytest.raises(ParseError, match="not an integer"):
        parse_edge_list("3 1\n1 2 1.5\n")
    with pytest.raises(ParseError) as exc:
        parse_edge_list("2 1\n1 1 4\n")
    assert "self-loop" in str(exc.value)
    assert exc.value.line == 2 and exc.value.col == 1


def test_edge_list_round_trip():
    r = oracles.make_rng(71)
    for _ in range(20):
        n = r.randint(2, 10)
        inst = MaxCutInstance(n, oracles.rand_edges(r, n, 0.6, -9, 9))
        again = parse_edge_list(serialize_edge_list(inst))
        assert again.n == inst.n and again.edges == inst.edges


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_lolib_parser_contains_failures(text):
    # arbitrary text either parses or raises a controlled error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            inst = parse_lolib(text)
        except ValueError:
            return
    assert isinstance(inst, LopInstance)


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_edge_list_parser_contains_failures(text):
    try:
        inst = parse_edge_list(text)
    except ValueError:
        return
    assert isinstance(inst, MaxCutInstance)


def test_serialize_solution_forms():
    assert serialize_solution(PermutationSolution([0, 2, 1])) == "0 2 1"
    assert serialize_solution(PartitionSolution([0, 1, 1, 0])) == "0110"
    with pytest.raises(TypeError):
        serialize_solution([0, 1])


def test_load_instance_prefixes_the_path(tmp_path):
    bad = tmp_path / "broken.mat"
    bad.write_text("t\n1\n0\n")
    with pytest.raises(ParseError) as exc:
        load_instance(bad, "lop")
    assert str(bad) in str(exc.value)
    with pytest.raises(ValueError, match="unknown problem"):
        load_instance(bad, "tsp")


def test_build_run_config_lop_defaults():
    cfg = build_run_config("lop", {}, seed=3, time_limit=None, iteration_limit=50)
    assert cfg.variant == "grasp" and cfg.seed == 3 and cfg.iteration_limit == 50
    assert cfg.pr.direction == "mixed" and cfg.pr.step == "grpr"
    assert cfg.pr.in_path_ls == "best" and cfg.pr.ls_every == 5
    assert cfg.rcl.alpha_low == 0.0 and cfg.rcl.alpha_high == 0.3
    assert cfg.depth == SearchDepth.BEST_IMPROVING
    assert cfg.elite_k == 10 and cfg.guide_policy == "uniform"


def test_build_run_config_maxcut_defaults():
    cfg = build_run_config("maxcut", {}, seed=1, time_limit=2.0, iteration_limit=None)
    assert cfg.pr.direction == "forward" and cfg.pr.step == "greedy"
    assert cfg.pr.in_path_ls == "every" and cfg.pr.ls_every == 5


def test_build_run_config_overrides():
    options = {
        "variant": "evolutionary_pr",
        "direction": "bf",
        "step": "grpr",
        "rcl-size": "5",
        "trunc": "0.5",
        "min-dist": "2",
        "inpath-ls": "every:7",
        "depth": "first",
        "alpha-min": "0.1",
        "alpha-max": "0.4",
        "rcl-mode": "card",
        "elite-k": "6",
        "dth": "2",
        "guide": "pdelta",
        "kappa": "12",
        "static-sample": "9",
    }
    cfg = build_run_config("lop", options, seed=2, time_limit=None, iteration_limit=10)
    assert cfg.variant == "evolutionary_pr"
    assert cfg.pr.direction == BACK_AND_FORWARD
    assert cfg.pr.rcl_size == 5 and cfg.pr.truncation == 0.5 and cfg.pr.min_distance == 2
    assert cfg.pr.in_path_ls == "every" and cfg.pr.ls_every == 7
    assert cfg.depth == SearchDepth.FIRST_IMPROVING
    assert cfg.rcl.mode == CARDINALITY
    assert cfg.rcl.alpha_low == 0.1 and cfg.rcl.alpha_high == 0.4
    assert cfg.elite_k == 6 and cfg.d_th == 2
    assert cfg.guide_policy == "pdelta" and cfg.restart_kappa == 12
    assert cfg.static_sample == 9


def test_build_run_config_errors():
    base = dict(seed=1, time_limit=None, iteration_limit=5)
    with pytest.raises(OptionError, match="unknown option"):
        build_run_config("lop", {"warmth": "3"}, **base)
    with pytest.raises(OptionError, match="expected an integer"):
        build_run_config("lop", {"elite-k": "many"}, **base)
    with pytest.raises(OptionError, match="direction"):
        build_run_config("lop", {"direction": "up"}, **base)
    with pytest.raises(OptionError, match="inpath-ls"):
        build_run_config("lop", {"inpath-ls": "sometimes"}, **base)
    with pytest.raises(OptionError, match="bad period"):
        build_run_config("lop", {"inpath-ls": "every:x"}, **base)
    with pytest.raises(OptionError, match="variant"):
        build_run_config("lop", {"variant": "annealing"}, **base)
    with pytest.raises(OptionError, match="unknown problem"):
        build_run_config("qap", {}, **base)
    # invalid values surface as option errors, not bare ValueError
    with pytest.raises(OptionError):
        build_run_config("lop", {"alpha-max": "2.0"}, **base)
    with pytest.raises(OptionError):
        build_run_config("lop", {}, seed=1, time_limit=None, iteration_limit=None)


def test_compute_stats_single_method():
    results = {("m", "i1"): 10, ("m", "i2"): 20, ("m", "i3"): 30}
    stats = compute_stats(results)
    assert stats.instances == ["i1", "i2", "i3"]
    (row,) = stats.rows
    assert row.best == 3 and row.dev_pct == 0.0
    assert row.best_known is None and row.dev_known_pct is None


def test_compute_stats_two_methods():
    results = {("a", "i"): 100, ("b", "i"): 95}
    stats = compute_stats(results)
    by = {r.method: r for r in stats.rows}
    assert by["a"].best == 1 and by["a"].dev_pct == 0.0
    assert by["b"].best == 0 and by["b"].dev_pct == pytest.approx(5.0)


def test_compute_stats_method_order_is_presentation_only():
    results = {("a", "i"): 100, ("b", "i"): 95}
    fwd = compute_stats(results, method_order=["a", "b"])
    rev = compute_stats(results, method_order=["b", "a"])
    assert [r.method for r in fwd.rows] == ["a", "b"]
    assert [r.method for r in rev.rows] == ["b", "a"]
    assert {r.method: (r.best, r.dev_pct) for r in fwd.rows} == {
        r.method: (r.best, r.dev_pct) for r in rev.rows
    }


def test_compute_stats_missing_cell():
    with pytest.raises(ValueError, match="missing cell"):
        compute_stats({("a", "i1"): 1, ("a", "i2"): 2, ("b", "i1"): 3})


def test_compute_stats_nonpositive_reference_is_na():
    results = {("a", "i"): -5, ("b", "i"): -7}
    stats = compute_stats(results)
    by = {r.method: r for r in stats.rows}
    assert by["a"].best == 1 and by["a"].dev_pct is None
    sink = io.StringIO()
    write_stats_csv(stats, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "method,#Best,%Dev,#Best_k,%Dev_k"
    assert lines[1] == "a,1,NA,NA,NA"


def test_every_instance_has_a_winner():
    r = oracles.make_rng(72)
    for _ in range(50):
        results = {
            (m, i): r.randint(1, 50) for m in ("a", "b", "c") for i in ("i1", "i2", "i3", "i4")
        }
        stats = compute_stats(results)
        assert sum(row.best for row in stats.rows) >= 4


def test_compute_stats_against_best_known():
    results = {("m1", "i1"): 100, ("m1", "i2"): 50, ("m2", "i1"): 110, ("m2", "i2"): 50}
    stats = compute_stats(results, best_known={"i1": 100, "i2": 60})
    by = {r.method: r for r in stats.rows}
    assert by["m1"].best_known == 1
    assert by["m1"].dev_known_pct == pytest.approx((0.0 + 100 * 10 / 60) / 2)
    assert by["m2"].best_known == 1
    assert by["m2"].dev_known_pct == pytest.approx((-10.0 + 100 * 10 / 60) / 2)
    # unknown instances are simply left out of the _k columns
    partial = compute_stats(results, best_known={"i1": 100})
    by = {r.method: r for r in partial.rows}
    assert by["m2"].best_known == 1 and by["m2"].dev_known_pct == pytest.approx(-10.0)


def _row(method, instance, seed, best=1, iters=2, elapsed=0.5, restarts=0):
    return RunRow(method, instance, seed, best, iters, elapsed, restarts)


def test_write_results_csv_sorted_and_formatted():
    rows = [
        _row("b", "x", 2),
        _row("a", "y", 1, best=7, elapsed=1.25),
        _row("a", "x", 3),
        _row("a", "x", 1),
    ]
    sink = io.StringIO()
    write_results_csv(rows, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "method,instance,seed,best_objective,iterations,elapsed_s,restarts"
    assert lines[1] == "a,x,1,1,2,0.500000,0"
    assert lines[2] == "a,x,3,1,2,0.500000,0"
    assert lines[3] == "a,y,1,7,2,1.250000,0"
    assert lines[4] == "b,x,2,1,2,0.500000,0"


def test_aggregate_best_across_seeds():
    rows = [_row("a", "x", 1, best=5), _row("a", "x", 2, best=9), _row("a", "y", 1, best=3)]
    assert aggregate_best(rows) == {("a", "x"): 9, ("a", "y"): 3}


def test_emit_profile_rows():
    report = RunReport(
        best_solution=PermutationSolution([0, 1]),
        best_objective=12,
        incumbent_series=[(0.0, 10), (0.5, 12)],
        iterations=40,
        restarts=0,
        pr_calls=0,
        pr_improvements=0,
        elapsed_s=2.0,
    )
    sink = io.StringIO()
    emit_profile(report, sink)
    assert sink.getvalue() == "elapsed_s,objective\n0.000000,10\n0.500000,12\n2.000000,12\n"


def test_read_best_known(tmp_path):
    table = tmp_path / "best.csv"
    table.write_text("instance,value\n# curated 2024\nx,100\ny , -3\n")
    assert read_best_known(table) == {"x": 100, "y": -3}
    commented = tmp_path / "commented.csv"
    commented.write_text("# note\ninstance,value\nlop-n10-a,3068\n")
    assert read_best_known(commented) == {"lop-n10-a": 3068}
    late = tmp_path / "late.csv"
    late.write_text("# note\nx,100\ninstance,value\n")
    with pytest.raises(ParseError, match="line 3: best-known value is not an integer"):
        read_best_known(late)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,100\ny\n")
    with pytest.raises(ParseError, match="instance,value"):
        read_best_known(bad)
    notint = tmp_path / "notint.csv"
    notint.write_text("x,100\ny,lots\n")
    with pytest.raises(ParseError, match="not an integer"):
        read_best_known(notint)


def _grid_cells(tmp_path):
    r = oracles.make_rng(73)
    paths = []
    for name in ("g1", "g2"):
        inst = LopInstance(oracles.rand_lop_matrix(r, 6))
        path = tmp_path / f"{name}.mat"
        path.write_text(serialize_lolib(inst, name=name))
        paths.append((name, path))
    return [
        CellSpec(
            problem="lop",
            instance_path=str(path),
            instance_name=name,
            method="grasp",
            options=(),
            seed=seed,
            time_limit=None,
            iteration_limit=3,
        )
        for name, path in paths
        for seed in (1, 2)
    ]


def test_run_grid_parallel_matches_sequential(tmp_path):
    cells = _grid_cells(tmp_path)
    seq = run_grid(cells, jobs=1)
    par = run_grid(cells, jobs=3)
    strip = lambda rows: [(r.method, r.instance, r.seed, r.best_objective, r.iterations, r.restarts) for r in rows]
    assert strip(seq) == strip(par)
    with pytest.raises(ValueError):
        run_grid(cells, jobs=0)


def test_run_cell_wraps_failures_with_context(tmp_path):
    spec = CellSpec(
        problem="lop",
        instance_path=str(tmp_path / "missing.mat"),
        instance_name="missing",
        method="grasp",
        options=(),
        seed=4,
        time_limit=None,
        iteration_limit=1,
    )
    with pytest.raises(BenchError) as exc:
        run_cell(spec)
    msg = str(exc.value)
    assert "method=grasp" in msg and "instance=missing" in msg and "seed=4" in msg
