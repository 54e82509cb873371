import concurrent.futures
import gc
import importlib.util
import io
import random
import re
import tracemalloc
import warnings
import weakref
from concurrent.futures import Future
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasppr import bench_io
from grasppr.bench_io import (
    LOP,
    MAXCUT,
    BenchError,
    CellSpec,
    OptionError,
    ParseError,
    RunRow,
    build_run_config,
    compute_stats,
    emit_profile,
    load_instance,
    parse_edge_list,
    parse_lolib,
    read_best_known,
    read_utf8,
    run_cell,
    run_grid,
    serialize_edge_list,
    serialize_lolib,
    serialize_solution,
    write_results_csv,
    write_stats_csv,
)
from grasppr.construction import CARDINALITY
from grasppr.core import PartitionSolution, PermutationSolution, SearchDepth, evaluate
from grasppr.drivers import RunConfig, RunReport, default_diversity_threshold, run
from grasppr.lop import LopInstance
from grasppr.maxcut import MAX_VERTICES, MaxCutInstance
from grasppr.path_relinking import BACK_AND_FORWARD, PrConfig

import oracles
from test_cli import _python

TOY = Path(__file__).resolve().parent.parent / "instances" / "toy"


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


@pytest.mark.parametrize("name", ["rt", "", "  spaced  name ", "x 7", "7x", "-", "²", "1.5", "lop-n10-a"])
def test_lolib_names_round_trip(name):
    inst = LopInstance([[0, 5, -2], [3, 0, 1], [4, 9, 0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parse_lolib(serialize_lolib(inst, name=name)).cost == inst.cost


# each would reread as the dimension line, or as more than one header line;
# U+2028 is whitespace to str.split, so the first token of "\u20287" is 7, and
# load_instance drops the byte-order mark of "\ufeff7"
@pytest.mark.parametrize("name", ["7", "3 x", " +12", "-3 y", "\t7", "\u20287", "\ufeff7", "a\nb", "a\rb", "a\r\nb"])
def test_lolib_refuses_names_that_do_not_read_back(name):
    with pytest.raises(ValueError, match="header line"):
        serialize_lolib(LopInstance([[0, 5], [3, 0]]), name=name)


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


def test_toy_instances_are_what_the_script_renders():
    # the serializers write the bundled toys: a change to either must come with regenerated files
    script = TOY.parent.parent / "scripts" / "make_toy_instances.py"
    spec = importlib.util.spec_from_file_location("make_toy_instances", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rendered = module.render()
    assert sorted(path.name for path in TOY.iterdir()) == sorted(rendered)
    for name, text in rendered.items():
        assert (TOY / name).read_bytes() == text.encode(), name


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_lolib_parser_contains_failures(text):
    # arbitrary text either parses or raises a ParseError, never another exception
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            inst = parse_lolib(text)
        except ParseError:
            return
    assert isinstance(inst, LopInstance)


@settings(max_examples=150)
@given(st.text(max_size=200))
def test_edge_list_parser_contains_failures(text):
    try:
        inst = parse_edge_list(text)
    except ParseError:
        return
    assert isinstance(inst, MaxCutInstance)


def test_superscript_digits_are_not_integers(tmp_path):
    # str.isdigit holds for '²' and '³' but int() rejects them
    with pytest.raises(ParseError) as exc:
        parse_lolib("x\n2\n1 ² 3 4")
    assert "not an integer" in str(exc.value) and (exc.value.line, exc.value.col) == (3, 3)
    with pytest.raises(ParseError) as exc:
        parse_edge_list("2 1\n1 2 ³")
    assert "not an integer" in str(exc.value) and (exc.value.line, exc.value.col) == (2, 5)
    table = tmp_path / "best.csv"
    table.write_text("a,1\nb,²\n")
    with pytest.raises(ParseError, match="line 2: best-known value is not an integer"):
        read_best_known(table)


def test_numbers_beyond_int_digit_limit_are_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="outside 32-bit range") as exc:
        parse_lolib("t\n2\n0 " + "9" * 5000 + " 3 0\n")
    assert (exc.value.line, exc.value.col) == (3, 3)
    table = tmp_path / "best.csv"
    table.write_text("a,1\nb," + "9" * 5000 + "\n")
    with pytest.raises(ParseError, match="line 2: best-known value too long"):
        read_best_known(table)


def test_vertex_count_is_capped():
    # a header alone may not claim more vertices than MAX_VERTICES: the fast
    # path judges it before it reads an edge line and declines, and the
    # located path raises at the header, so no graph is built
    cap = MAX_VERTICES
    assert bench_io._edge_list_fast(f"{cap} 0\n").n == cap
    for n in (cap + 1, 2**31 - 1):
        text = f"{n} 0\n"
        assert bench_io._edge_list_fast(text) is None
        with mock.patch.object(bench_io, "MaxCutInstance", wraps=MaxCutInstance) as build:
            with pytest.raises(ParseError, match=f"n must be <= {cap}, got {n}") as exc:
                parse_edge_list(text)
        assert build.call_count == 0
        assert (exc.value.line, exc.value.col) == (1, 1)


def test_a_bad_vertex_count_costs_no_bulk_read():
    # both paths judge n before they split the edge lines: the parse of a
    # file whose header claims too many vertices allocates a small fraction
    # of what splitting its lines into tokens does
    r = random.Random(39)
    lines = [f"{2**21} 5000"] + [f"{r.randint(1, 2000)} {r.randint(1, 2000)} {r.choice((-1, 1))}" for _ in range(5000)]
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^line 1, col 1: n must be <= {MAX_VERTICES}, got {2**21}$"):
            parse_edge_list(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        rows = [toks for toks in map(str.split, text.split("\n")) if toks]
        split_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 5001
    assert parse_peak * 20 < split_peak, (parse_peak, split_peak)


def _graph_text(r, n, p):
    """A random unit-weight graph as edge-list text, written with no instance built."""
    edges = oracles.rand_edges(r, n, p, 1, 1)
    return f"{n} {len(edges)}\n" + "".join(f"{i + 1} {j + 1} {w}\n" for i, j, w in edges)


def _matrix_text(r, n):
    """A random n x n ordering matrix as LOLIB text, written with no instance built."""
    return f"m{n}\n{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in oracles.rand_lop_matrix(r, n))


@pytest.mark.parametrize(
    "parse, make, bound_mb",
    [
        # the graph's size and kind are maxcut-dynpr's rnd800: n = 800 at 1 % density
        (parse_edge_list, lambda r: _graph_text(r, 800, 0.01), 1.05),
        # grid-construct's mb150 size
        (parse_lolib, lambda r: _matrix_text(r, 150), 1.0),
    ],
    ids=["edge-list-n800", "lolib-n150"],
)
def test_a_parse_reads_its_text_in_one_pass(parse, make, bound_mb):
    # each fast reader splits one line at a time, and the graph reader hands
    # each edge to the constructor as it reads its line, so no token list of
    # the whole text is held while the instance is built. These parses peak
    # at ~0.60 MB (graph) and ~0.44 MB (matrix) on CPython 3.11; holding every
    # token at once, they peaked at ~1.56 and ~1.55 MB. The text is fresh, so
    # this is its first parse: CPython's tuple free lists hide a warm parse's
    # allocations
    text = make(oracles.make_rng(41))
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak


def test_located_parsers_check_the_header_first():
    # a fault on the header or dimension line is raised before any body line is tokenized
    cap = MAX_VERTICES
    edges = "".join(f"{i} {i + 1} 1\n" for i in range(1, 50))
    for parse, text, message, tokenized in (
        (parse_edge_list, f"{cap + 1} 49\n" + edges, f"line 1, col 1: n must be <= {cap}", [1]),
        (parse_edge_list, "0 49\n" + edges, "line 1, col 1: n must be >= 1, got 0", [1]),
        (parse_edge_list, "50 -1\n" + edges, "line 1, col 4: m must be >= 0", [1]),
        (parse_edge_list, "\n50\n" + edges, "line 2, col 1: header must be 'n m'", [1, 2]),
        (parse_lolib, "t\n1\n" + "0 1\n" * 50, "line 2, col 1: n must be >= 2, got 1", [2]),
    ):
        with mock.patch.object(bench_io, "_tokenize_line", wraps=bench_io._tokenize_line) as tokenize:
            with pytest.raises(ParseError, match=message):
                parse(text)
        assert [c.args[1] for c in tokenize.call_args_list] == tokenized


def test_merged_weight_overflow_is_a_parse_error():
    with pytest.raises(ParseError, match="merged weight"):
        parse_edge_list(f"2 2\n1 2 {2**31 - 1}\n2 1 1\n")


def test_each_edge_weight_is_judged_before_merging():
    # the constructor rejects what the located reader rejects: these two weights would merge to 5
    with pytest.raises(ParseError, match=f"^line 2, col 5: edge weight outside 32-bit range: {2**40}$"):
        parse_edge_list(f"2 2\n1 2 {2**40}\n1 2 {-2**40 + 5}\n")


def test_parse_lolib_raises_only_parse_errors():
    # a constructor fault that the located reader does not place is still a ParseError
    with mock.patch.object(bench_io, "LopInstance", side_effect=ValueError("refused")):
        with pytest.raises(ParseError, match="^refused$") as exc:
            parse_lolib("t\n2\n0 1\n2 0\n")
    assert (exc.value.line, exc.value.col) == (None, None)


# ---------------------------------------------------------------------------
# differential checks: the bulk fast path against the located tokeniser

_INT32 = 2**31
_SEPARATORS = (" ", "  ", "\t", "\x1c", "\u0085", "\u3000", "\r")
_DIGIT_ZEROS = (0x30, 0x660, 0x966, 0xFF10, 0x1D7CE)  # ASCII, Arabic-Indic, Devanagari, fullwidth, math bold


def _spell(r, value):
    """value as an int token: an optional '+', leading zeros, the digits of some script."""
    sign = "-" if value < 0 else r.choice(("", "", "+"))
    zero = r.choice(_DIGIT_ZEROS)
    digits = "".join(chr(zero + int(d)) for d in "0" * r.choice((0, 0, 1, 3)) + str(abs(value)))
    return sign + digits


def _join(r, tokens, breaks):
    out = []
    for k, tok in enumerate(tokens):
        if k:
            out.append("\n" if breaks and r.random() < 0.2 else r.choice(_SEPARATORS))
        out.append(tok)
    return "".join(out)


def _lop_text(r):
    n = r.randint(2, 6)
    values = [r.choice((0, 1, -1, 99, -_INT32, _INT32 - 1)) if r.random() < 0.2 else r.randint(-50, 50) for _ in range(n * n)]
    header = r.choice(([], ["name"], ["name", "# comment", ""], ["x 1", "\u00b2 note", "\x1c", "-"]))
    return "\n".join(header + [_join(r, [_spell(r, v) for v in [n, *values]], breaks=True)]) + r.choice(("", "\n", "\n\n"))


def _edge_list_text(r):
    n = r.randint(1, 7)
    m = 0 if n == 1 or r.random() < 0.1 else r.randint(1, 8)
    lines = [_join(r, [_spell(r, n), _spell(r, m)], breaks=False)]
    for _ in range(m):
        i, j = r.sample(range(1, n + 1), 2)
        w = r.choice((-_INT32 // 8, _INT32 // 8 - 1)) if r.random() < 0.1 else r.randint(-9, 9)
        lines.append(_join(r, [_spell(r, i), _spell(r, j), _spell(r, w)], breaks=False))
    if m and r.random() < 0.3:  # a duplicate edge, reversed, merges with its twin
        lines.append(lines[1])
        lines[0] = _join(r, [_spell(r, n), _spell(r, m + 1)], breaks=False)
    blank = r.choice(("", " ", "\u3000"))
    return "\n".join(line + (f"\n{blank}" if r.random() < 0.2 else "") for line in lines)


def _outcome(parse, text):
    """What parse(text) returns or raises, and every warning with the frame it names."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            inst = parse(text)
            result = ("ok", inst.cost) if isinstance(inst, LopInstance) else ("ok", inst.n, inst.edges)
        except ParseError as exc:
            result = ("error", str(exc), exc.line, exc.col)
    return result, [(str(w.message), w.filename, w.lineno) for w in caught]


def _located_outcome(parse, text):
    with mock.patch.object(bench_io, "_lolib_fast", return_value=None), mock.patch.object(
        bench_io, "_edge_list_fast", return_value=None
    ):
        return _outcome(parse, text)


def test_fast_parse_equals_located_parse_on_valid_text():
    r = oracles.make_rng(90)
    for _ in range(300):
        for parse, make, fallback in (
            (parse_lolib, _lop_text, "_lolib_located"),
            (parse_edge_list, _edge_list_text, "_edge_list_located"),
        ):
            text = make(r)
            # valid text never reaches the located tokeniser
            with mock.patch.object(bench_io, fallback, side_effect=AssertionError("fell back")):
                fast = _outcome(parse, text)
            assert fast[0][0] == "ok", (text, fast)
            assert fast == _located_outcome(parse, text), text


def _mutations(r, text, problem):
    """Bad (and a few good) variants of a valid text, each with one targeted change."""
    lines = text.split("\n")
    body = [k for k, line in enumerate(lines) if line.split() and bench_io._is_int(line.split()[0])]
    k = r.choice(body[1:] or body)
    toks = lines[k].split()
    # a valid graph header "2147483647 0" would build 2**31 adjacency lists
    t = 1 if problem == MAXCUT and k == body[0] else r.randrange(len(toks))

    def put(token):
        return "\n".join(lines[:k] + [" ".join(toks[:t] + [token] + toks[t + 1 :])] + lines[k + 1 :])

    yield put(toks[t][:1] + "_" + toks[t][1:] if len(toks[t]) > 1 else "1_0")
    yield put("\u00b2")
    yield put("1\u00b3")
    yield put("1.5")
    yield put("+")
    yield put("9" * 5000)
    for v in (_INT32, -_INT32 - 1, _INT32 - 1, -_INT32, 0, 1, -1):
        yield put(str(v))
    yield "\n".join(lines[:k] + [" ".join(toks[:t] + toks[t + 1 :])] + lines[k + 1 :])  # a token missing
    yield "\n".join(lines[:k] + [" ".join(toks + ["7"])] + lines[k + 1 :])  # an extra token
    yield text.replace("\n", " ", 1)
    head = lines[body[0]].split()
    if problem == LOP:
        yield "\n".join(lines[: body[0]] + [" ".join(["1"] + head[1:])] + lines[body[0] + 1 :])  # n = 1
        yield "t\n1\n0\n"
        return
    n = int(head[0])
    if len(body) >= 3:  # a 2-token edge line balanced by a 4-token one
        a, b = body[1], body[2]
        moved = lines[a].split()
        yield "\n".join(
            lines[:a] + [" ".join(moved[:2])] + lines[a + 1 : b] + [lines[b] + " " + moved[2]] + lines[b + 1 :]
        )
    if len(body) >= 2:
        edge = lines[body[1]].split()
        for ids in (("0", edge[1]), (edge[0], str(n + 1)), (edge[0], edge[0])):  # ids 0, n + 1, a self-loop
            yield "\n".join(lines[: body[1]] + [" ".join([*ids, edge[2]])] + lines[body[1] + 1 :])
    yield "1 1\n1 1 0\n"


def test_fast_parse_equals_located_parse_on_bad_text():
    r = oracles.make_rng(91)
    seen_errors = 0
    for _ in range(60):
        for parse, make, problem in ((parse_lolib, _lop_text, LOP), (parse_edge_list, _edge_list_text, MAXCUT)):
            for text in _mutations(r, make(r), problem):
                fast = _outcome(parse, text)
                assert fast == _located_outcome(parse, text), text
                seen_errors += fast[0][0] == "error"
    assert seen_errors > 1000


def test_serialize_solution_forms():
    assert serialize_solution(PermutationSolution([0, 2, 1])) == "0 2 1"
    assert serialize_solution(PartitionSolution([0, 1, 1, 0])) == "0110"
    with pytest.raises(TypeError):
        serialize_solution([0, 1])


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_load_instance_reads_utf8_with_universal_newlines(tmp_path, newline):
    # any line ending reads as one line break, and a byte that is not UTF-8
    # is a ParseError at its line and column, as a bad token is
    lines = "t\n4\n0 3 9 1\n2 0 4 0\n5 1 0 2\n0 8 3 0\n"
    text = lines.replace("\n", newline)
    path = tmp_path / "p.mat"
    path.write_bytes(text.encode())
    assert load_instance(path, LOP).cost == parse_lolib(lines).cost
    path.write_bytes(text.replace("5 1", "5 \xb9").encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        load_instance(path, LOP)
    assert (exc.value.line, exc.value.col) == (5, 3)
    assert str(exc.value) == f"{path}: line 5, col 3: not UTF-8: byte 0xb9"


def test_read_utf8_drops_one_leading_byte_order_mark(tmp_path):
    # instance, config and best-known files all read through read_utf8; a
    # bad byte's column counts the characters after the mark
    bom = "\ufeff"
    path = tmp_path / "k3.el"
    path.write_text(bom + "3 2\n1 2 5\n2 3 -1\n", encoding="utf-8")
    assert read_utf8(path) == "3 2\n1 2 5\n2 3 -1\n"
    assert load_instance(path, MAXCUT).edges == parse_edge_list("3 2\n1 2 5\n2 3 -1\n").edges
    path.write_text(bom + bom + "variant = grasp\n", encoding="utf-8")
    assert read_utf8(path) == bom + "variant = grasp\n"  # one mark only
    path.write_bytes(bom.encode() + b"ab\xff")
    with pytest.raises(ParseError) as exc:
        read_utf8(path)
    assert str(exc.value) == "line 1, col 3: not UTF-8: byte 0xff"


def test_load_instance_prefixes_the_path(tmp_path):
    bad = tmp_path / "broken.mat"
    bad.write_text("t\n1\n0\n")
    with pytest.raises(ParseError) as exc:
        load_instance(bad, "lop")
    assert str(bad) in str(exc.value)
    edges = tmp_path / "broken.el"
    edges.write_text("3 1\n1 4 5\n")
    with pytest.raises(ParseError) as exc:
        load_instance(edges, "maxcut")
    with pytest.raises(ParseError) as direct:
        parse_edge_list(edges.read_text())
    assert (exc.value.line, exc.value.col) == (direct.value.line, direct.value.col) == (2, 3)
    assert str(exc.value) == f"{edges}: {direct.value}"
    with pytest.raises(ValueError, match="unknown problem"):
        load_instance(bad, "tsp")


@pytest.mark.parametrize("name, problem", [("lop-n10-a.mat", LOP), ("mc-n14-w.el", MAXCUT)])
def test_a_parsed_instance_is_freed_by_reference_counting(name, problem):
    # an instance in a reference cycle (a closure over self, or search state
    # it caches that points back at it) stays resident until the cycle
    # collector runs, and a benchmark's setup parses each file several
    # times: its peak RSS then grows with the parses. So the last reference
    # frees an instance, parsed only or after a search
    gc.disable()
    try:
        instance = weakref.ref(load_instance(TOY / name, problem))
        assert instance() is None
        searched = load_instance(TOY / name, problem)
        report = run(searched, build_run_config(problem, {"variant": "evolutionary_pr"}, 1, None, 5))
        assert report.pr_calls > 0
        instance = weakref.ref(searched)
        del searched
        assert instance() is None
    finally:
        gc.enable()


def test_build_run_config_lop_defaults():
    cfg = build_run_config("lop", {}, seed=3, time_limit=None, iteration_limit=50)
    assert cfg.variant == "grasp" and cfg.seed == 3 and cfg.iteration_limit == 50
    assert cfg.pr.direction == "mixed" and cfg.pr.step == "grpr"
    assert cfg.pr.in_path_ls == "best" and cfg.pr.ls_every == 5
    assert cfg.rcl.alpha_low == 0.0 and cfg.rcl.alpha_high == 0.3
    assert cfg.depth == SearchDepth.BEST_IMPROVING
    assert cfg.elite_k == 10 and cfg.guide_policy == "uniform"
    # every other default comes from the dataclasses
    lop_pr = PrConfig(direction="mixed", step="grpr", in_path_ls="best")
    assert cfg == RunConfig(seed=3, iteration_limit=50, pr=lop_pr)


def test_build_run_config_maxcut_defaults():
    cfg = build_run_config("maxcut", {}, seed=1, time_limit=2.0, iteration_limit=None)
    assert cfg.pr.direction == "forward" and cfg.pr.step == "greedy"
    assert cfg.pr.in_path_ls == "every" and cfg.pr.ls_every == 5
    assert cfg == RunConfig(seed=1, time_limit=2.0, pr=PrConfig(in_path_ls="every"))


def test_every_help_default_is_what_build_run_config_sets():
    # "(default X)" holds for both problems, "(default: X for lop, Y for maxcut)"
    # for each; dth and kappa state a rule instead of a value
    for opt in bench_io.OPTIONS:
        stated = re.search(r"default:? ([^()]*)\)$", opt.help.replace("%%", "%"))
        assert stated, f"--{opt.key} states no default"
        text = stated.group(1)
        per_problem = re.fullmatch(r"(\S+) for lop, (\S+) for maxcut", text)
        for k, problem in enumerate((LOP, MAXCUT)):
            cfg = build_run_config(problem, {}, seed=1, time_limit=None, iteration_limit=1)
            if opt.key == "dth":
                assert text == "5% of n, at least 1" and cfg.d_th is None
                assert all(default_diversity_threshold(n) == max(1, -(-n * 5 // 100)) for n in range(1, 500))
            elif opt.key == "kappa":
                assert text == "no restarts" and cfg.restart_kappa is None
            else:
                value = opt.parse(opt.key, per_problem[k + 1] if per_problem else text)
                stated_fields = value if opt.field is None else {opt.field: value}
                config = {"run": cfg, "rcl": cfg.rcl, "pr": cfg.pr}[opt.config]
                assert {f: getattr(config, f) for f in stated_fields} == stated_fields, (opt.key, problem)


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
    # a library caller's non-integer or bool values are not truncated or read as 1
    for key, raw in (("elite-k", 2.5), ("elite-k", "2.5"), ("rcl-size", True), ("min-dist", None), ("elite-k", "1_0")):
        with pytest.raises(OptionError, match="expected an integer"):
            build_run_config("lop", {key: raw}, **base)
    # '_' is not a digit separator in options, as in instance files
    for raw in (True, False, None, "much", "0_5", "1_0.5"):
        with pytest.raises(OptionError, match="expected a number"):
            build_run_config("lop", {"trunc": raw}, **base)
    cfg = build_run_config("lop", {"elite-k": 4, "trunc": 1, "alpha-max": 0.25}, **base)
    assert (cfg.elite_k, cfg.pr.truncation, cfg.rcl.alpha_high) == (4, 1.0, 0.25)
    with pytest.raises(OptionError, match="direction"):
        build_run_config("lop", {"direction": "up"}, **base)
    with pytest.raises(OptionError, match="inpath-ls"):
        build_run_config("lop", {"inpath-ls": "sometimes"}, **base)
    for period in ("x", "1_0"):
        with pytest.raises(OptionError, match="bad period"):
            build_run_config("lop", {"inpath-ls": f"every:{period}"}, **base)
    with pytest.raises(OptionError, match="variant"):
        build_run_config("lop", {"variant": "annealing"}, **base)
    with pytest.raises(OptionError, match="unknown problem"):
        build_run_config("qap", {}, **base)
    # invalid values surface as option errors, not bare ValueError
    with pytest.raises(OptionError):
        build_run_config("lop", {"alpha-max": "2.0"}, **base)
    with pytest.raises(OptionError):
        build_run_config("lop", {}, seed=1, time_limit=None, iteration_limit=None)
    for time_limit in (float("nan"), float("inf")):
        with pytest.raises(OptionError, match="time_limit must be finite"):
            build_run_config("lop", {}, seed=1, time_limit=time_limit, iteration_limit=5)
    with pytest.raises(OptionError, match="restart_kappa applies only to"):
        build_run_config("lop", {"variant": "static_pr", "kappa": "3"}, **base)


def _best_rows(results):
    """One RunRow per {(method, instance): best} entry."""
    return [_row(m, i, 1, best=v) for (m, i), v in results.items()]


def test_compute_stats_single_method():
    results = {("m", "i1"): 10, ("m", "i2"): 20, ("m", "i3"): 30}
    (row,) = compute_stats(_best_rows(results), ["m"])
    assert row.best == 3 and row.dev_pct == 0.0
    assert row.best_known is None and row.dev_known_pct is None


def test_compute_stats_two_methods():
    results = {("a", "i"): 100, ("b", "i"): 95}
    stats = compute_stats(_best_rows(results), ["a", "b"])
    by = {r.method: r for r in stats}
    assert by["a"].best == 1 and by["a"].dev_pct == 0.0
    assert by["b"].best == 0 and by["b"].dev_pct == pytest.approx(5.0)


def test_compute_stats_method_order_is_presentation_only():
    rows = _best_rows({("a", "i"): 100, ("b", "i"): 95})
    fwd = compute_stats(rows, method_order=["a", "b"])
    rev = compute_stats(rows, method_order=["b", "a"])
    assert [r.method for r in fwd] == ["a", "b"]
    assert [r.method for r in rev] == ["b", "a"]
    assert {r.method: (r.best, r.dev_pct) for r in fwd} == {
        r.method: (r.best, r.dev_pct) for r in rev
    }


def test_compute_stats_missing_cell():
    with pytest.raises(ValueError, match="missing cell"):
        compute_stats(_best_rows({("a", "i1"): 1, ("a", "i2"): 2, ("b", "i1"): 3}), ["a", "b"])


def test_compute_stats_nonpositive_reference_is_na():
    results = {("a", "i"): -5, ("b", "i"): -7}
    stats = compute_stats(_best_rows(results), ["a", "b"])
    by = {r.method: r for r in stats}
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
        stats = compute_stats(_best_rows(results), ["a", "b", "c"])
        assert sum(row.best for row in stats) >= 4


def test_compute_stats_against_best_known():
    rows = _best_rows({("m1", "i1"): 100, ("m1", "i2"): 50, ("m2", "i1"): 110, ("m2", "i2"): 50})
    stats = compute_stats(rows, ["m1", "m2"], best_known={"i1": 100, "i2": 60})
    by = {r.method: r for r in stats}
    assert by["m1"].best_known == 1
    assert by["m1"].dev_known_pct == pytest.approx((0.0 + 100 * 10 / 60) / 2)
    assert by["m2"].best_known == 1
    assert by["m2"].dev_known_pct == pytest.approx((-10.0 + 100 * 10 / 60) / 2)
    # unknown instances are simply left out of the _k columns
    partial = compute_stats(rows, ["m1", "m2"], best_known={"i1": 100})
    by = {r.method: r for r in partial}
    assert by["m2"].best_known == 1 and by["m2"].dev_known_pct == pytest.approx(-10.0)


def _row(method, instance, seed, best=1, iters=2, elapsed=0.5, restarts=0, pr_calls=0, pr_improvements=0):
    return RunRow(method, instance, seed, best, iters, elapsed, restarts, pr_calls, pr_improvements)


def test_write_results_csv_sorted_and_formatted():
    rows = [
        _row("b", "x", 2),
        _row("a", "y", 1, best=7, elapsed=1.25, pr_calls=4, pr_improvements=1),
        _row("a", "x", 3),
        _row("a", "x", 1),
    ]
    sink = io.StringIO()
    write_results_csv(rows, sink)
    lines = sink.getvalue().splitlines()
    assert lines[0] == "method,instance,seed,best_objective,iterations,elapsed_s,restarts,pr_calls,pr_improvements"
    assert lines[1] == "a,x,1,1,2,0.500000,0,0,0"
    assert lines[2] == "a,x,3,1,2,0.500000,0,0,0"
    assert lines[3] == "a,y,1,7,2,1.250000,0,4,1"
    assert lines[4] == "b,x,2,1,2,0.500000,0,0,0"


def test_compute_stats_takes_each_methods_best_over_seeds():
    rows = [_row("a", "x", 1, best=5), _row("a", "x", 2, best=9), _row("a", "y", 1, best=3)]
    rows += [_row("b", "x", 1, best=9), _row("b", "x", 2, best=2), _row("b", "y", 2, best=4), _row("b", "y", 1, best=1)]
    a, b = compute_stats(rows, ["a", "b"])
    # best over seeds: a scores (9, 3) and b (9, 4), so both win x and only b wins y
    assert (a.best, a.dev_pct) == (1, pytest.approx(100 * 1 / 4 / 2))
    assert (b.best, b.dev_pct) == (2, 0.0)


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


def test_read_best_known_rejects_duplicate_rows(tmp_path):
    # a second row for one instance would silently replace the first
    table = tmp_path / "best.csv"
    table.write_text("instance,value\nx,100\n# again\nx,5\n")
    with pytest.raises(ParseError, match="line 4: duplicate best-known row for 'x'"):
        read_best_known(table)


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


def test_run_grid_asks_for_no_more_workers_than_cells(tmp_path, monkeypatch):
    # the pool starts all its workers up front; a fake pool records how many
    # were asked for and maps in this process, so no worker ever starts
    cells = _grid_cells(tmp_path)
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return None

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    expected = run_grid(cells, jobs=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)  # where run_grid imports it from
    for jobs, workers in ((64, 4), (4, 4), (3, 3), (2, 2)):
        assert _strip(run_grid(cells, jobs=jobs)) == _strip(expected)
        assert asked.pop() == workers and not asked


LEAN_SOLVE = """
import sys
import grasppr
from grasppr import bench_io, drivers
for name, problem in (("lop-n10-a.mat", "lop"), ("mc-n12-pm.el", "maxcut")):
    instance = grasppr.load_instance(sys.argv[1] + "/" + name, problem)
    config = bench_io.build_run_config(problem, {"variant": "evolutionary_pr"}, 1, None, 5)
    assert drivers.run(instance, config).pr_calls > 0
print(" ".join(sorted({"concurrent.futures", "multiprocessing", "csv"} & set(sys.modules))))
"""


def test_a_solve_imports_no_worker_pool_and_no_csv():
    # the pool brings multiprocessing, pickle, socket, subprocess and logging
    # into every process that imports it; only a grid with jobs > 1 needs it
    done = _python("-c", LEAN_SOLVE, str(TOY))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""


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


def _write_instances(tmp_path, seed=74):
    r = oracles.make_rng(seed)
    lop_path = tmp_path / "p.mat"
    lop_path.write_text(serialize_lolib(LopInstance(oracles.rand_lop_matrix(r, 10)), name="p"))
    mc_path = tmp_path / "q.el"
    mc_path.write_text(serialize_edge_list(MaxCutInstance(20, oracles.rand_edges(r, 20, 0.4, -5, 9))))
    return {LOP: lop_path, MAXCUT: mc_path}


def _mixed_cells(paths):
    # cells on one file come together and mix methods, so a reused instance
    # arrives with its skew, gain and seed-vertex caches already warm, and
    # its dynamic_pr cells relink on it
    methods = (
        ("semigreedy", (("variant", "semigreedy"),)),
        ("grasp", ()),
        ("dynamic_pr", (("elite-k", "2"), ("variant", "dynamic_pr"))),
    )
    return [
        CellSpec(problem, str(path), path.stem, label, options, seed, None, 6)
        for problem, path in paths.items()
        for label, options in methods
        for seed in (1, 2)
    ]


def _fresh_rows(cells):
    rows = []
    for c in cells:
        report = run(load_instance(c.instance_path, c.problem), build_run_config(c.problem, dict(c.options), c.seed, None, c.iteration_limit))
        rows.append(
            (c.method, c.instance_name, c.seed, report.best_objective, report.iterations, report.restarts,
             report.pr_calls, report.pr_improvements)
        )
    return rows


def _strip(rows):
    return [
        (r.method, r.instance, r.seed, r.best_objective, r.iterations, r.restarts, r.pr_calls, r.pr_improvements)
        for r in rows
    ]


def test_run_grid_reuses_one_parse_per_file_run(tmp_path):
    cells = _mixed_cells(_write_instances(tmp_path))
    fresh = _fresh_rows(cells)
    assert all(pr_calls > 0 for method, *_, pr_calls, _ in fresh if method == "dynamic_pr")  # every relinking cell walks
    with mock.patch.object(bench_io, "load_instance", wraps=bench_io.load_instance) as loads:
        assert _strip(run_grid(cells, jobs=1)) == fresh
    assert loads.call_count == 2  # one parse per file
    assert bench_io._instance.cache_info().currsize == 0  # nothing outlives the call
    assert _strip(run_grid(cells, jobs=2)) == fresh
    # the cache holds one file: alternating files reparse every cell
    alternating = [cells[0], cells[-1], cells[1], cells[-2]]
    with mock.patch.object(bench_io, "load_instance", wraps=bench_io.load_instance) as loads:
        assert _strip(run_grid(alternating, jobs=1)) == _fresh_rows(alternating)
    assert loads.call_count == 4


def test_run_cell_reports_the_relinking_counts(tmp_path):
    path = tmp_path / "r.mat"
    path.write_text(serialize_lolib(LopInstance(oracles.rand_lop_matrix(oracles.make_rng(75), 10)), name="r"))
    spec = CellSpec(LOP, str(path), "r", "dynamic_pr", (("elite-k", "4"), ("variant", "dynamic_pr")), 1, None, 12)
    report = run(load_instance(spec.instance_path, LOP), build_run_config(LOP, dict(spec.options), 1, None, 12))
    row = run_cell(spec)
    bench_io._instance.cache_clear()
    assert report.pr_calls > 0
    assert (row.restarts, row.pr_calls, row.pr_improvements) == (0, report.pr_calls, report.pr_improvements)
    assert RunRow._fields.index("elapsed_s") == 5  # the column the determinism tests mask


def test_run_grid_sees_a_file_rewritten_between_calls(tmp_path):
    paths = _write_instances(tmp_path)
    cells = _mixed_cells(paths)[:2]
    for jobs in (1, 2):
        before = _strip(run_grid(cells, jobs))
        paths[LOP].write_text(serialize_lolib(LopInstance(oracles.rand_lop_matrix(oracles.make_rng(jobs), 7)), name="p"))
        after = _strip(run_grid(cells, jobs))
        assert after == _fresh_rows(cells) and after != before


def test_failed_cell_leaves_no_cached_instance(tmp_path):
    good = _mixed_cells(_write_instances(tmp_path))[0]
    bad = CellSpec(good.problem, good.instance_path, good.instance_name, "bad", (("variant", "nope"),), 1, None, 1)
    with mock.patch.object(bench_io, "load_instance", wraps=bench_io.load_instance) as loads:
        with pytest.raises(BenchError):
            run_grid([good, bad], jobs=1)
        assert bench_io._instance.cache_info().currsize == 0  # dropped although run_grid raised
        try:
            run_cell(good)
            with pytest.raises(BenchError):
                run_cell(bad)
            run_cell(good)
        finally:
            bench_io._instance.cache_clear()
    assert loads.call_count == 1 + 2  # the failed cell dropped the parse it shared


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_leaves_the_rest_of_the_grid(tmp_path, jobs):
    cells = _mixed_cells(_write_instances(tmp_path))[:4]
    missing = CellSpec(LOP, str(tmp_path / "gone.mat"), "gone", "grasp", (), 7, None, 2)
    with pytest.raises(BenchError) as exc:
        run_grid([cells[0], missing, *cells[1:]], jobs)
    # every other cell ran, and its row came back in cell order
    assert _strip(exc.value.rows) == _fresh_rows(cells)
    (failure,) = exc.value.failures
    assert (failure.method, failure.instance, failure.seed) == ("grasp", "gone", 7) and "gone.mat" in failure.message
    assert "1 of 5 cells failed" in str(exc.value) and "instance=gone seed=7" in str(exc.value)
    sink = io.StringIO()
    bench_io.write_failures_csv(exc.value.failures, sink)
    assert sink.getvalue().splitlines()[0] == "method,instance,seed,message"
