"""Block codecs for surface and trace files against the per-cell references in helpers.py.

The writers must emit the references' bytes and the loaders must return the
references' grid bits or raise the references' exception class and message.
Block sizes are drawn down to 1..7 rows so that errors, duplicates and holes
fall across block boundaries.  Inputs over the grid budget, and JSON integers
beyond the float range, are refused where the references would allocate or
crash; they get their own tests at sizes that are never allocated.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import (HoleError, LossSurface, NonFiniteError, ParseError, SimSummary,
                      SimTrace, load_surface, save_surface, write_trace_csv,
                      write_transmissions_csv)
from aoisched import sim, surface
from aoisched.cli import main
from helpers import (reference_load_csv, reference_load_json, reference_save_surface,
                     reference_write_trace_csv, reference_write_transmissions_csv)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7, -37.31]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
BLOCKS = st.integers(1, 7)


@st.composite
def grids(draw, max_side=5):
    d1, d2 = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    values = draw(st.lists(VALUES, min_size=d1 * d2, max_size=d1 * d2))
    return np.array(values, dtype=np.float64).reshape(d1, d2)


def _bits(grid):
    return np.ascontiguousarray(grid).view(np.uint64)


def _outcome(load, path):
    """The grid bits a loader returns, or its exception's class and message."""
    try:
        return _bits(load(path).values).tolist()
    except (ParseError, HoleError, NonFiniteError, ValueError) as exc:
        return type(exc), str(exc)


def _blocks(size):
    return mock.patch.multiple(surface, _BLOCK_ROWS=size)


# ---------------------------------------------------------------------------
# writers

@settings(max_examples=60, deadline=None)
@given(grids(), BLOCKS, st.sampled_from(["csv", "json"]))
def test_surface_writer_bytes_equal_the_reference(tmp_path_factory, grid, block, fmt):
    d = tmp_path_factory.mktemp("w")
    s = LossSurface(grid)
    with _blocks(block):
        save_surface(s, d / f"new.{fmt}")
    reference_save_surface(s, str(d / f"ref.{fmt}"), fmt)
    assert (d / f"new.{fmt}").read_bytes() == (d / f"ref.{fmt}").read_bytes()


@st.composite
def traces(draw):
    n = draw(st.integers(1, 40))
    # few distinct losses, so repeats and -0.0 next to 0.0 fall in one block
    pool = draw(st.lists(VALUES, min_size=1, max_size=4))
    loss = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    ages = st.lists(st.integers(1, 10 ** 12), min_size=n, max_size=n)
    d1, d2 = np.array(draw(ages), dtype=np.int64), np.array(draw(ages), dtype=np.int64)
    n_tx = draw(st.integers(1, n))
    tx = np.array(draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 10 ** 12),
                                          st.integers(0, 10 ** 12)),
                                min_size=n_tx, max_size=n_tx)), dtype=np.int64)
    summary = SimSummary("rr", n, 0, 0.0, 0.0, 0)
    return SimTrace(d1, d2, loss, tx, summary)


@settings(max_examples=60, deadline=None)
@given(traces(), BLOCKS)
def test_trace_writer_bytes_equal_the_reference(tmp_path_factory, trace, block):
    d = tmp_path_factory.mktemp("t")
    with mock.patch.multiple(sim, _BLOCK_SLOTS=block):
        write_trace_csv(trace, d / "trace.csv")
        write_transmissions_csv(trace, d / "tx.csv")
    reference_write_trace_csv(trace, d / "trace_ref.csv")
    reference_write_transmissions_csv(trace, d / "tx_ref.csv")
    assert (d / "trace.csv").read_bytes() == (d / "trace_ref.csv").read_bytes()
    assert (d / "tx.csv").read_bytes() == (d / "tx_ref.csv").read_bytes()


@settings(max_examples=60, deadline=None)
@given(grids(max_side=9), BLOCKS, st.sampled_from(["csv", "json"]))
def test_save_then_load_is_bitwise(tmp_path_factory, grid, block, fmt):
    path = tmp_path_factory.mktemp("r") / f"g.{fmt}"
    with _blocks(block):
        save_surface(LossSurface(grid), path)
        back = load_surface(path)
    assert np.array_equal(_bits(back.values), _bits(grid))


# ---------------------------------------------------------------------------
# loaders on well-formed and malformed files

# field texts for any column; a coordinate stays small, since the reference
# lists every cell of the rectangle the largest coordinates imply
BAD_FIELDS = ["1.5", "0", "-1", "", " ", "x", "nan", "inf", "-inf", "1e999", "1_0.5",
              "١٢", " 7 ", "+2"]


@st.composite
def csv_texts(draw):
    grid = draw(grids(max_side=4))
    d1, d2 = grid.shape
    rows = [[str(i + 1), str(j + 1), repr(float(grid[i, j]))]
            for i in range(d1) for j in range(d2)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["shuffle", "blank", "spaces", "quoted", "fields",
                                     "field", "field", "duplicate", "hole"]))
        k = draw(st.integers(0, max(len(rows) - 1, 0)))
        if kind == "shuffle":
            rows = draw(st.permutations(rows))
        elif kind == "blank":
            rows.insert(k, [])
        elif kind == "spaces":
            rows.insert(k, draw(st.sampled_from([["  "], [" ", " ", " "], ["", ""]])))
        elif kind == "quoted" and rows and rows[k]:
            rows[k] = ['"' + f + '"' for f in rows[k]]
        elif kind == "fields" and rows:
            rows[k] = rows[k][:draw(st.integers(0, 2))] if draw(st.booleans()) else rows[k] + ["1"]
        elif kind == "field" and rows and len(rows[k]) == 3:
            rows[k] = list(rows[k])
            rows[k][draw(st.integers(0, 2))] = draw(st.sampled_from(BAD_FIELDS))
        elif kind == "duplicate" and rows:
            copy = list(rows[k])
            if len(copy) == 3 and draw(st.booleans()):
                copy[2] = "0.5"
            rows.insert(draw(st.integers(0, len(rows))), copy)
        elif kind == "hole" and rows:
            del rows[k]
    header = draw(st.sampled_from(["delta1,delta2,loss"] * 6 + ["Delta1, delta2 ,LOSS", "a,b,c", ""]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header] + [",".join(r) for r in rows] if header else []
    return newline.join(lines) + (newline if lines and draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(csv_texts(), BLOCKS)
def test_csv_loader_matches_the_reference(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("c") / "g.csv"
    path.write_bytes(text.encode())
    with _blocks(block):
        got = _outcome(load_surface, str(path))
    assert got == _outcome(reference_load_csv, str(path))


JSON_CELLS = st.one_of(st.integers(-(2 ** 1000), 2 ** 1000),
                       st.sampled_from([True, False, None, "1.0", float("nan"),
                                        float("inf"), -float("inf"), [1.0]]))


@st.composite
def json_texts(draw):
    grid = draw(grids(max_side=4))
    d1, d2 = header = grid.shape
    rows = grid.tolist()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["cell", "cell", "ragged", "row", "rows", "header"]))
        i, j = draw(st.integers(0, header[0] - 1)), draw(st.integers(0, d2 - 1))
        if kind == "cell" and i < len(rows) and isinstance(rows[i], list) and j < len(rows[i]):
            rows[i][j] = draw(JSON_CELLS)
        elif kind == "ragged" and i < len(rows) and isinstance(rows[i], list):
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [1.0]
        elif kind == "row" and i < len(rows):
            rows[i] = draw(st.sampled_from([None, 1.0, "row", {}]))
        elif kind == "rows":
            rows = rows[:-1] if draw(st.booleans()) else rows + [[1.0] * d2]
        elif kind == "header":
            d1 = draw(st.sampled_from([0, -1, 1.0, "2", header[0] + 1]))
    payload = {"d1_max": d1, "d2_max": d2, "values": rows}
    return json.dumps([payload] if draw(st.sampled_from([False] * 9 + [True])) else payload)


@settings(max_examples=300, deadline=None)
@given(json_texts(), BLOCKS)
def test_json_loader_matches_the_reference(tmp_path_factory, text, block):
    path = tmp_path_factory.mktemp("j") / "g.json"
    path.write_text(text)
    with _blocks(block):
        got = _outcome(load_surface, str(path))
    assert got == _outcome(reference_load_json, str(path))


def test_duplicate_before_a_later_bad_row_in_another_block(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("delta1,delta2,loss\n1,1,1\n1,2,2\n1,1,3\n2,1,4\n2,2,5\n2,x,6\n")
    with _blocks(2):
        with pytest.raises(ParseError, match=r"g\.csv:4: duplicate cell \(1, 1\)"):
            load_surface(path)
    assert _outcome(reference_load_csv, str(path))[1].endswith("g.csv:4: duplicate cell (1, 1)")


@pytest.mark.parametrize("bad_row", [False, True])
def test_decoding_error_comes_after_the_rows_before_it(tmp_path, bad_row):
    """Text is decoded in chunks, so an undecodable byte well past the first
    chunk is met only after the rows before it have been checked."""
    rows = [f"{i},1,{i}.5" for i in range(1, 801)]
    if bad_row:
        rows[3] = "4,1,nan"
    path = tmp_path / "g.csv"
    path.write_bytes(("delta1,delta2,loss\n" + "\n".join(rows) + "\n").encode() + b"9,\xff,1\n")
    with _blocks(7):
        got = _outcome(load_surface, str(path))
    assert got == _outcome(reference_load_csv, str(path))
    assert got[0] is (NonFiniteError if bad_row else UnicodeDecodeError)


def test_holes_are_counted_and_the_first_five_shown(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("delta1,delta2,loss\n3000,3000,1.0\n1,1,1.0\n1,3,1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(HoleError) as exc:
            load_surface(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (f"{path}: grid 3000x3000 is missing 8999997 cells: "
                              "(1, 2), (1, 4), (1, 5), (1, 6), (1, 7) and 8999992 more")
    assert peak < 2 ** 20  # the 72 MB grid, or a list of its holes, was never built


# ---------------------------------------------------------------------------
# inputs the references cannot load: over the budget, or beyond the float range

def _exit_1_without_allocating(path, stderr):
    """`solve` on the file exits 1 with ``stderr`` and allocates under 1 MiB on the way."""
    tracemalloc.start()
    try:
        result = CliRunner().invoke(main, ["solve", "--surface", str(path), "--t1", "1",
                                           "--t2", "1", "--tau-max", "1"],
                                    catch_exceptions=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", stderr)
    assert peak < 2 ** 20


def test_json_header_is_not_trusted(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"d1_max": 1, "d2_max": 1000000000000, "values": [[1.0]]}')
    _exit_1_without_allocating(path, f"error: {path}: row 0 must hold 1000000000000 values\n")


@pytest.mark.parametrize("row, grid", [
    ("100000,100000,1.0", "grid 100000x100000 needs 80000000000 bytes"),
    ("99999999999999999999,1,1.0", "grid 99999999999999999999x1 needs 799999999999999999992 bytes"),
])
def test_csv_coordinates_over_the_budget_are_refused(tmp_path, row, grid):
    path = tmp_path / "big.csv"
    path.write_text(f"delta1,delta2,loss\n{row}\n")
    cell = ", ".join(row.split(",")[:2])
    _exit_1_without_allocating(path, f"error: {path}:2: cell ({cell}): {grid}, "
                                     f"over the budget of {2 ** 30}\n")


def test_json_integer_beyond_the_float_range_is_non_finite(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"d1_max": 1, "d2_max": 2, "values": [[' + "9" * 401 + ", 1.0]]}")
    with pytest.raises(NonFiniteError, match=r"non-finite loss at \(1, 1\)"):
        load_surface(path)
    result = CliRunner().invoke(main, ["solve", "--surface", str(path), "--t1", "1", "--t2", "1",
                                       "--tau-max", "0"], catch_exceptions=False)
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == f"error: {path}: non-finite loss at (1, 1)\n"


@pytest.mark.parametrize("block", [1, 3, 4096])
def test_budget_names_the_first_line_over_it(tmp_path, block):
    path = tmp_path / "g.csv"
    path.write_text("delta1,delta2,loss\n1,1,0\n2,4,0\n1,x,0\n3,3,0\n")
    with _blocks(block), mock.patch.object(surface, "_GRID_BUDGET", 64):
        with pytest.raises(ParseError) as exc:
            load_surface(path)
    # 2x4 cells fit in 64 bytes; line 4's bad field comes first
    assert str(exc.value) == f"{path}:4: invalid literal for int() with base 10: 'x'"
    path.write_text("delta1,delta2,loss\n1,1,0\n2,4,0\n3,3,0\n1,x,0\n")
    with _blocks(block), mock.patch.object(surface, "_GRID_BUDGET", 64):
        with pytest.raises(ParseError) as exc:
            load_surface(path)
    assert str(exc.value) == (f"{path}:4: cell (3, 3): grid 3x4 needs 96 bytes, "
                              "over the budget of 64")


@pytest.mark.parametrize("header", ['"d1_max": true, "d2_max": 1', '"d1_max": 1, "d2_max": true'])
def test_json_boolean_size_is_refused(tmp_path, header):
    """The reference takes true for 1 in d1_max and dies in np.empty on d2_max."""
    path = tmp_path / "g.json"
    path.write_text("{" + header + ', "values": [[1.0]]}')
    with pytest.raises(ParseError, match="d1_max/d2_max must be positive integers"):
        load_surface(path)


def test_json_over_the_budget_is_refused(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"d1_max": 3, "d2_max": 3, "values": [[1.0] * 3] * 3}))
    with mock.patch.object(surface, "_GRID_BUDGET", 64):
        with pytest.raises(ParseError, match="grid 3x3 needs 72 bytes, over the budget of 64"):
            load_surface(path)
