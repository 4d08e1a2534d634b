"""Loss surfaces: tabulated expected inference error over integer age pairs.

A surface stores L(delta1, delta2) on a dense grid {1..d1_max} x {1..d2_max}.
Ages count slots since the freshest delivered feature of each modality was
generated, so they start at 1, never 0.  Values may be negative; the only
structural requirement is finiteness, and ``bound_m`` records the largest
absolute value on the grid.

``LossSurface.eval`` raises OutOfDomain beyond the grid: the solver's queries
are provably confined to ``required_domain``.  The simulator, whose random
policies make ages unbounded, reads the grid edge itself and counts how often
it had to (``sim.run``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (BadSpec, HoleError, NonFiniteError, OutOfDomain, ParseError,
                     SurfaceError)

if TYPE_CHECKING:
    from .cycles import SystemConfig


class LossSurface:
    """Dense loss grid, immutable once built (a read-only float64 array).

    A surface holds no other state, so one instance can be shared by any
    number of solver calls, simulations and worker processes.
    """

    __slots__ = ("_values", "d1_max", "d2_max", "bound_m")

    def __init__(self, values):
        grid = np.asarray(values, dtype=np.float64)
        if grid.ndim != 2 or grid.shape[0] < 1 or grid.shape[1] < 1:
            raise ValueError(f"surface values must be a non-empty 2-d grid, got shape {grid.shape}")
        if not np.isfinite(grid).all():
            bad = np.argwhere(~np.isfinite(grid))[0]
            raise NonFiniteError(f"non-finite loss at ({bad[0] + 1}, {bad[1] + 1})")
        grid = np.ascontiguousarray(grid)
        grid.setflags(write=False)
        self._values = grid
        self.d1_max = int(grid.shape[0])
        self.d2_max = int(grid.shape[1])
        self.bound_m = float(np.max(np.abs(grid)))

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the stored grid, indexed [delta1 - 1, delta2 - 1]."""
        return self._values

    def eval(self, delta1: int, delta2: int) -> float:
        """Loss at ages (delta1, delta2); both must be >= 1 and inside the grid.

        Raises OutOfDomain beyond the grid.
        """
        if delta1 < 1 or delta2 < 1:
            raise ValueError(f"ages must be >= 1, got ({delta1}, {delta2})")
        if delta1 > self.d1_max or delta2 > self.d2_max:
            raise OutOfDomain(delta1, delta2, self.d1_max, self.d2_max)
        return float(self._values[delta1 - 1, delta2 - 1])

    def covers(self, d1_req: int, d2_req: int) -> bool:
        return self.d1_max >= d1_req and self.d2_max >= d2_req

    def __reduce__(self):
        # rebuild through __init__, which makes the unpickled grid read-only again
        return (LossSurface, (self._values,))

    def __repr__(self) -> str:
        return f"LossSurface({self.d1_max}x{self.d2_max}, bound_m={self.bound_m!r})"


# ---------------------------------------------------------------------------
# generators

# parameter names, in positional order, and their defaults (None = required)
GENERATORS: dict[str, tuple[tuple[str, float | None], ...]] = {
    "constant": (("value", None),),
    "aoi_sum": (),
    "aoi_weighted": (("w1", None), ("w2", None)),
    "monotone_power": (("p1", None), ("p2", None)),
    "nonmono_nonsep": (
        ("base", 1.0),
        ("a1", 6.0),
        ("a2", 1.5),
        ("cross", 2.0),
        ("dip", 1.2),
        ("s1", 10.0),
        ("s2", 40.0),
        ("p1", 11.0),
        ("p2", 17.0),
    ),
}


# Largest generated grid, in bytes of float64 values.  The generators build
# temporaries of the grid's size, so a grid near the host's memory dies in a
# MemoryError traceback or gets the process killed instead of being refused.
# 1 GiB admits tau_max=5000 at t1=t2=1 (a 5002x5002 grid, 200 MB).
_GRID_BUDGET = 2 ** 30


@dataclass(frozen=True)
class SurfaceSpec:
    """Recipe for a generated surface: generator name, grid size, parameters."""

    generator: str
    d1_max: int
    d2_max: int
    params: dict[str, float] = field(default_factory=dict)


def _resolve_params(generator: str, given: dict[str, float]) -> dict[str, float]:
    if generator not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise BadSpec(f"unknown generator {generator!r} (known: {known})")
    declared = GENERATORS[generator]
    names = {name for name, _ in declared}
    for key in given:
        if key not in names:
            raise BadSpec(f"generator {generator!r} has no parameter {key!r}")
    resolved: dict[str, float] = {}
    for name, default in declared:
        if name in given:
            value = float(given[name])
        elif default is not None:
            value = default
        else:
            raise BadSpec(f"generator {generator!r} requires parameter {name!r}")
        if not math.isfinite(value):
            raise BadSpec(f"parameter {name!r} of {generator!r} must be finite, got {value!r}")
        resolved[name] = value
    return resolved


def generate_surface(spec: SurfaceSpec) -> LossSurface:
    """Evaluate a generator spec on its grid.  Deterministic: equal specs give bitwise-equal grids."""
    if spec.d1_max < 1 or spec.d2_max < 1:
        raise BadSpec(f"grid dimensions must be >= 1, got {spec.d1_max}x{spec.d2_max}")
    if spec.d1_max * spec.d2_max * 8 > _GRID_BUDGET:
        raise BadSpec(f"grid {spec.d1_max}x{spec.d2_max} needs {spec.d1_max * spec.d2_max * 8} "
                      f"bytes, over the budget of {_GRID_BUDGET}")
    p = _resolve_params(spec.generator, dict(spec.params))
    d1 = np.arange(1, spec.d1_max + 1, dtype=np.float64)[:, None]
    d2 = np.arange(1, spec.d2_max + 1, dtype=np.float64)[None, :]
    name = spec.generator
    if name == "constant":
        grid = np.full((spec.d1_max, spec.d2_max), p["value"])
    elif name == "aoi_sum":
        grid = d1 + d2
    elif name == "aoi_weighted":
        grid = p["w1"] * d1 + p["w2"] * d2
    elif name == "monotone_power":
        if p["p1"] < 0 or p["p2"] < 0:
            raise BadSpec("monotone_power exponents must be >= 0")
        grid = d1 ** p["p1"] + d2 ** p["p2"]
    elif name == "nonmono_nonsep":
        if p["s1"] <= 0 or p["s2"] <= 0 or p["p1"] <= 0 or p["p2"] <= 0:
            raise BadSpec("nonmono_nonsep scales and periods must be > 0")
        # saturating per-modality ramps, a multiplicative cross term, and a
        # periodic dip that makes rows and columns non-monotone
        g1 = (d1 / p["s1"]) / (1.0 + d1 / p["s1"])
        g2 = (d2 / p["s2"]) / (1.0 + d2 / p["s2"])
        ripple = np.sin(np.pi * d1 / p["p1"]) ** 2 * np.sin(np.pi * d2 / p["p2"]) ** 2
        grid = p["base"] + p["a1"] * g1 + p["a2"] * g2 + p["cross"] * g1 * g2 - p["dip"] * ripple
    else:  # pragma: no cover - _resolve_params already rejected it
        raise BadSpec(f"unknown generator {name!r}")
    return LossSurface(grid)


def parse_generator_spec(text: str) -> tuple[str, dict[str, float]]:
    """Parse ``name`` or ``name:3.0,1.5`` or ``name:w1=2,w2=0.5`` into (name, params).

    Positional values bind to the generator's parameters in declared order;
    ``key=value`` tokens bind by name.  The two styles may not be mixed.
    """
    text = text.strip()
    if not text:
        raise BadSpec("empty generator spec")
    name, _, rest = text.partition(":")
    name = name.strip()
    if name not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise BadSpec(f"unknown generator {name!r} (known: {known})")
    tokens = [tok.strip() for tok in rest.split(",") if tok.strip()] if rest else []
    if not tokens:
        return name, {}
    named = ["=" in tok for tok in tokens]
    if any(named) and not all(named):
        raise BadSpec(f"generator spec {text!r} mixes positional and key=value parameters")
    params: dict[str, float] = {}
    if all(named):
        for tok in tokens:
            key, _, val = tok.partition("=")
            key = key.strip()
            try:
                params[key] = float(val)
            except ValueError:
                raise BadSpec(f"bad parameter value {val!r} for {key!r}") from None
    else:
        declared = GENERATORS[name]
        if len(tokens) > len(declared):
            raise BadSpec(f"generator {name!r} takes at most {len(declared)} parameters, got {len(tokens)}")
        for (pname, _), tok in zip(declared, tokens):
            try:
                params[pname] = float(tok)
            except ValueError:
                raise BadSpec(f"bad parameter value {tok!r} for {pname!r}") from None
    return name, params


# ---------------------------------------------------------------------------
# file formats
#
# The codecs work in blocks of _BLOCK_ROWS file rows (CSV) or values (JSON),
# so their working memory stays bounded whatever the grid size.  A loader
# converts a block with array operations; a block that breaks a rule is read
# again row by row, so that every error names the first bad line or cell.

_CSV_HEADER = ["delta1", "delta2", "loss"]
_BLOCK_ROWS = 4096


def _over_budget(rows: int, cols: int) -> bool:
    return rows * cols * 8 > _GRID_BUDGET


def _budget_message(rows: int, cols: int) -> str:
    return f"grid {rows}x{cols} needs {rows * cols * 8} bytes, over the budget of {_GRID_BUDGET}"


def load_surface(path) -> LossSurface:
    """Load a surface from CSV (``delta1,delta2,loss``) or JSON (by ``.json`` extension).

    The grid size is inferred from the largest coordinates present; every cell
    of the implied rectangle must appear exactly once, and the grid must fit in
    ``_GRID_BUDGET`` bytes.  Errors name the first bad line (CSV) or cell (JSON).
    """
    name = os.fspath(path)
    if name.endswith(".json"):
        return _load_json(name)
    return _load_csv(name)


def _csv_cell(path: str, lineno: int, row: list[str]):
    """One CSV row by the per-row rules: None for a blank row, else (d1, d2, loss)."""
    if not row or all(not f.strip() for f in row):
        return None
    if len(row) != 3:
        raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
    try:
        d1 = int(row[0])
        d2 = int(row[1])
        loss = float(row[2])
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: {exc}") from None
    if d1 < 1 or d2 < 1:
        raise ParseError(f"{path}:{lineno}: coordinates must be >= 1, got ({d1}, {d2})")
    if not math.isfinite(loss):
        raise NonFiniteError(f"{path}:{lineno}: non-finite loss at ({d1}, {d2})")
    return d1, d2, loss


def _csv_block(path: str, rows: list[list[str]], lineno: int, shape: tuple[int, int]):
    """The cells of CSV rows that start at line ``lineno``.

    Returns (ids, losses, shape, error): an int64 array of (line, d1, d2) and
    the losses of the cells before the first bad row, the grid shape those
    cells imply together with ``shape``, and that row's exception (None when
    every row is good).  A row is bad when it breaks a per-row rule or when its
    cell makes the grid larger than the budget.
    """
    if set(map(len, rows)) == {3}:
        c1, c2, c3 = zip(*rows)
        try:
            d1 = np.fromiter(map(int, c1), dtype=np.int64, count=len(rows))
            d2 = np.fromiter(map(int, c2), dtype=np.int64, count=len(rows))
            loss = np.fromiter(map(float, c3), dtype=np.float64, count=len(rows))
        except (ValueError, OverflowError):  # a field int() or float() rejects, or beyond int64
            pass
        else:
            grown = (max(shape[0], int(d1.max())), max(shape[1], int(d2.max())))
            if (d1.min() >= 1 and d2.min() >= 1 and np.isfinite(loss).all()
                    and not _over_budget(*grown)):
                lines = np.arange(lineno, lineno + len(rows), dtype=np.int64)
                return np.column_stack((lines, d1, d2)), loss, grown, None
    cells, error = [], None
    for line, row in enumerate(rows, start=lineno):
        try:
            cell = _csv_cell(path, line, row)
        except (ParseError, NonFiniteError) as exc:
            error = exc
            break
        if cell is None:
            continue
        grown = (max(shape[0], cell[0]), max(shape[1], cell[1]))
        if _over_budget(*grown):
            error = ParseError(f"{path}:{line}: cell ({cell[0]}, {cell[1]}): "
                               + _budget_message(*grown))
            break
        shape = grown
        cells.append((line,) + cell)
    ids = np.array([c[:3] for c in cells], dtype=np.int64).reshape(-1, 3)
    return ids, np.array([c[3] for c in cells], dtype=np.float64), shape, error


def _until_error(reader, failure: list):
    """Yield the reader's rows; a decoding or csv error ends the rows and goes to ``failure``."""
    try:
        yield from reader
    except (ValueError, csv.Error) as exc:
        failure.append(exc)


def _cell_index(path: str, ids: np.ndarray, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat index of each cell, and the sorted distinct indices.

    Raises ParseError at the first line whose cell an earlier line holds.
    """
    flat = (ids[:, 1] - 1) * cols + (ids[:, 2] - 1)
    distinct, first = np.unique(flat, return_index=True)
    if len(distinct) < len(flat):
        later = np.ones(len(flat), dtype=bool)
        later[first] = False
        line, d1, d2 = ids[np.argmax(later)].tolist()
        raise ParseError(f"{path}:{line}: duplicate cell ({d1}, {d2})")
    return flat, distinct


def _load_csv(path: str) -> LossSurface:
    failure: list[Exception] = []
    ids, losses = [], []
    shape = (0, 0)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != _CSV_HEADER:
            raise ParseError(f"{path}: expected header 'delta1,delta2,loss', got {header!r}")
        rows = _until_error(reader, failure)
        lineno = 2
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            block_ids, block_losses, shape, error = _csv_block(path, block, lineno, shape)
            ids.append(block_ids)
            losses.append(block_losses)
            lineno += len(block)
            if error is not None:
                _cell_index(path, np.concatenate(ids), shape[1])  # an earlier duplicate comes first
                raise error
    ids = np.concatenate(ids) if ids else np.empty((0, 3), dtype=np.int64)
    flat, distinct = _cell_index(path, ids, shape[1])
    if failure:
        raise failure[0]
    if not len(flat):
        raise ParseError(f"{path}: no data rows")
    d1_max, d2_max = shape
    missing = d1_max * d2_max - len(distinct)
    if missing:
        # distinct[k] - k cells are missing below distinct[k], so hole h lies
        # above the cells with at most h holes below them
        below = distinct - np.arange(len(distinct))
        holes = [h + int(np.searchsorted(below, h, side="right")) for h in range(min(missing, 5))]
        shown = ", ".join(str((h // d2_max + 1, h % d2_max + 1)) for h in holes)
        more = "" if missing <= 5 else f" and {missing - 5} more"
        raise HoleError(f"{path}: grid {d1_max}x{d2_max} is missing {missing} cells: {shown}{more}")
    grid = np.empty(d1_max * d2_max, dtype=np.float64)
    grid[flat] = np.concatenate(losses)
    return LossSurface(grid.reshape(d1_max, d2_max))


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _json_error(path: str, rows: list, d2_max: int) -> SurfaceError:
    """The first bad row or cell in row-major order: a row's length, then each cell's type and finiteness."""
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d2_max:
            return ParseError(f"{path}: row {i} must hold {d2_max} values")
        for j, value in enumerate(row):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                return ParseError(f"{path}: non-numeric value at ({i + 1}, {j + 1})")
            if not _finite(value):
                return NonFiniteError(f"{path}: non-finite loss at ({i + 1}, {j + 1})")
    raise AssertionError("no bad cell")  # pragma: no cover - callers found one


def _load_json(path: str) -> LossSurface:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    for key in ("d1_max", "d2_max", "values"):
        if key not in data:
            raise ParseError(f"{path}: missing key {key!r}")
    d1_max, d2_max = data["d1_max"], data["d2_max"]
    if any(type(n) is not int or n < 1 for n in (d1_max, d2_max)):  # bool is not a size
        raise ParseError(f"{path}: d1_max/d2_max must be positive integers")
    rows = data["values"]
    if not isinstance(rows, list) or len(rows) != d1_max:
        raise ParseError(f"{path}: values must hold {d1_max} rows")
    # json gives exactly int or float for numbers (bool is its own type), so
    # the row lengths and cell types are known before anything is allocated
    if all(isinstance(row, list) and len(row) == d2_max and set(map(type, row)) <= {int, float}
           for row in rows):
        if _over_budget(d1_max, d2_max):
            raise ParseError(f"{path}: " + _budget_message(d1_max, d2_max))
        try:
            grid = np.array(rows, dtype=np.float64)
        except OverflowError:  # an int beyond the float range
            grid = None
        if grid is not None and np.isfinite(grid).all():
            return LossSurface(grid)
    raise _json_error(path, rows, d2_max)


def save_surface(surface: LossSurface, path, fmt: str | None = None) -> None:
    """Write a surface to CSV or JSON.  Values round-trip bitwise through load_surface.

    CSV rows are ``d1,d2,repr(loss)`` in row-major order with CRLF line ends;
    JSON is one object ``{"d1_max": R, "d2_max": C, "values": [[...], ...]}``
    on one line, floats by ``repr``.
    """
    name = os.fspath(path)
    if fmt is None:
        fmt = "json" if name.endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    grid = surface.values
    if fmt == "csv":
        flat = grid.ravel()
        with open(name, "w", newline="") as fh:
            fh.write(",".join(_CSV_HEADER) + "\r\n")
            for start in range(0, flat.size, _BLOCK_ROWS):
                stop = min(start + _BLOCK_ROWS, flat.size)
                i, j = np.divmod(np.arange(start, stop), surface.d2_max)
                fh.write("".join(map("%d,%d,%s\r\n".__mod__, zip(
                    (i + 1).tolist(), (j + 1).tolist(), map(repr, flat[start:stop].tolist())))))
    else:
        with open(name, "w") as fh:
            fh.write(f'{{"d1_max": {surface.d1_max}, "d2_max": {surface.d2_max}, "values": [')
            for i, row in enumerate(grid):
                fh.write("[" if i == 0 else "], [")
                for start in range(0, len(row), _BLOCK_ROWS):
                    if start:
                        fh.write(", ")
                    fh.write(json.dumps(row[start:start + _BLOCK_ROWS].tolist())[1:-1])
            fh.write("]]}\n")


# ---------------------------------------------------------------------------
# domain requirements

def required_domain(config: "SystemConfig") -> tuple[int, int]:
    """Largest age pair the cycle-cost sums can query for this configuration.

    A surface of at least this size supports every lookup the solver
    performs: all transition costs for decisions 0..tau_max, for both
    modalities.
    """
    runs = config.tau_max + 1
    d1_req = 2 * config.t1 + runs * config.t2 - 1
    d2_req = 2 * config.t2 + runs * config.t1 - 1
    return d1_req, d2_req
