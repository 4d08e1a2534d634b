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
import json
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import BadSpec, HoleError, NonFiniteError, OutOfDomain, ParseError

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

_CSV_HEADER = ["delta1", "delta2", "loss"]


def load_surface(path) -> LossSurface:
    """Load a surface from CSV (``delta1,delta2,loss``) or JSON (by ``.json`` extension).

    The grid size is inferred from the largest coordinates present; every cell
    of the implied rectangle must appear exactly once.
    """
    name = os.fspath(path)
    if name.endswith(".json"):
        return _load_json(name)
    return _load_csv(name)


def _load_csv(path: str) -> LossSurface:
    cells: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != _CSV_HEADER:
            raise ParseError(f"{path}: expected header 'delta1,delta2,loss', got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
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
            if (d1, d2) in cells:
                raise ParseError(f"{path}:{lineno}: duplicate cell ({d1}, {d2})")
            cells[(d1, d2)] = loss
    if not cells:
        raise ParseError(f"{path}: no data rows")
    d1_max = max(c[0] for c in cells)
    d2_max = max(c[1] for c in cells)
    missing = [(i, j)
               for i in range(1, d1_max + 1)
               for j in range(1, d2_max + 1)
               if (i, j) not in cells]
    if missing:
        shown = ", ".join(str(c) for c in missing[:5])
        more = "" if len(missing) <= 5 else f" and {len(missing) - 5} more"
        raise HoleError(f"{path}: grid {d1_max}x{d2_max} is missing {len(missing)} cells: {shown}{more}")
    grid = np.empty((d1_max, d2_max), dtype=np.float64)
    for (i, j), loss in cells.items():
        grid[i - 1, j - 1] = loss
    return LossSurface(grid)


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
    if not isinstance(d1_max, int) or not isinstance(d2_max, int) or d1_max < 1 or d2_max < 1:
        raise ParseError(f"{path}: d1_max/d2_max must be positive integers")
    rows = data["values"]
    if not isinstance(rows, list) or len(rows) != d1_max:
        raise ParseError(f"{path}: values must hold {d1_max} rows")
    grid = np.empty((d1_max, d2_max), dtype=np.float64)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d2_max:
            raise ParseError(f"{path}: row {i} must hold {d2_max} values")
        for j, value in enumerate(row):
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ParseError(f"{path}: non-numeric value at ({i + 1}, {j + 1})")
            if not math.isfinite(value):
                raise NonFiniteError(f"{path}: non-finite loss at ({i + 1}, {j + 1})")
            grid[i, j] = float(value)
    return LossSurface(grid)


def save_surface(surface: LossSurface, path, fmt: str | None = None) -> None:
    """Write a surface to CSV or JSON.  Values round-trip bitwise through load_surface."""
    name = os.fspath(path)
    if fmt is None:
        fmt = "json" if name.endswith(".json") else "csv"
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    grid = surface.values
    if fmt == "csv":
        with open(name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_HEADER)
            for i in range(surface.d1_max):
                for j in range(surface.d2_max):
                    writer.writerow([i + 1, j + 1, repr(float(grid[i, j]))])
    else:
        payload = {
            "d1_max": surface.d1_max,
            "d2_max": surface.d2_max,
            "values": [[float(v) for v in row] for row in grid],
        }
        with open(name, "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")


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
