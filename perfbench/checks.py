"""Independent references for the benchmark's output checks.

None of this code calls into aoisched: ages follow from the slot dynamics
stated in ``sim.py``'s docstring (a delivery of modality m at slot t resets
its age to t_m at t, every other age grows by one per slot), and files are
parsed by hand.  Checks run outside the timed region.
"""

from __future__ import annotations

import array
import csv
import json

import numpy as np

# False failures known at the commit that introduced this benchmark.  Both
# come from absolute tolerances on values that grow with the instance, so they
# show on large instances; the answers themselves check out.  A failure counts
# as known only when its size is within an a-priori rounding bound
# (sum_rounding_bound).  A verdict naming them starts with KNOWN.
KNOWN = "known:"
EPS = float(np.finfo(np.float64).eps)
KNOWN_DEFECTS = {
    "g_eps": "verify's g_properties check (_check_g_properties in cli.py) uses an absolute "
             "eps=1e-10 while |g| reaches 1e6 and more, so rounding of about one ulp of "
             "max|g| fails midpoint_concave, and on constant surfaces, where g cancels to 0 "
             "at one end of the beta grid, single_sign_change",
    "tie_tol": "the oracle's tie set (TIE_TOLERANCE=1e-12 in oracle.py) is absolute, so on "
               "constant surfaces, where every policy ties exactly, rounding in the long cycle "
               "sums can drop the solver's policy from it: the solve check and verify's "
               "solver_oracle fail although l_opt is within 10*tol of the optimum",
}


def sum_rounding_bound(n_terms: int, magnitude: float) -> float:
    """A-priori bound on the rounding error of a float sum of n_terms values of at
    most `magnitude` each (recursive summation: n * eps * sum of |terms|)."""
    return n_terms * EPS * n_terms * magnitude


def known(*defects: str) -> str:
    return KNOWN + "+".join(defects)


def is_known(verdict: str | None) -> bool:
    return verdict is not None and verdict.startswith(KNOWN)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint64), b.view(np.uint64)))


def ages(modalities, t1: int, t2: int, n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Ages at slots 0..n_slots-1 of a work-conserving schedule from restart state 1.

    At slot 0 modality 1 has just been delivered (age t1) and modality 2 was
    delivered t1 slots earlier (age t1 + t2); transmission n starts when
    transmission n-1 is delivered.
    """
    mods = np.asarray(modalities, dtype=np.int64)
    durations = np.where(mods == 1, t1, t2)
    delivery = np.cumsum(durations)
    slots = np.arange(n_slots, dtype=np.int64)
    out = []
    for m, t_m, last in ((1, t1, 0), (2, t2, -t1)):
        mark = np.full(n_slots, np.iinfo(np.int64).min, dtype=np.int64)
        hit = delivery[(mods == m) & (delivery < n_slots)]
        mark[hit] = hit
        mark[0] = max(mark[0], last)
        out.append(t_m + slots - np.maximum.accumulate(mark))
    return out[0], out[1]


def threshold_schedule(tau1: int, tau2: int, n_tx: int) -> np.ndarray:
    """Modalities of the first n_tx transmissions of a threshold policy from restart state 1."""
    cycle = [1] * tau1 + [2] + [2] * tau2 + [1]
    reps = -(-n_tx // len(cycle))
    return np.tile(np.array(cycle, dtype=np.int64), reps)[:n_tx]


def lookup(grid: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Surface values at the given ages, clamped to the grid edge."""
    return grid[np.minimum(d1, grid.shape[0]) - 1, np.minimum(d2, grid.shape[1]) - 1]


def cycle_average(grid: np.ndarray, t1: int, t2: int, tau1: int, tau2: int) -> float:
    """Long-run average loss of threshold policy (tau1, tau2): mean over one full cycle."""
    schedule = threshold_schedule(tau1, tau2, tau1 + tau2 + 2)
    n = (tau1 + 1) * t1 + (tau2 + 1) * t2
    d1, d2 = ages(schedule, t1, t2, n)
    return float(lookup(grid, d1, d2).sum() / n)


def stationary_slack(bound_m: float, cycle: int, horizon: int) -> float:
    """Partial-cycle allowance of acceptance criterion 07: 2 * bound_m * cycle / horizon."""
    return 2.0 * bound_m * cycle / horizon


def read_columns(path: str, header: list[str], types: str) -> list[np.ndarray]:
    """Columns of a CSV file with the given header, one typecode per column.

    Rows are parsed one at a time into typed arrays ('q' int64, 'd' float64,
    8 bytes a value), so a large file never exists as lists of strings and
    the checks stay well below the program's own memory footprint.
    """
    convert = {"q": int, "d": float}
    columns = [array.array(code) for code in types]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise ValueError(f"{path}: bad header {first!r}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields")
            for column, code, value in zip(columns, types, row):
                column.append(convert[code](value))
    return [np.frombuffer(column, dtype=np.int64 if code == "q" else np.float64)
            for column, code in zip(columns, types)]


def parse_surface_csv(path: str) -> np.ndarray:
    """Dense grid from a ``delta1,delta2,loss`` file; every cell must appear once."""
    d1, d2, loss = read_columns(path, ["delta1", "delta2", "loss"], "qqd")
    grid = np.full((int(d1.max()), int(d2.max())), np.nan)
    grid[d1 - 1, d2 - 1] = loss
    if len(loss) != grid.size or np.isnan(grid).any():
        raise ValueError(f"{path}: grid is not covered exactly once")
    return grid


def parse_surface_json(path: str) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    grid = np.array(data["values"], dtype=np.float64)
    if grid.shape != (data["d1_max"], data["d2_max"]):
        raise ValueError(f"{path}: shape {grid.shape} does not match its header")
    return grid


def check_sim_files(trace_path: str, tx_path: str, grid: np.ndarray, t1: int, t2: int,
                    schedule_for, total_loss: float) -> str | None:
    """Cross-check ``trace.csv`` and ``transmissions.csv`` against the slot dynamics.

    ``schedule_for(n_tx)`` gives the expected modality of each transmission.
    Returns None when every row agrees, else the first disagreement.
    """
    tx = np.column_stack(read_columns(tx_path, ["n", "modality", "start", "delivery"], "qqqq"))
    if not np.array_equal(tx[:, 0], np.arange(len(tx))):
        return "transmissions.csv: n is not 0..N-1"
    if not np.array_equal(tx[:, 1], schedule_for(len(tx))):
        return "transmissions.csv: modalities differ from the policy's schedule"
    durations = np.where(tx[:, 1] == 1, t1, t2)
    if tx[0, 2] != 0 or not np.array_equal(tx[1:, 2], tx[:-1, 3]) \
            or not np.array_equal(tx[:, 3] - tx[:, 2], durations):
        return "transmissions.csv: starts and deliveries are not work conserving"
    slots, d1, d2, loss = read_columns(trace_path, ["t", "delta1", "delta2", "loss"], "qqqd")
    n = len(slots)
    if not np.array_equal(slots, np.arange(n)):
        return "trace.csv: t is not 0..T-1"
    e1, e2 = ages(tx[:, 1], t1, t2, n)
    if not (np.array_equal(d1, e1) and np.array_equal(d2, e2)):
        return "trace.csv: ages differ from the slot dynamics"
    if not bitwise_equal(loss, lookup(grid, d1, d2)):
        return "trace.csv: losses differ from the surface at the recorded ages"
    if abs(float(loss.sum()) - total_loss) > 1e-9 * max(1.0, abs(total_loss)):
        return f"trace.csv: losses sum to {float(loss.sum())!r}, summary says {total_loss!r}"
    return None
