"""Slot-level simulator for two-modality transmission policies.

The channel carries one feature at a time; a transmission of modality m
started at slot S delivers at slot S + t_m, at which instant that modality's
age resets to t_m while the other keeps growing.  The next transmission starts
at the delivery slot (work conservation).  Slot t's loss is evaluated at the
age vector after applying that slot's delivery, so a segment of simulated
slots from one restart state to just before the next reproduces the analytic
half-cycle cost term for term.

A run is computed with arrays: the decisions fix every delivery slot, each
age is t_m + t minus its modality's last delivery, and the losses are one
gather from the grid.  Random policies make ages unbounded, so a slot whose
age pair lies beyond the grid reads the nearest edge cell and is counted in
the summary's ``clamp_count`` rather than aborting a long run.  The surface
itself is only read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import (Modality, RestartState, StationaryPolicy, SystemConfig,
                     full_cycle_length)
from .errors import SurfaceError
from .surface import LossSurface


# ---------------------------------------------------------------------------
# policies

@dataclass(frozen=True)
class IndexThreshold:
    """Stationary threshold policy: tau extra runs per restart, then switch."""

    policy: StationaryPolicy


@dataclass(frozen=True)
class RoundRobin:
    """Strict alternation, starting with the modality the initial restart state is stale on."""


@dataclass(frozen=True)
class UniformRandom:
    """Each transmission picks a modality uniformly at random.

    Stream semantics: decisions consume one draw each from
    ``numpy.random.Generator(PCG64(seed)).integers(0, 2)``, in transmission
    order; equal seeds reproduce equal schedules on any platform.
    """

    seed: int


PolicyKind = IndexThreshold | RoundRobin | UniformRandom


def _decisions(policy: PolicyKind, first: Modality, config: SystemConfig, n: int) -> np.ndarray:
    """The first n decisions (modality ints, in transmission order) from restart state ``first``."""
    if isinstance(policy, IndexThreshold):
        tau1, tau2 = policy.policy.tau1, policy.policy.tau2
        if tau1 > config.tau_max or tau2 > config.tau_max:
            raise ValueError(f"policy {policy.policy} exceeds tau_max={config.tau_max}")
        phase1 = [1] * tau1 + [2]
        phase2 = [2] * tau2 + [1]
        pattern = phase1 + phase2 if first is Modality.M1 else phase2 + phase1
        return np.resize(np.array(pattern, dtype=np.int64), n)
    if isinstance(policy, RoundRobin):
        start = 2 if first is Modality.M1 else 1
        return np.resize(np.array([start, 3 - start], dtype=np.int64), n)
    if isinstance(policy, UniformRandom):
        # one bulk draw is the same stream as n single draws
        rng = np.random.Generator(np.random.PCG64(policy.seed))
        return 1 + rng.integers(0, 2, size=n)
    raise TypeError(f"unknown policy kind {policy!r}")


def _policy_label(policy: PolicyKind) -> str:
    if isinstance(policy, IndexThreshold):
        return "index"
    if isinstance(policy, RoundRobin):
        return "rr"
    return "rand"


# ---------------------------------------------------------------------------
# traces

@dataclass(frozen=True)
class SimSummary:
    policy: str
    horizon: int
    warmup: int
    total_loss: float
    avg_loss: float
    clamp_count: int
    seed: int | None = None
    tau1: int | None = None
    tau2: int | None = None

    def to_dict(self) -> dict:
        out = {
            "policy": self.policy,
            "horizon": self.horizon,
            "warmup": self.warmup,
            "avg_loss": self.avg_loss,
            "total_loss": self.total_loss,
            "clamp_count": self.clamp_count,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        if self.tau1 is not None:
            out["tau1"] = self.tau1
            out["tau2"] = self.tau2
        return out


@dataclass(frozen=True)
class SimTrace:
    """Per-slot ages and losses (including warmup slots), transmissions, and the summary.

    ``transmissions`` is an int64 array with one row per transmission and the
    columns (modality, start, delivery).
    """

    delta1: np.ndarray
    delta2: np.ndarray
    loss: np.ndarray
    transmissions: np.ndarray
    summary: SimSummary

    @property
    def slots(self) -> int:
        return len(self.loss)


def run(surface: LossSurface, config: SystemConfig, policy: PolicyKind, horizon: int,
        initial_state: RestartState | None = None, warmup: int = 0) -> SimTrace:
    """Simulate warmup + horizon slots from a restart state.

    The trace records every simulated slot; the summary statistics cover only
    the last ``horizon`` slots, so ``avg_loss == total_loss / horizon`` holds
    exactly.  ``total_loss`` adds the losses one slot at a time, starting from
    0.0.  A slot whose age pair lies beyond the grid reads the loss at the
    ages clamped to the grid edge and counts once in ``clamp_count``.

    ``total_loss`` sums ``horizon`` losses of at most bound_m each, so with
    rounding it stays within horizon * bound_m * (1 + horizon * eps); a
    surface for which that is not finite raises SurfaceError before the run.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    eps = float(np.finfo(np.float64).eps)
    if not np.isfinite(horizon * surface.bound_m * (1.0 + horizon * eps)):
        raise SurfaceError(f"surface bound_m={surface.bound_m!r} too large for horizon={horizon}: "
                           f"the sum over {horizon} slots can overflow")
    if initial_state is None:
        initial_state = RestartState(Modality.M1)
    total_slots = warmup + horizon

    # every transmission lasts at least one slot, so total_slots decisions suffice
    decisions = _decisions(policy, initial_state.modality, config, total_slots)
    durations = np.where(decisions == 1, config.t1, config.t2)
    deliveries = np.cumsum(durations)
    # transmission k > 0 starts at delivery k - 1; keep those starting before the last slot
    n_tx = 1 + int(np.searchsorted(deliveries, total_slots))
    transmissions = np.empty((n_tx, 3), dtype=np.int64)
    transmissions[:, 0] = decisions[:n_tx]
    transmissions[0, 1] = 0
    transmissions[1:, 1] = deliveries[:n_tx - 1]
    transmissions[:, 2] = deliveries[:n_tx]
    del decisions, durations, deliveries

    slots = np.arange(total_slots, dtype=np.int64)
    delivered = transmissions[:n_tx - 1]  # the last delivery may fall past the trace
    ages = []
    for m, t_m, age0 in zip((1, 2), (config.t1, config.t2), initial_state.aoi_vector(config)):
        # age = t_m + t - last delivery, seeded so that slot 0 holds the restart age
        last = np.full(total_slots, t_m - age0, dtype=np.int64)
        at = delivered[delivered[:, 0] == m, 2]
        last[at] = at
        np.maximum.accumulate(last, out=last)
        np.subtract(slots, last, out=last)
        last += t_m
        ages.append(last)
    d1, d2 = ages
    del slots

    loss = surface.values[np.minimum(d1, surface.d1_max) - 1,
                          np.minimum(d2, surface.d2_max) - 1]
    clamp_count = int(np.count_nonzero((d1 > surface.d1_max) | (d2 > surface.d2_max)))

    # a running sum seeded with 0.0, as a slot-by-slot loop adds: it turns an
    # all -0.0 tail into 0.0, where an unseeded cumsum would keep -0.0
    tail = np.concatenate(([0.0], loss[warmup:]))
    total_loss = float(np.cumsum(tail, out=tail)[-1])
    avg_loss = total_loss / horizon

    seed = policy.seed if isinstance(policy, UniformRandom) else None
    tau1 = policy.policy.tau1 if isinstance(policy, IndexThreshold) else None
    tau2 = policy.policy.tau2 if isinstance(policy, IndexThreshold) else None
    summary = SimSummary(
        policy=_policy_label(policy),
        horizon=horizon,
        warmup=warmup,
        total_loss=total_loss,
        avg_loss=avg_loss,
        clamp_count=clamp_count,
        seed=seed,
        tau1=tau1,
        tau2=tau2,
    )
    return SimTrace(d1, d2, loss, transmissions, summary)


# the writers format this many slots (or transmissions) per write
_BLOCK_SLOTS = 4096


def _float_texts(values: np.ndarray) -> list[str]:
    """``repr`` of each value, computed once per distinct bit pattern (so -0.0 stays -0.0)."""
    distinct, where = np.unique(values.view(np.uint64), return_inverse=True)
    texts = list(map(repr, distinct.view(np.float64).tolist()))
    return list(map(texts.__getitem__, where.tolist()))


def write_trace_csv(trace: SimTrace, path) -> None:
    """Per-slot trace: t,delta1,delta2,loss, with CRLF line ends and losses by ``repr``."""
    with open(path, "w", newline="") as fh:
        fh.write("t,delta1,delta2,loss\r\n")
        for start in range(0, trace.slots, _BLOCK_SLOTS):
            stop = min(start + _BLOCK_SLOTS, trace.slots)
            fh.write("".join(map("%d,%d,%d,%s\r\n".__mod__, zip(
                range(start, stop), trace.delta1[start:stop].tolist(),
                trace.delta2[start:stop].tolist(), _float_texts(trace.loss[start:stop])))))


def write_transmissions_csv(trace: SimTrace, path) -> None:
    """Per-transmission log: n,modality,start,delivery, with CRLF line ends."""
    with open(path, "w", newline="") as fh:
        fh.write("n,modality,start,delivery\r\n")
        for start in range(0, len(trace.transmissions), _BLOCK_SLOTS):
            block = trace.transmissions[start:start + _BLOCK_SLOTS]
            fh.write("".join(map("%d,%d,%d,%d\r\n".__mod__, zip(
                range(start, start + len(block)), *block.T.tolist()))))


# ---------------------------------------------------------------------------
# policy comparison

@dataclass(frozen=True)
class PolicyRow:
    policy: str
    avg_loss: float
    clamp_count: int
    runs: int


@dataclass(frozen=True)
class PolicyComparison:
    rows: tuple[PolicyRow, ...]
    reductions: dict[str, float]
    index_policy: StationaryPolicy | None
    l_opt: float | None

    def row(self, label: str) -> PolicyRow:
        for row in self.rows:
            if row.policy == label:
                return row
        raise KeyError(label)


def _snap_to_cycles(horizon: int, cycle: int) -> int:
    # deterministic policies are measured over whole cycles so their average
    # is the exact long-run value; at least one full cycle is always simulated
    return max(cycle, (horizon // cycle) * cycle)


def compare_policies(surface: LossSurface, config: SystemConfig, horizon: int,
                     seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
                     include: tuple[str, ...] = ("index", "rr", "rand")) -> PolicyComparison:
    """Average losses of the index policy and baselines on one instance.

    Deterministic policies run over the largest whole number of their cycles
    fitting in ``horizon`` (their time average is then the exact stationary
    value); the random baseline runs the full horizon once per seed and
    reports the mean over seeds.  Reductions are (baseline - index) / baseline
    when both sides are present.
    """
    from .solver import solve_threshold  # deferred: solver depends on cycles too

    rows: list[PolicyRow] = []
    index_avg = None
    index_policy = None
    l_opt = None
    for label in include:
        if label == "index":
            solution = solve_threshold(surface, config)
            index_policy = solution.policy
            l_opt = solution.l_opt
            cycle = full_cycle_length(config, index_policy)
            trace = run(surface, config, IndexThreshold(index_policy),
                        _snap_to_cycles(horizon, cycle))
            index_avg = trace.summary.avg_loss
            rows.append(PolicyRow("index", index_avg, trace.summary.clamp_count, 1))
        elif label == "rr":
            cycle = config.t1 + config.t2
            trace = run(surface, config, RoundRobin(), _snap_to_cycles(horizon, cycle))
            rows.append(PolicyRow("rr", trace.summary.avg_loss, trace.summary.clamp_count, 1))
        elif label == "rand":
            total = 0.0
            clamps = 0
            for seed in seeds:
                trace = run(surface, config, UniformRandom(seed), horizon)
                total += trace.summary.avg_loss
                clamps += trace.summary.clamp_count
            rows.append(PolicyRow("rand", total / len(seeds), clamps, len(seeds)))
        else:
            raise ValueError(f"unknown policy label {label!r}")

    reductions: dict[str, float] = {}
    if index_avg is not None:
        for row in rows:
            if row.policy == "index":
                continue
            reductions[row.policy] = (0.0 if row.avg_loss == 0.0
                                      else (row.avg_loss - index_avg) / row.avg_loss)
    return PolicyComparison(tuple(rows), reductions, index_policy, l_opt)
