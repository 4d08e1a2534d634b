"""Restart-cycle cost model for the two-modality transmission system.

The scheduler sends one feature at a time over a shared channel; modality m
occupies the channel for t_m slots.  Work conservation plus the age dynamics
mean the system state at every delivery of modality m is the same "restart"
age vector, so any schedule decomposes into cycles between the two restart
states.  This module prices those cycles: the total loss accrued while making
tau more consecutive transmissions of the current modality and then one of the
other, as a function of tau.  Everything downstream (index solver, oracle,
simulator checks) is built on these sums.

``restart_path`` gathers the losses a half-cycle can visit; ``CostTable`` and
the solver's index table are sums over it.  Summation order is fixed (runs
outer, slots inner, ascending, from 0.0) and shared with ``cycle_cost``, the
scalar reference, so every table is bitwise-reproducible and matches a
slot-by-slot simulation of the same segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import OutOfDomain, SurfaceError
from .surface import LossSurface, required_domain


class Modality(IntEnum):
    M1 = 1
    M2 = 2

    @property
    def other(self) -> "Modality":
        return Modality.M2 if self is Modality.M1 else Modality.M1


@dataclass(frozen=True, slots=True)
class SystemConfig:
    """Transmission times (slots per feature) and the consecutive-run cap."""

    t1: int
    t2: int
    tau_max: int = 50

    def __post_init__(self):
        for name in ("t1", "t2", "tau_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.t1 < 1 or self.t2 < 1:
            raise ValueError(f"transmission times must be >= 1, got t1={self.t1}, t2={self.t2}")
        if self.tau_max < 0:
            raise ValueError(f"tau_max must be >= 0, got {self.tau_max}")

    def transmission_time(self, modality: Modality) -> int:
        return self.t1 if modality is Modality.M1 else self.t2


@dataclass(frozen=True, slots=True)
class RestartState:
    """The recurring age vector hit at every delivery of one modality.

    When modality m is delivered, its age resets to t_m while the other
    modality's age equals t_m plus its own transmission time (it was refreshed
    exactly one transmission earlier under work conservation).
    """

    modality: Modality

    def aoi_vector(self, config: SystemConfig) -> tuple[int, int]:
        if self.modality is Modality.M1:
            return (config.t1, config.t1 + config.t2)
        return (config.t1 + config.t2, config.t2)


@dataclass(frozen=True, slots=True)
class StationaryPolicy:
    """Threshold pair: tau_m extra same-modality transmissions after each restart of m."""

    tau1: int
    tau2: int

    def __post_init__(self):
        for value in (self.tau1, self.tau2):
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"thresholds must be integers >= 0, "
                                 f"got ({self.tau1!r}, {self.tau2!r})")

    def tau(self, modality: Modality) -> int:
        return self.tau1 if modality is Modality.M1 else self.tau2


def cycle_duration(config: SystemConfig, modality: Modality, tau: int) -> int:
    """Slots from a restart of `modality`, through tau same-modality runs and one switch."""
    if modality is Modality.M1:
        return tau * config.t1 + config.t2
    return tau * config.t2 + config.t1


def cycle_cost(surface: "LossSurface", config: SystemConfig, modality: Modality, tau: int) -> float:
    """Total loss over one half-cycle: tau more runs of `modality`, then one switch.

    Slot accounting starts at the restart slot itself and stops just before
    the switch delivery (which is the next restart slot).  The summand count
    therefore equals cycle_duration(config, modality, tau).
    """
    if not 0 <= tau <= config.tau_max:
        raise ValueError(f"tau must be in 0..{config.tau_max}, got {tau}")
    t1, t2 = config.t1, config.t2
    ev = surface.eval
    total = 0.0
    if modality is Modality.M1:
        for j in range(1, tau + 1):
            base = j * t1 + t2
            for i in range(t1):
                total += ev(t1 + i, base + i)
        base = (tau + 1) * t1 + t2
        for i in range(t2):
            total += ev(t1 + i, base + i)
    else:
        for j in range(1, tau + 1):
            base = t1 + j * t2
            for i in range(t2):
                total += ev(base + i, t2 + i)
        base = t1 + (tau + 1) * t2
        for i in range(t1):
            total += ev(base + i, t2 + i)
    return total


def restart_path(surface: LossSurface, config: SystemConfig, modality: Modality) -> np.ndarray:
    """Losses of the slots that follow a restart of `modality`, gathered in one read.

    Row j-1, column i is the loss i slots into the transmission that starts
    after j transmissions of `modality` since its restart, j in 1..tau_max+1:
    the j-th extra run when it repeats `modality` (i < t_own), the switch when
    it does not (i < t_other).  Every half-cycle cost is a sum of these
    entries.  No half-cycle runs past tau_max, so the last row holds the
    switch only and its remaining entries are NaN.

    With n the longest full cycle and M = max(bound_m, 1), no intermediate of
    the tables, the oracle, the Bellman check or verify's betas (|beta| <=
    5 * max|gamma| + 2M) exceeds 16 * n * M; a surface for which that is not
    finite raises SurfaceError.
    """
    d1_req, d2_req = required_domain(config)
    if not surface.covers(d1_req, d2_req):
        raise OutOfDomain(d1_req, d2_req, surface.d1_max, surface.d2_max,
                          note=f"surface too small for t1={config.t1}, t2={config.t2}, "
                               f"tau_max={config.tau_max}")
    n = full_cycle_length(config, StationaryPolicy(config.tau_max, config.tau_max))
    if not np.isfinite(16.0 * n * max(surface.bound_m, 1.0)):
        raise SurfaceError(f"surface bound_m={surface.bound_m!r} too large for t1={config.t1}, t2="
                           f"{config.t2}, tau_max={config.tau_max}: sums over {n} slots overflow")
    t_own = config.transmission_time(modality)
    t_other = config.transmission_time(modality.other)
    j = np.arange(1, config.tau_max + 2)[:, None]
    i = np.arange(max(t_own, t_other))[None, :]
    own_age, other_age = np.broadcast_arrays(t_own + i, j * t_own + t_other + i)
    grid = surface.values if modality is Modality.M1 else surface.values.T
    visited = (i < t_other) | (j <= config.tau_max)
    path = np.full(visited.shape, np.nan)
    path[visited] = grid[own_age[visited] - 1, other_age[visited] - 1]
    return path


def _half_cycle_costs(surface: LossSurface, config: SystemConfig,
                      modality: Modality) -> tuple[float, ...]:
    path = restart_path(surface, config, modality)
    t_own = config.transmission_time(modality)
    # running sum over the slots of runs 1..tau_max, read after every whole run
    runs = np.concatenate(([0.0], path[:-1, :t_own].ravel()))
    costs = np.cumsum(runs)[::t_own]
    for i in range(config.transmission_time(modality.other)):
        costs = costs + path[:, i]
    return tuple(costs.tolist())


class CostTable:
    """Half-cycle costs for every decision 0..tau_max, bitwise equal to cycle_cost."""

    __slots__ = ("config", "c1", "c2")

    def __init__(self, surface: "LossSurface", config: SystemConfig):
        self.config = config
        self.c1, self.c2 = (_half_cycle_costs(surface, config, m) for m in Modality)

    def cost(self, modality: Modality, tau: int) -> float:
        return (self.c1 if modality is Modality.M1 else self.c2)[tau]


def full_cycle_length(config: SystemConfig, policy: StationaryPolicy) -> int:
    """Slots for one full orbit restart(1) -> restart(2) -> restart(1) under `policy`."""
    return (policy.tau1 + 1) * config.t1 + (policy.tau2 + 1) * config.t2


def stationary_average_cost(surface: "LossSurface", config: SystemConfig,
                            policy: StationaryPolicy) -> float:
    """Long-run average loss of a threshold policy: total cycle loss over cycle length."""
    if policy.tau1 > config.tau_max or policy.tau2 > config.tau_max:
        raise ValueError(f"policy {policy} exceeds tau_max={config.tau_max}")
    c1 = cycle_cost(surface, config, Modality.M1, policy.tau1)
    c2 = cycle_cost(surface, config, Modality.M2, policy.tau2)
    return (c1 + c2) / full_cycle_length(config, policy)
