"""Index-threshold solver for the optimal stationary transmission schedule.

The optimal schedule switches modalities the first time the current modality's
index reaches the optimal average loss.  The index of staying for another run
after theta runs is the cheapest per-slot rate at which the half-cycle cost
can be extended, minimized over how many further runs the extension spans.
The optimal average loss itself is the unique root of a balance function g:
total cycle cost of the threshold policy at beta, minus beta times its cycle
length.  g is concave, continuous, and strictly decreasing, so bisection on a
bracket derived from the surface bound always lands on the root.

Both tables are sums over ``cycles.restart_path``, the losses one gather
reads for each modality.  An index value's extension cost is built from row
sums of that array: whole added runs, the switch that ends the extension,
and the residue where the first added run and the displaced switch differ.
``solve_threshold`` returns the tables it solved on, so no caller builds
them a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cycles import CostTable, Modality, StationaryPolicy, SystemConfig, restart_path
from .errors import BracketError
from .surface import LossSurface

_MAX_BISECT = 500


@dataclass(frozen=True)
class IndexTable:
    """Per-modality index values gamma_m[theta], theta in 0..tau_max-1.

    gamma_m[theta] is the smallest per-slot rate over extensions of k more
    runs, k in 1..tau_max-theta; ``witness`` records the k attaining it (ties
    broken toward the smallest k).  Empty when tau_max == 0.
    """

    tau_max: int
    gamma1: tuple[float, ...]
    gamma2: tuple[float, ...]
    witness1: tuple[int, ...]
    witness2: tuple[int, ...]

    def gamma(self, modality: Modality) -> tuple[float, ...]:
        return self.gamma1 if modality is Modality.M1 else self.gamma2

    def witness(self, modality: Modality) -> tuple[int, ...]:
        return self.witness1 if modality is Modality.M1 else self.witness2


def _row_sums(block: np.ndarray) -> np.ndarray:
    """Each row summed left to right from 0.0, one column at a time."""
    total = np.zeros(block.shape[0])
    for column in block.T:
        total = total + column
    return total


def _index_column(surface: LossSurface, config: SystemConfig,
                  modality: Modality) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Index values and witnesses for one modality.

    The extension cost (half-cycle cost at theta+k minus at theta) telescopes
    into a sum over only the slots that actually differ, so it is computed
    directly from those terms instead of subtracting two large memoized
    totals.  That keeps the k=1 entries exact: with equal transmission times
    the old and new switch segments cancel term-for-term and nothing is lost
    to float cancellation.
    """
    tau_max = config.tau_max
    t_own = config.transmission_time(modality)
    t_other = config.transmission_time(modality.other)
    path = restart_path(surface, config, modality)
    # the first added run minus the displaced switch, per theta: their slots
    # coincide except for the overhang of the longer transmission time
    residue = _row_sums(path[:-1, min(t_own, t_other):max(t_own, t_other)])
    if t_own < t_other:
        residue = -residue
    blocks = _row_sums(path[1:-1, :t_own])  # runs 2..tau_max, all an extension adds whole
    tails = _row_sums(path[1:, :t_other])  # the switch after runs 1..tau_max

    gamma: list[float] = []
    witness: list[int] = []
    for theta in range(tau_max):
        acc = np.cumsum(np.concatenate(([residue[theta]], blocks[theta:])))
        rates = (acc + tails[theta:]) / (t_own * np.arange(1, tau_max - theta + 1))
        k = int(np.argmin(rates))  # the first minimum: ties go to the smallest k
        gamma.append(float(rates[k]))
        witness.append(k + 1)
    return tuple(gamma), tuple(witness)


def build_index_table(surface: LossSurface, config: SystemConfig) -> IndexTable:
    g1, w1 = _index_column(surface, config, Modality.M1)
    g2, w2 = _index_column(surface, config, Modality.M2)
    return IndexTable(config.tau_max, g1, g2, w1, w2)


def tau_opt(index_table: IndexTable, config: SystemConfig,
            modality: Modality, beta: float) -> int:
    """Threshold decision: first theta whose index reaches beta, capped at tau_max."""
    if index_table.tau_max != config.tau_max:
        raise ValueError(f"index table built for tau_max={index_table.tau_max}, "
                         f"config has {config.tau_max}")
    for theta, value in enumerate(index_table.gamma(modality)):
        if value >= beta:
            return theta
    return config.tau_max


def g_value(surface: LossSurface, config: SystemConfig, index_table: IndexTable,
            beta: float, *, costs: CostTable) -> float:
    """Balance function at beta, from the cost and index tables of `surface`."""
    p1 = tau_opt(index_table, config, Modality.M1, beta)
    p2 = tau_opt(index_table, config, Modality.M2, beta)
    total_cost = costs.cost(Modality.M1, p1) + costs.cost(Modality.M2, p2)
    total_len = (p1 + 1) * config.t1 + (p2 + 1) * config.t2
    return total_cost - beta * total_len


@dataclass(frozen=True)
class ThresholdSolution:
    """Root of the balance function and the threshold policy it certifies.

    ``bracket`` is the final bisection interval (width <= tol) and l_opt its
    midpoint; ``residual`` is g(l_opt).  ``saturated`` flags a policy pinned
    at tau_max, where a larger cap might still lower the average loss.
    ``costs`` and ``index_table`` are the tables the root was found on, kept
    so callers reuse them instead of building them again.
    """

    l_opt: float
    policy: StationaryPolicy
    iterations: int
    residual: float
    bracket: tuple[float, float]
    saturated: bool
    costs: CostTable = field(compare=False, repr=False)
    index_table: IndexTable = field(compare=False, repr=False)


def solve_threshold(surface: LossSurface, config: SystemConfig,
                    tol: float = 1e-9) -> ThresholdSolution:
    """Find the optimal average loss and its threshold policy by bisection.

    The initial bracket is [-bound_m, +bound_m]: every policy's average loss
    is a mean of surface values, so the root lies inside.  One widening pass
    absorbs the boundary case where the root sits exactly on the bound; a
    bracket that still fails to straddle the root raises BracketError.
    Bisection continues until both the bracket width and the residual at the
    midpoint are within tol.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    costs = CostTable(surface, config)
    index_table = build_index_table(surface, config)

    def g(beta: float) -> float:
        return g_value(surface, config, index_table, beta, costs=costs)

    bound = surface.bound_m
    lo, hi = -bound, bound
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    if not (g(lo) >= 0.0 >= g(hi)):
        lo, hi = 2.0 * lo - 1.0, 2.0 * hi + 1.0
        if not (g(lo) >= 0.0 >= g(hi)):
            raise BracketError(
                f"balance function does not change sign on [{lo}, {hi}]; "
                "surface and configuration are inconsistent")

    iterations = 0
    while iterations < _MAX_BISECT:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol and abs(g(0.5 * (lo + hi))) <= tol:
            break

    l_opt = 0.5 * (lo + hi)
    # the policy is read at the left bracket end: g(lo) >= 0 puts lo at or
    # below the root, where the inclusive threshold comparison is stable even
    # when many decisions tie exactly at the optimum (constant surfaces)
    policy = StationaryPolicy(tau_opt(index_table, config, Modality.M1, lo),
                              tau_opt(index_table, config, Modality.M2, lo))
    saturated = config.tau_max > 0 and (policy.tau1 == config.tau_max
                                        or policy.tau2 == config.tau_max)
    return ThresholdSolution(
        l_opt=l_opt,
        policy=policy,
        iterations=iterations,
        residual=g(l_opt),
        bracket=(lo, hi),
        saturated=saturated,
        costs=costs,
        index_table=index_table,
    )
