"""Index-threshold solver for the optimal stationary transmission schedule.

The optimal schedule switches modalities the first time the current modality's
index reaches the optimal average loss.  The index of staying for another run
after theta runs is the cheapest per-slot rate at which the half-cycle cost
can be extended, minimized over how many further runs the extension spans.
The optimal average loss itself is the smallest cycle-cost ratio C(p) / L(p)
over threshold policies p, the root of the balance function g: total cycle
cost of the threshold policy at beta, minus beta times its cycle length.
Dinkelbach iteration finds it exactly: the thresholds at beta minimize
C(p) - beta * L(p), so a policy read off the index table at the current ratio
either has a strictly smaller ratio or certifies that the current one is the
minimum.  The ratios strictly decrease over a finite set of policies, so the
loop ends, and no tolerance is involved.

Both tables are sums over ``cycles.restart_path``, the losses one gather
reads for each modality.  An index value's extension cost is built from row
sums of that array: whole added runs, the switch that ends the extension,
and the residue where the first added run and the displaced switch differ.
``solve_threshold`` returns the tables it solved on, so no caller builds
them a second time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cycles import (CostTable, Modality, StationaryPolicy, SystemConfig, full_cycle_length,
                     restart_path)
from .surface import LossSurface


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

    @cached_property
    def _running_max(self) -> tuple[np.ndarray, np.ndarray]:
        # tau_opt's search keys, built once per table rather than once per beta
        return tuple(np.maximum.accumulate(np.asarray(g, dtype=np.float64))
                     for g in (self.gamma1, self.gamma2))


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
    # theta reaches beta exactly when the running maximum up to theta does
    return int(np.searchsorted(index_table._running_max[modality - 1], beta, "left"))


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
    """The optimal average loss and the threshold policy that attains it.

    ``l_opt`` is the policy's average loss, computed as the oracle computes
    its table entry, so the two agree bitwise.  ``iterations`` counts the
    policies Dinkelbach iteration read off the index table; ``residual`` is
    g(l_opt), zero up to rounding.  ``saturated`` flags a policy pinned at
    tau_max, where a larger cap might still lower the average loss.
    ``costs`` and ``index_table`` are the tables the policy was found on,
    kept so callers reuse them instead of building them again.
    """

    l_opt: float
    policy: StationaryPolicy
    iterations: int
    residual: float
    saturated: bool
    costs: CostTable = field(compare=False, repr=False)
    index_table: IndexTable = field(compare=False, repr=False)


def solve_threshold(surface: LossSurface, config: SystemConfig,
                    tol=None) -> ThresholdSolution:
    """Find the optimal average loss and its threshold policy by Dinkelbach iteration.

    Starting from policy (0, 0) with beta its average loss, each step reads
    the thresholds at beta off the index table.  The loop stops at the first
    policy whose average is not strictly below beta and returns the one
    before it.  ``tol`` is ignored: it remains only because
    perfbench/workloads.py:446 passes it positionally and
    tests/test_benchmark_api.py:52 pins that call.
    """
    costs = CostTable(surface, config)
    index_table = build_index_table(surface, config)

    def average(policy: StationaryPolicy) -> float:
        return ((costs.c1[policy.tau1] + costs.c2[policy.tau2])
                / full_cycle_length(config, policy))

    policy = StationaryPolicy(0, 0)
    l_opt = average(policy)
    iterations = 0
    while True:
        iterations += 1
        candidate = StationaryPolicy(tau_opt(index_table, config, Modality.M1, l_opt),
                                     tau_opt(index_table, config, Modality.M2, l_opt))
        value = average(candidate)
        if not value < l_opt:
            break
        policy, l_opt = candidate, value

    saturated = config.tau_max > 0 and (policy.tau1 == config.tau_max
                                        or policy.tau2 == config.tau_max)
    return ThresholdSolution(
        l_opt=l_opt,
        policy=policy,
        iterations=iterations,
        residual=g_value(surface, config, index_table, l_opt, costs=costs),
        saturated=saturated,
        costs=costs,
        index_table=index_table,
    )
