"""Independent checks on the solver: exhaustive search and a Bellman certificate.

Stationary threshold policies form a finite family once the run cap is fixed,
so the claimed optimum can be verified by brute force over all (tau1, tau2)
pairs.  The Bellman check certifies optimality a second way: with relative
values assigned to the two restart states, the reported policy must attain the
minimum of the one-cycle Bellman operator at both, and the minima must
reproduce the relative values.  A wrong l_opt or a wrong policy breaks one of
those equalities with a visible gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycles import (CostTable, Modality, StationaryPolicy, SystemConfig, cycle_duration,
                     full_cycle_length)
from .surface import LossSurface


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive enumeration result over all threshold pairs."""

    best_policy: StationaryPolicy
    best_avg_cost: float
    table: np.ndarray  # average cost, indexed [tau1, tau2]
    ties: tuple[StationaryPolicy, ...]
    tie_tolerance: float

    def is_tie(self, policy: StationaryPolicy) -> bool:
        return float(self.table[policy.tau1, policy.tau2]) <= self.best_avg_cost + self.tie_tolerance


def brute_force_optimal(surface: LossSurface, config: SystemConfig) -> OracleReport:
    """Average cost of every (tau1, tau2) pair; the minimum and all near-ties.

    The table is one broadcast over the two cost columns.  The reported best
    policy is its first exact minimizer in row-major (tau1-major) order, and
    the ties are listed in the same row-major order.  Near-ties are within
    rounding of the minimum: an average over at most n slots, the longest
    cycle, is off by n * eps * bound_m.
    """
    costs = CostTable(surface, config)
    longest = full_cycle_length(config, StationaryPolicy(config.tau_max, config.tau_max))
    tie_tolerance = 2.0 * longest * float(np.finfo(np.float64).eps) * surface.bound_m
    runs = np.arange(1, config.tau_max + 2)
    table = (np.asarray(costs.c1)[:, None] + np.asarray(costs.c2)) \
        / (runs[:, None] * config.t1 + runs * config.t2)
    best = np.unravel_index(np.argmin(table), table.shape)
    best_avg_cost = float(table[best])
    ties = tuple(StationaryPolicy(int(tau1), int(tau2))
                 for tau1, tau2 in np.argwhere(table <= best_avg_cost + tie_tolerance))
    table.setflags(write=False)
    return OracleReport(
        best_policy=StationaryPolicy(int(best[0]), int(best[1])),
        best_avg_cost=best_avg_cost,
        table=table,
        ties=ties,
        tie_tolerance=tie_tolerance,
    )


@dataclass(frozen=True)
class BellmanCheck:
    """Outcome of the optimality certificate at both restart states.

    For each modality m: ``minimum[m-1]`` is the Bellman operator's minimum,
    ``argmin[m-1]`` the smallest minimizing decision, ``attainment_gap[m-1]``
    how far the checked policy's decision sits above that minimum, and
    ``fixpoint_gap[m-1]`` how far the minimum is from the restart state's
    relative value.
    """

    ok: bool
    tol: float
    l_opt: float
    h1: float
    h2: float
    minimum: tuple[float, float]
    argmin: tuple[int, int]
    attainment_gap: tuple[float, float]
    fixpoint_gap: tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tol": self.tol,
            "l_opt": self.l_opt,
            "h": [self.h1, self.h2],
            "minimum": list(self.minimum),
            "argmin": list(self.argmin),
            "attainment_gap": list(self.attainment_gap),
            "fixpoint_gap": list(self.fixpoint_gap),
        }


def verify_bellman(surface: LossSurface, config: SystemConfig, policy: StationaryPolicy,
                   l_opt: float, tol: float = 1e-8) -> BellmanCheck:
    """Certify (policy, l_opt) against the average-cost Bellman equation.

    Relative values are anchored at the second restart state (h2 = 0); h1 then
    follows from the first restart state's own cycle under the policy.  The
    check passes iff, at both restart states, the policy's decision attains
    the Bellman minimum and the minimum equals the state's relative value,
    all within tol.
    """
    if policy.tau1 > config.tau_max or policy.tau2 > config.tau_max:
        raise ValueError(f"policy {policy} exceeds tau_max={config.tau_max}")
    costs = CostTable(surface, config)
    h2 = 0.0
    h1 = costs.cost(Modality.M1, policy.tau1) \
        - cycle_duration(config, Modality.M1, policy.tau1) * l_opt
    h = {Modality.M1: h1, Modality.M2: h2}

    taus = np.arange(config.tau_max + 1)
    rows = []
    for modality in (Modality.M1, Modality.M2):
        values = (np.asarray(costs.c1 if modality is Modality.M1 else costs.c2)
                  - cycle_duration(config, modality, taus) * l_opt + h[modality.other])
        k = int(np.argmin(values))
        minimum = float(values[k])
        rows.append((minimum, k, float(values[policy.tau(modality)]) - minimum,
                     abs(minimum - h[modality])))
    minima, argmins, attainment, fixpoint = zip(*rows)

    ok = all(gap <= tol for gap in attainment + fixpoint)
    return BellmanCheck(
        ok=ok,
        tol=tol,
        l_opt=l_opt,
        h1=h1,
        h2=h2,
        minimum=minima,
        argmin=argmins,
        attainment_gap=attainment,
        fixpoint_gap=fixpoint,
    )
