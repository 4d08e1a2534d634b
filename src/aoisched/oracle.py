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

    Iteration order is tau1-major ascending, so the reported best policy is
    the lexicographically smallest exact minimizer and the tie list order is
    deterministic.  Near-ties are within rounding of the minimum: an average
    over at most n slots, the longest cycle, is off by n * eps * bound_m.
    """
    costs = CostTable(surface, config)
    longest = full_cycle_length(config, StationaryPolicy(config.tau_max, config.tau_max))
    tie_tolerance = 2.0 * longest * float(np.finfo(np.float64).eps) * surface.bound_m
    n = config.tau_max + 1
    table = np.empty((n, n), dtype=np.float64)
    best = float("inf")
    best_pair = (0, 0)
    for tau1 in range(n):
        len1 = (tau1 + 1) * config.t1
        c1 = costs.c1[tau1]
        for tau2 in range(n):
            avg = (c1 + costs.c2[tau2]) / (len1 + (tau2 + 1) * config.t2)
            table[tau1, tau2] = avg
            if avg < best:
                best = avg
                best_pair = (tau1, tau2)
    ties = tuple(StationaryPolicy(tau1, tau2)
                 for tau1 in range(n)
                 for tau2 in range(n)
                 if table[tau1, tau2] <= best + tie_tolerance)
    table.setflags(write=False)
    return OracleReport(
        best_policy=StationaryPolicy(*best_pair),
        best_avg_cost=best,
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

    minima: list[float] = []
    argmins: list[int] = []
    attainment: list[float] = []
    fixpoint: list[float] = []
    for modality in (Modality.M1, Modality.M2):
        h_next = h[modality.other]
        values = [costs.cost(modality, tau)
                  - cycle_duration(config, modality, tau) * l_opt
                  + h_next
                  for tau in range(config.tau_max + 1)]
        minimum = min(values)
        minima.append(minimum)
        argmins.append(values.index(minimum))
        attainment.append(values[policy.tau(modality)] - minimum)
        fixpoint.append(abs(minimum - h[modality]))

    ok = all(gap <= tol for gap in attainment) and all(gap <= tol for gap in fixpoint)
    return BellmanCheck(
        ok=ok,
        tol=tol,
        l_opt=l_opt,
        h1=h1,
        h2=h2,
        minimum=(minima[0], minima[1]),
        argmin=(argmins[0], argmins[1]),
        attainment_gap=(attainment[0], attainment[1]),
        fixpoint_gap=(fixpoint[0], fixpoint[1]),
    )
