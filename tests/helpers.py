"""Shared test helpers: hand-built surfaces, random instance sampling, scalar references."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from aoisched import (BellmanCheck, CostTable, IndexThreshold, LossSurface,
                      Modality, OracleReport, RestartState, RoundRobin,
                      SimSummary, SimTrace, StationaryPolicy, SurfaceSpec,
                      SystemConfig, UniformRandom, cycle_duration,
                      full_cycle_length, generate_surface, required_domain,
                      tau_opt)
from aoisched.sim import _policy_label


# (generator, params) pairs for all five generators, over wide parameter ranges
GENERATOR_PARAMS = st.one_of(
    st.builds(lambda v: ("constant", {"value": v}), st.floats(-50.0, 50.0)),
    st.just(("aoi_sum", {})),
    st.builds(lambda a, b: ("aoi_weighted", {"w1": a, "w2": b}),
              st.floats(0.05, 4.0), st.floats(0.05, 4.0)),
    st.builds(lambda a, b: ("monotone_power", {"p1": a, "p2": b}),
              st.floats(0.0, 1.6), st.floats(0.0, 1.6)),
    st.builds(lambda d, c, p1, p2: ("nonmono_nonsep", {"dip": d, "cross": c, "p1": p1, "p2": p2}),
              st.floats(0.0, 3.0), st.floats(-3.0, 3.0), st.floats(2.0, 40.0), st.floats(2.0, 40.0)),
)


def make_surface(fn, d1: int, d2: int) -> LossSurface:
    """Surface from a python function of 1-based ages."""
    grid = np.array([[float(fn(i, j)) for j in range(1, d2 + 1)]
                     for i in range(1, d1 + 1)], dtype=np.float64)
    return LossSurface(grid)


def monotone_random_surface(rng: np.random.Generator, d1: int, d2: int,
                            coupled: bool = True) -> LossSurface:
    """Random surface non-decreasing in each age, increments bounded away from 0."""
    f1 = np.cumsum(rng.uniform(0.01, 1.0, size=d1))
    f2 = np.cumsum(rng.uniform(0.01, 1.0, size=d2))
    grid = f1[:, None] + f2[None, :]
    if coupled:
        g1 = np.cumsum(rng.uniform(0.0, 0.05, size=d1))
        g2 = np.cumsum(rng.uniform(0.0, 0.05, size=d2))
        grid = grid + g1[:, None] * g2[None, :]
    return LossSurface(grid)


def random_instance(rng: np.random.Generator):
    """A random (surface, config, generator-name) triple.

    Generator parameters are kept small enough that cycle costs stay within a
    few hundred thousand, where the certification tolerances in the
    acceptance tests have comfortable float headroom.
    """
    t1 = int(rng.integers(1, 7))
    t2 = int(rng.integers(1, 7))
    tau_max = int(rng.integers(2, 21))
    config = SystemConfig(t1, t2, tau_max)
    kind = int(rng.integers(0, 5))
    if kind == 0:
        name, params = "constant", {"value": float(rng.uniform(-10.0, 10.0))}
    elif kind == 1:
        name, params = "aoi_sum", {}
    elif kind == 2:
        name, params = "aoi_weighted", {"w1": float(rng.uniform(0.1, 1.5)),
                                        "w2": float(rng.uniform(0.1, 1.5))}
    elif kind == 3:
        name, params = "monotone_power", {"p1": float(rng.uniform(0.5, 1.05)),
                                          "p2": float(rng.uniform(0.5, 1.05))}
    else:
        name, params = "nonmono_nonsep", {
            "base": float(rng.uniform(0.5, 3.0)),
            "a1": float(rng.uniform(1.0, 8.0)),
            "a2": float(rng.uniform(0.5, 4.0)),
            "cross": float(rng.uniform(0.0, 3.0)),
            "dip": float(rng.uniform(0.2, 2.0)),
            "s1": float(rng.uniform(3.0, 20.0)),
            "s2": float(rng.uniform(3.0, 40.0)),
            "p1": float(rng.uniform(5.0, 19.0)),
            "p2": float(rng.uniform(5.0, 23.0)),
        }
    d1_req, d2_req = required_domain(config)
    surface = generate_surface(SurfaceSpec(name, d1_req, d2_req, params))
    return surface, config, name


# The index solver's scalar engine, kept as the reference the gathered
# index table must reproduce bitwise.
def reference_index_column(surface: LossSurface, config: SystemConfig,
                           modality: Modality) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Index values and witnesses for one modality.

    The extension cost (half-cycle cost at theta+k minus at theta) telescopes
    into a sum over only the slots that actually differ, so it is computed
    directly from those terms instead of subtracting two large memoized
    totals.  That keeps the k=1 entries exact: with equal transmission times
    the old and new switch segments cancel term-for-term and nothing is lost
    to float cancellation.
    """
    t_own = config.transmission_time(modality)
    t_other = config.transmission_time(modality.other)
    ev = surface.eval

    if modality is Modality.M1:
        def term(x: int, i: int) -> float:
            return ev(t_own + i, x + i)
    else:
        def term(x: int, i: int) -> float:
            return ev(x + i, t_own + i)

    def anchor(j: int) -> int:
        # other-modality age at the start of the j-th same-modality run
        return j * t_own + t_other

    tau_max = config.tau_max
    if tau_max == 0:
        return (), ()

    # cost of the j-th same-modality run (j >= 2 is all an extension ever adds whole)
    blocks = {}
    for j in range(2, tau_max + 1):
        x = anchor(j)
        s = 0.0
        for i in range(t_own):
            s += term(x, i)
        blocks[j] = s

    # cost of the switch segment when it happens after run tau
    tails = {}
    for tau in range(1, tau_max + 1):
        x = anchor(tau + 1)
        s = 0.0
        for i in range(t_other):
            s += term(x, i)
        tails[tau] = s

    def residue(theta: int) -> float:
        # first added run minus the displaced switch segment; their slots
        # coincide except for the overhang of the longer transmission time
        x = anchor(theta + 1)
        if t_own > t_other:
            s = 0.0
            for i in range(t_other, t_own):
                s += term(x, i)
            return s
        if t_own < t_other:
            s = 0.0
            for i in range(t_own, t_other):
                s += term(x, i)
            return -s
        return 0.0

    gamma: list[float] = []
    witness: list[int] = []
    for theta in range(tau_max):
        acc = residue(theta)
        best = float("inf")
        best_k = 0
        for k in range(1, tau_max - theta + 1):
            if k >= 2:
                acc += blocks[theta + k]
            rate = (acc + tails[theta + k]) / (k * t_own)
            if rate < best:
                best = rate
                best_k = k
        gamma.append(best)
        witness.append(best_k)
    return tuple(gamma), tuple(witness)


# The oracle's and verify's loops over decisions, kept as the references the
# array expressions in ``aoisched.oracle`` and ``aoisched.cli`` must reproduce
# bitwise.
def reference_brute_force(surface: LossSurface, config: SystemConfig) -> OracleReport:
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


def reference_bellman(surface: LossSurface, config: SystemConfig, policy: StationaryPolicy,
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


def reference_threshold_minimizer(surface, config, costs, index_table, seed, n_betas):
    rng = np.random.default_rng(seed)
    bound = surface.bound_m if surface.bound_m > 0 else 1.0
    mismatches = []
    for modality in (Modality.M1, Modality.M2):
        gammas = index_table.gamma(modality)
        if gammas:
            lo, hi = min(gammas) - 1.0, max(gammas) + 1.0
        else:
            lo, hi = -bound - 1.0, bound + 1.0
        betas = [float(b) for b in rng.uniform(lo, hi, size=n_betas)]
        betas += [lo - 1.0, hi + 1.0]  # force the unconstrained and saturated cases
        t_m = config.transmission_time(modality)
        for beta in betas:
            objective = [costs.cost(modality, tau) - tau * t_m * beta
                         for tau in range(config.tau_max + 1)]
            enum = objective.index(min(objective))
            fast = tau_opt(index_table, config, modality, beta)
            if enum != fast:
                mismatches.append({"modality": int(modality), "beta": beta,
                                   "enumerated": enum, "threshold": fast})
    return {
        "ok": not mismatches,
        "betas_per_modality": n_betas + 2,
        "mismatches": mismatches[:5],
    }


# The simulator's slot-at-a-time engine, kept as the reference the array
# computation in ``aoisched.sim.run`` must reproduce bitwise.

@dataclass(frozen=True, slots=True)
class InFlight:
    """The transmission currently occupying the channel."""

    modality: Modality
    start: int
    delivery: int


@dataclass(frozen=True, slots=True)
class SimState:
    t: int
    aoi: tuple[int, int]
    in_flight: InFlight | None


def step_aoi(state: SimState, config: SystemConfig) -> SimState:
    """Advance one slot: ages grow by one, except a delivery resets its modality.

    A completed transmission leaves ``in_flight`` empty; the policy layer fills
    it again at the same slot.
    """
    t = state.t + 1
    a1, a2 = state.aoi
    tx = state.in_flight
    if tx is not None and tx.delivery == t:
        if tx.modality is Modality.M1:
            return SimState(t, (config.t1, a2 + 1), None)
        return SimState(t, (a1 + 1, config.t2), None)
    return SimState(t, (a1 + 1, a2 + 1), tx)


def _decider(policy, initial_state: RestartState, config: SystemConfig):
    """Stateful decision stream, returning modality ints in transmission order."""
    first = initial_state.modality
    if isinstance(policy, IndexThreshold):
        tau1, tau2 = policy.policy.tau1, policy.policy.tau2
        if tau1 > config.tau_max or tau2 > config.tau_max:
            raise ValueError(f"policy {policy.policy} exceeds tau_max={config.tau_max}")
        phase1 = [1] * tau1 + [2]
        phase2 = [2] * tau2 + [1]
        pattern = phase1 + phase2 if first is Modality.M1 else phase2 + phase1
        return itertools.cycle(pattern).__next__
    if isinstance(policy, RoundRobin):
        start = 2 if first is Modality.M1 else 1
        return itertools.cycle([start, 3 - start]).__next__
    if isinstance(policy, UniformRandom):
        rng = np.random.Generator(np.random.PCG64(policy.seed))
        draw = rng.integers

        def next_random() -> int:
            return 1 + int(draw(0, 2))

        return next_random
    raise TypeError(f"unknown policy kind {policy!r}")


def reference_run(surface: LossSurface, config: SystemConfig, policy, horizon: int,
                  initial_state: RestartState | None = None, warmup: int = 0) -> SimTrace:
    """One slot per loop iteration, one decision per draw, one lookup per slot.

    A lookup beyond the grid reads the edge cell and counts once per slot.
    """
    if initial_state is None:
        initial_state = RestartState(Modality.M1)
    decide = _decider(policy, initial_state, config)
    values = surface.values
    clamp_count = 0
    t1, t2 = config.t1, config.t2
    total_slots = warmup + horizon

    d1 = np.empty(total_slots, dtype=np.int64)
    d2 = np.empty(total_slots, dtype=np.int64)
    loss = np.empty(total_slots, dtype=np.float64)
    transmissions: list[tuple[int, int, int]] = []

    a1, a2 = initial_state.aoi_vector(config)
    m = decide()
    delivery = t1 if m == 1 else t2
    transmissions.append((m, 0, delivery))

    for t in range(total_slots):
        if t > 0:
            if t == delivery:
                if m == 1:
                    a1 = t1
                    a2 += 1
                else:
                    a2 = t2
                    a1 += 1
                m = decide()
                delivery = t + (t1 if m == 1 else t2)
                transmissions.append((m, t, delivery))
            else:
                a1 += 1
                a2 += 1
        d1[t] = a1
        d2[t] = a2
        if a1 > surface.d1_max or a2 > surface.d2_max:
            clamp_count += 1
        loss[t] = float(values[min(a1, surface.d1_max) - 1, min(a2, surface.d2_max) - 1])

    total_loss = 0.0
    for x in loss[warmup:].tolist():
        total_loss += x
    summary = SimSummary(
        policy=_policy_label(policy),
        horizon=horizon,
        warmup=warmup,
        total_loss=total_loss,
        avg_loss=total_loss / horizon,
        clamp_count=clamp_count,
        seed=policy.seed if isinstance(policy, UniformRandom) else None,
        tau1=policy.policy.tau1 if isinstance(policy, IndexThreshold) else None,
        tau2=policy.policy.tau2 if isinstance(policy, IndexThreshold) else None,
    )
    return SimTrace(d1, d2, loss, np.array(transmissions, dtype=np.int64).reshape(-1, 3),
                    summary)
