"""Shared test helpers: hand-built surfaces, random instance sampling, scalar references."""

from __future__ import annotations

import numpy as np

from aoisched import (LossSurface, Modality, SurfaceSpec, SystemConfig,
                      generate_surface, required_domain)


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
