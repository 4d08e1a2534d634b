"""Age-aware transmission scheduling for two-modality remote inference.

A scheduler must decide, after each delivery, which modality to transmit
next.  Inference error is a bounded function of the two ages of information,
given as a finite grid (a loss surface).  This package computes the optimal
stationary threshold policy exactly, certifies it against dynamic-programming
optimality conditions, and simulates it against baselines.
"""

from .cycles import (CostTable, Modality, RestartState, StationaryPolicy,
                     SystemConfig, cycle_cost, cycle_duration,
                     full_cycle_length, stationary_average_cost)
from .errors import (BadSpec, HoleError, NonFiniteError, OutOfDomain, ParseError,
                     SurfaceError)
from .oracle import (BellmanCheck, OracleReport, brute_force_optimal,
                     verify_bellman)
from .sim import (IndexThreshold, PolicyComparison, PolicyRow, RoundRobin,
                  SimSummary, SimTrace, UniformRandom, compare_policies, run,
                  write_trace_csv, write_transmissions_csv)
from .solver import (IndexTable, ThresholdSolution, build_index_table,
                     g_value, solve_threshold, tau_opt)
from .surface import (GENERATORS, LossSurface, SurfaceSpec,
                      generate_surface, load_surface, parse_generator_spec,
                      required_domain, save_surface)

__version__ = "0.1.0"

__all__ = [
    "BadSpec",
    "BellmanCheck",
    "CostTable",
    "GENERATORS",
    "HoleError",
    "IndexTable",
    "IndexThreshold",
    "LossSurface",
    "Modality",
    "NonFiniteError",
    "OracleReport",
    "OutOfDomain",
    "ParseError",
    "PolicyComparison",
    "PolicyRow",
    "RestartState",
    "RoundRobin",
    "SimSummary",
    "SimTrace",
    "StationaryPolicy",
    "SurfaceError",
    "SurfaceSpec",
    "SystemConfig",
    "ThresholdSolution",
    "UniformRandom",
    "brute_force_optimal",
    "build_index_table",
    "compare_policies",
    "cycle_cost",
    "cycle_duration",
    "full_cycle_length",
    "g_value",
    "generate_surface",
    "load_surface",
    "parse_generator_spec",
    "required_domain",
    "run",
    "save_surface",
    "solve_threshold",
    "stationary_average_cost",
    "tau_opt",
    "verify_bellman",
    "write_trace_csv",
    "write_transmissions_csv",
]
