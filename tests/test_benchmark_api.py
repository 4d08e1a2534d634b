"""The package surface the benchmark in perfbench/ calls into.

perfbench/tracing.py wraps functions at the module attributes the program
calls them through, and perfbench/workloads.py calls the layers directly to
check outputs; a rename or a new required argument would break the benchmark
without failing any other test.
"""

import importlib
import importlib.util
import os
import sys

import pytest

from aoisched import (CostTable, SurfaceSpec, SystemConfig, brute_force_optimal,
                      build_index_table, g_value, generate_surface,
                      required_domain, solve_threshold)

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_traced_bindings_resolve():
    for module_name, attr, _ in _tracing_module().BINDINGS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_positional_calls_of_the_workloads():
    config = SystemConfig(2, 3, 6)
    surface = generate_surface(SurfaceSpec("nonmono_nonsep", *required_domain(config), {}))
    costs = CostTable(surface, config)
    index_table = build_index_table(surface, config)
    oracle = brute_force_optimal(surface, config)
    assert isinstance(g_value(surface, config, index_table, 0.0, costs=costs), float)
    solution = solve_threshold(surface, config, 1e-9)
    assert solution.iterations > 0
    assert solution.l_opt == pytest.approx(oracle.best_avg_cost, abs=1e-8)
