"""The package surface the benchmark in perfbench/ calls into.

perfbench/tracing.py wraps functions at the module attributes the program
calls them through, and perfbench/workloads.py calls the layers directly to
check outputs; a rename or a new required argument would break the benchmark
without failing any other test.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import os
import sys

import pytest

import aoisched
from aoisched import (CostTable, IndexThreshold, StationaryPolicy, SurfaceSpec,
                      SystemConfig, brute_force_optimal, build_index_table,
                      g_value, generate_surface, required_domain, run,
                      solve_threshold, write_transmissions_csv)
from aoisched.cli import main as cli_main

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


def test_every_exported_name_resolves():
    for name in aoisched.__all__:
        assert hasattr(aoisched, name), name


def test_simulator_counts_read_by_the_tracer(tmp_path):
    # tracing._count reads .slots, .summary.clamp_count and len(.transmissions)
    config = SystemConfig(2, 3, 4)
    surface = generate_surface(SurfaceSpec("aoi_sum", 6, 6, {}))
    trace = run(surface, config, IndexThreshold(StationaryPolicy(2, 1)), 300, None, 7)
    assert trace.slots == 307
    assert trace.summary.clamp_count > 0
    path = tmp_path / "transmissions.csv"
    write_transmissions_csv(trace, path)
    rows = path.read_text().splitlines()[1:]
    assert len(trace.transmissions) == len(rows) > 1


def test_simulate_flags_of_the_workloads(tmp_path):
    # the argv shapes perfbench/workloads.py passes, run the way it runs them
    base = ["simulate", "--gen", "nonmono_nonsep", "--t1", "2", "--t2", "3", "--tau-max", "6",
            "--horizon", "500"]
    for extra in (["--policy", "index", "--out", str(tmp_path / "sim")],
                  ["--policy", "rr"],
                  ["--policy", "rand", "--seed", "4"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(base + extra, standalone_mode=False)
        assert json.loads(out.getvalue())["horizon"] == 500
    assert sorted(os.listdir(tmp_path / "sim")) == [
        "manifest.json", "summary.json", "trace.csv", "transmissions.csv"]


def test_oracle_fields_read_by_the_workloads():
    # workloads.py reads oracle.table[tau1, tau2], .best_avg_cost and .is_tie(policy)
    config = SystemConfig(2, 3, 6)
    surface = generate_surface(SurfaceSpec("nonmono_nonsep", *required_domain(config), {}))
    oracle = brute_force_optimal(surface, config)
    policy = solve_threshold(surface, config).policy
    assert isinstance(oracle.table[policy.tau1, policy.tau2], float)
    assert type(oracle.best_avg_cost) is float
    assert type(oracle.is_tie(policy)) is bool


def test_verify_flags_of_the_workloads():
    # the certify workload passes verify a --seed drawn below 2**31
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["verify", "--gen", "nonmono_nonsep", "--t1", "2", "--t2", "3", "--tau-max", "6",
                  "--seed", str(2**31 - 1)], standalone_mode=False)
    report = json.loads(out.getvalue())
    assert report["ok"] is True
    assert report["checks"]["threshold_minimizer"]["betas_per_modality"] == 52
