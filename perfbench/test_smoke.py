"""Smoke test of the benchmark itself, at the tiny size.  Not part of the tier-1 suite.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "simulate", "sweep", "files")

# end-to-end metrics each workload prints, beyond those BENCHMARK.json names
E2E_ALL = {"ops_per_s", "op_median_s", "ref_s", "ops_failed_frac"}
E2E_BY_WORKLOAD = {
    "certify": E2E_ALL | {"certify_per_s", "solve_s", "verify_s"},
    "simulate": E2E_ALL | {"simulate_s", "sim_slots_per_s"},
    "sweep": E2E_ALL | {"sweep_cells_per_s"},
    "files": E2E_ALL | {"solve_s", "simulate_s", "sim_slots_per_s", "gen_surface_s"},
}
LAYER_METRICS = {
    "surface.generate_s", "surface.generate_calls", "surface.load_s", "surface.load_mb_per_s",
    "surface.save_s", "surface.save_mb_per_s",
    "cycles.cost_table_s", "cycles.cost_table_calls", "cycles.lookups", "cycles.lookups_per_s",
    "solver.index_table_s", "solver.index_table_calls", "solver.solve_threshold_s",
    "solver.solve_threshold_self_s", "solver.iterations", "solver.g_value_s",
    "solver.g_value_calls", "solver.tau_opt_calls",
    "oracle.brute_force_s", "oracle.brute_force_self_s", "oracle.pairs", "oracle.pairs_per_s",
    "oracle.bellman_s", "oracle.bellman_self_s",
    "sim.run_s", "sim.run_calls", "sim.slots", "sim.slots_per_s", "sim.run_mean_s",
    "sim.clamps", "sim.transmissions", "sim.compare_s", "sim.compare_self_s",
    "sim.write_trace_s", "sim.write_tx_s", "sim.write_mb_per_s",
    "cli.solve_s", "cli.solve_self_s", "cli.verify_s", "cli.verify_self_s",
    "cli.simulate_s", "cli.simulate_self_s", "cli.sweep_s", "cli.sweep_self_s",
    "cli.gen_surface_s", "cli.gen_surface_self_s", "cli.stdout_bytes",
    "cli.verify_checks_failed", "trace.overhead_s",
}


def _run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """One tiny run: (last-line result, the result file it wrote)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_out",
                           f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return result, json.load(fh)


def _spans(workload: str, seed: int = 7) -> list[dict]:
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace1-spans.jsonl")
    with open(path) as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload, spec):
    result, full = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    for name in E2E_BY_WORKLOAD[workload] | {m["name"] for m in spec["end_to_end"]}:
        assert full["metrics"][name]["unit"], name
        assert full["metrics"][name]["n"] >= 1, name
    assert full["environment"]["seed"] == 7 and full["environment"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload, spec):
    first, full = _run(workload, trace=1)
    assert set(first["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    assert LAYER_METRICS <= set(full["metrics"])

    # the self times of each command's spans add up to its root span
    by_command = defaultdict(list)
    for span in _spans(workload):
        by_command[span["command"]].append(span)
    assert by_command
    for spans in by_command.values():
        (root,) = [s for s in spans if s["parent"] is None]
        assert root["name"].startswith("cli.")
        assert sum(s["self_s"] for s in spans) == pytest.approx(root["end"] - root["start"],
                                                                rel=1e-9, abs=1e-12)

    # program counts repeat exactly
    second, _ = _run(workload, trace=1)
    for name in ("solver.iterations", "sim.slots", "sim.clamps"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    if workload == "certify":
        # tau_opt is wrapped in solver too, where g makes two calls per value
        calls = {name: full["metrics"][f"solver.{name}_calls"]["value"]
                 for name in ("tau_opt", "g_value")}
        assert calls["tau_opt"] >= 2 * calls["g_value"] > 0


@pytest.fixture(scope="module")
def wl():
    """The workloads module, imported in-process."""
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def test_known_g_eps_is_bounded(wl, monkeypatch):
    """verify's rounding-size g_properties failure is known; a real concavity break is not."""
    from aoisched import SystemConfig, brute_force_optimal
    spec, config = "monotone_power:p1=1.5,p2=1.2", SystemConfig(3, 6, 30)
    result = wl.invoke("verify", ["--gen", spec] + wl._config_argv(3, 6, 30))
    assert wl.verify_failed_checks(result) == ["g_properties"]
    surface = wl._surface(spec, config)
    oracle = brute_force_optimal(surface, config)
    assert wl._check_verify(result, surface, config, oracle) == "known:g_eps"

    calls, g_value = [], wl.g_value

    def dented(*args, **kwargs):  # one interior grid value pushed down by 1
        calls.append(None)
        return g_value(*args, **kwargs) - (1.0 if len(calls) == 100 else 0.0)

    monkeypatch.setattr(wl, "g_value", dented)
    verdict = wl._check_verify(result, surface, config, oracle)
    assert verdict.startswith("verify: failed checks ['g_properties']; g_properties: midpoint")


def test_tie_excess_beyond_rounding_fails(wl):
    """A solve whose policy is worse than the optimum by more than rounding fails."""
    from aoisched import SystemConfig, brute_force_optimal
    spec, config = "nonmono_nonsep", SystemConfig(2, 3, 12)
    surface = wl._surface(spec, config)
    oracle = brute_force_optimal(surface, config)
    worst = divmod(int(oracle.table.argmax()), oracle.table.shape[1])
    payload = {"l_opt": oracle.best_avg_cost, "policy": {"tau1": worst[0], "tau2": worst[1]}}
    result = wl.Result("solve", [], 0, 0.0, json.dumps(payload), "")
    assert wl._check_solve(result, surface, config, oracle).startswith("solve: policy")


def test_refuses_without_sources():
    """Run from a directory holding only the benchmark: exit non-zero, print no result."""
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
