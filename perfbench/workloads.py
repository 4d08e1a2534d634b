"""The four workloads: seeded streams of real CLI commands, each with its output check.

An op is the workload's unit of work: one certified instance (``solve`` then
``verify``), one surface simulated under each policy, one ``sweep``, or one
file round trip (``gen-surface`` twice, ``solve`` from each file,
``simulate --out``).  Every
command runs in-process through ``aoisched.cli.main(argv,
standalone_mode=False)`` with stdout captured, so interpreter start-up and
imports are paid once, in set-up.  The program only ever sees CLI arguments
and the surface files the op itself writes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from aoisched import (CostTable, StationaryPolicy, SurfaceSpec, SystemConfig,
                      brute_force_optimal, build_index_table, g_value, generate_surface,
                      parse_generator_spec, required_domain, solve_threshold)
from aoisched.cli import main as cli_main

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
FAMILIES = ("constant", "aoi_sum", "aoi_weighted", "monotone_power", "nonmono_nonsep")
TOL = 1e-9  # the CLI's default --tol, which every command here uses

# Sizes.  "full" is what the benchmark measures; "tiny" exists for the smoke
# test and keeps every op well under a second.
SIZES = {
    "full": {
        # certify: shapes (t1, t2, tau_max) of about equal cost, the largest
        # grid (1661x1989) first; a run's ops then cost the same whatever
        # the seed and however many of them fit in the run
        "certify_shapes": ((6, 5, 329), (2, 8, 345), (7, 3, 345), (4, 4, 386), (3, 2, 420)),
        "simulate_horizon": 1_000_000,
        "sweep_horizon": 20_000,
        "sweep_tau": 30,
        "files_config": (2, 3, 195),
        "files_horizon": 200_000,
    },
    "tiny": {
        "certify_shapes": ((3, 3, 10), (2, 4, 12), (4, 2, 12), (3, 3, 12), (2, 2, 16)),
        "simulate_horizon": 4_000,
        "sweep_horizon": 400,
        "sweep_tau": 4,
        "files_config": (2, 3, 6),
        "files_horizon": 1_000,
    },
}

SIM_CONFIG = (2, 3, 50)  # grid 156x107: the solve costs milliseconds
SIM_POOL = (
    "constant:value=2.5",
    "aoi_sum",
    "aoi_weighted:w1=1.5,w2=0.5",
    "monotone_power:p1=1.3,p2=0.8",
    "nonmono_nonsep",
)
SIM_RAND_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
SWEEP_TIMES = "2,4,6,8,10"
RECORDED_PATH = os.path.join(HERE, "recorded_rand.json")


@dataclass
class Result:
    kind: str
    argv: list[str]
    code: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Op:
    label: str
    commands: list[tuple[str, list[str]]]
    # maps the op's results to one verdict per command: None when the output
    # checks out, else the reason it failed
    check: Callable[[list[Result]], list[str | None]]


def invoke(kind: str, argv: list[str]) -> Result:
    """Run one CLI command in-process; the returned seconds cover only the command."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            cli_main([kind] + argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed op, not a dead benchmark
            code = -1
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return Result(kind, argv, code, seconds, out.getvalue(), err.getvalue())


def _exit_failure(result: Result) -> str | None:
    if result.code == 0:
        return None
    return f"{result.kind} exited {result.code}: {result.stderr.strip()[-300:]}"


def _spec(rng: np.random.Generator, family: str) -> str:
    """Generator spec with parameters drawn over the ranges the CLI accepts."""
    u = lambda lo, hi: repr(round(float(rng.uniform(lo, hi)), 6))
    if family == "constant":
        return f"constant:value={u(-50.0, 50.0)}"
    if family == "aoi_sum":
        return "aoi_sum"
    if family == "aoi_weighted":
        return f"aoi_weighted:w1={u(0.05, 4.0)},w2={u(0.05, 4.0)}"
    if family == "monotone_power":
        return f"monotone_power:p1={u(0.0, 1.6)},p2={u(0.0, 1.6)}"
    return ("nonmono_nonsep:" + ",".join(f"{k}={u(lo, hi)}" for k, lo, hi in (
        ("base", -5.0, 5.0), ("a1", 0.0, 10.0), ("a2", 0.0, 5.0), ("cross", -3.0, 3.0),
        ("dip", 0.0, 3.0), ("s1", 1.0, 50.0), ("s2", 1.0, 80.0), ("p1", 2.0, 40.0),
        ("p2", 2.0, 40.0))))


def _surface(spec: str, config: SystemConfig):
    """The surface a `--gen spec` command builds for `config`."""
    name, params = parse_generator_spec(spec)
    return generate_surface(SurfaceSpec(name, *required_domain(config), params))


def _config_argv(t1: int, t2: int, tau_max: int) -> list[str]:
    return ["--t1", str(t1), "--t2", str(t2), "--tau-max", str(tau_max)]


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, work_dir: str):
        self.seed = seed
        self.size = SIZES[size]
        self.work_dir = work_dir

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# certify

class Certify(Workload):
    """solve then verify on a seeded panel of instances from all five families."""

    name = "certify"

    def ops(self):
        rng = np.random.default_rng([self.seed, 1])
        # nonmono_nonsep, whose generator allocates the most, on the largest grid
        families = FAMILIES[::-1]
        for (t1, t2, tau_max), family in itertools.cycle(zip(self.size["certify_shapes"],
                                                             families)):
            yield self._op(rng, t1, t2, tau_max, family)

    def _op(self, rng, t1, t2, tau_max, family):
        spec = _spec(rng, family)
        base = ["--gen", spec] + _config_argv(t1, t2, tau_max)
        verify_seed = str(int(rng.integers(0, 2**31)))
        config = SystemConfig(t1, t2, tau_max)

        def check(results):
            solve, verify = results
            surface = _surface(spec, config)
            oracle = brute_force_optimal(surface, config)
            return [_check_solve(solve, surface, config, oracle),
                    _check_verify(verify, surface, config, oracle)]

        return Op(f"{spec} t=({t1},{t2}) tau_max={tau_max}",
                  [("solve", base), ("verify", base + ["--seed", verify_seed])], check)


def _longest_cycle(config: SystemConfig) -> int:
    """Slots in the longest threshold cycle, (tau_max, tau_max): the most terms
    any cycle cost sums."""
    return (config.tau_max + 1) * (config.t1 + config.t2)


def _tie_excess(oracle, policy: StationaryPolicy) -> float:
    return float(oracle.table[policy.tau1, policy.tau2]) - oracle.best_avg_cost


def _tie_rounding(surface, config: SystemConfig) -> float:
    """Most that rounding can lift one policy's average cost over an exact tie.

    An average is a sum of at most n = _longest_cycle terms, each at most
    bound_m, over its length, so it is off by at most n * eps * bound_m; an
    excess compares two averages.
    """
    n = _longest_cycle(config)
    return 2.0 * checks.sum_rounding_bound(n, surface.bound_m) / n


def _check_solve(result: Result, surface, config: SystemConfig, oracle) -> str | None:
    failure = _exit_failure(result)
    if failure:
        return failure
    payload = json.loads(result.stdout)
    policy = StationaryPolicy(payload["policy"]["tau1"], payload["policy"]["tau2"])
    gap = abs(payload["l_opt"] - oracle.best_avg_cost)
    if gap > 10.0 * TOL:
        return f"solve: |l_opt - oracle best| = {gap!r} > 10 * tol"
    if not oracle.is_tie(policy):
        excess = _tie_excess(oracle, policy)
        if excess <= _tie_rounding(surface, config):
            return checks.known("tie_tol")
        return f"solve: policy {policy} is {excess!r} above the exhaustive-search optimum"
    return None


def verify_failed_checks(result: Result) -> list[str]:
    """Names of the checks a verify report marks as failed."""
    if result.code not in (0, 2):
        return []
    report = json.loads(result.stdout)
    return sorted(name for name, check in report["checks"].items() if not check["ok"])


def _g_rounding_only(report: dict, surface, config: SystemConfig) -> str | None:
    """None when verify's failed g_properties is rounding alone, else why it is not.

    Recomputes verify's beta grid of g (the same calls, so the same values)
    and bounds each g value's rounding error a priori.  g = cost - beta *
    length, and each side sums at most n = _longest_cycle terms of at most
    bound_m, so g's terms add up to at most 2 * n * bound_m in magnitude.  At
    the saturated end of the grid the two sides cancel, so ulps of |g| would
    be the wrong scale there.  A midpoint excess combines three g values, a
    sign excess one.
    """
    if not report["strictly_decreasing"]:
        return "g is not strictly decreasing"
    bound = surface.bound_m if surface.bound_m > 0 else 1.0
    costs = CostTable(surface, config)
    index_table = build_index_table(surface, config)
    g = np.array([g_value(surface, config, index_table, float(beta), costs=costs)
                  for beta in np.linspace(-bound, bound, report["grid_points"])])
    if [float(g[0]), float(g[-1])] != report["g_at_ends"]:
        return f"g at the grid ends {report['g_at_ends']} differs from a recomputation"
    per_value = checks.sum_rounding_bound(_longest_cycle(config), 2.0 * bound)
    concave_excess = float(np.max(0.5 * (g[:-2] + g[2:]) - g[1:-1]))
    sign_excess = max(-float(g[0]), float(g[-1]))
    if concave_excess > 2.0 * per_value or sign_excess > per_value:
        return (f"midpoint excess {concave_excess!r} or sign excess {sign_excess!r} is "
                f"beyond rounding ({per_value!r} per g value)")
    return None


def _check_verify(result: Result, surface, config: SystemConfig, oracle) -> str | None:
    if result.code == 0 and json.loads(result.stdout)["ok"]:
        return None
    if result.code != 2:
        return _exit_failure(result) or "verify: exit 0 but report.ok is false"
    report = json.loads(result.stdout)
    failed = verify_failed_checks(result)
    defects, reasons = [], []
    if "g_properties" in failed:
        reason = _g_rounding_only(report["checks"]["g_properties"], surface, config)
        if reason is None:
            defects.append("g_eps")
        else:
            reasons.append(f"g_properties: {reason}")
    if "solver_oracle" in failed:
        gap = report["checks"]["solver_oracle"]["gap"]
        policy = StationaryPolicy(report["policy"]["tau1"], report["policy"]["tau2"])
        excess = _tie_excess(oracle, policy)
        if gap <= 10.0 * TOL and excess <= _tie_rounding(surface, config):
            defects.append("tie_tol")
        else:
            reasons.append(f"solver_oracle: gap {gap!r}, policy excess {excess!r}")
    if len(defects) == len(failed):
        return checks.known(*defects)
    return f"verify: failed checks {failed}; " + "; ".join(reasons)


# ---------------------------------------------------------------------------
# simulate

def load_recorded() -> dict[str, float]:
    with open(RECORDED_PATH) as fh:
        return json.load(fh)


def recorded_key(spec: str, horizon: int, seed: int) -> str:
    t1, t2, tau_max = SIM_CONFIG
    return f"{spec}|t1={t1}|t2={t2}|tau_max={tau_max}|horizon={horizon}|seed={seed}"


class Simulate(Workload):
    """simulate without --out under index, rr and rand on a small instance, long horizons."""

    name = "simulate"

    def __init__(self, seed, size, work_dir):
        super().__init__(seed, size, work_dir)
        self.recorded = load_recorded()

    def ops(self):
        rng = np.random.default_rng([self.seed, 2])
        horizon = self.size["simulate_horizon"]
        t1, t2, tau_max = SIM_CONFIG
        config = SystemConfig(t1, t2, tau_max)
        # every op runs all three policies, whose costs differ, so ops are
        # alike and a run's median does not depend on where it stops
        for spec in itertools.cycle(SIM_POOL):
            seed = SIM_RAND_SEEDS[int(rng.integers(len(SIM_RAND_SEEDS)))]
            base = ["--gen", spec] + _config_argv(t1, t2, tau_max) + ["--horizon", str(horizon)]
            commands = [("simulate", base + ["--policy", "index"]),
                        ("simulate", base + ["--policy", "rr"]),
                        ("simulate", base + ["--policy", "rand", "--seed", str(seed)])]
            yield Op(f"{spec} rand seed {seed}", commands,
                     self._checker(spec, config, horizon, seed))

    def _checker(self, spec, config, horizon, seed):
        def check(results):
            return [self._check(result, spec, config, policy, horizon, seed)
                    for result, policy in zip(results, ("index", "rr", "rand"))]
        return check

    def _check(self, result, spec, config, policy, horizon, seed):
        failure = _exit_failure(result)
        if failure:
            return failure
        summary = json.loads(result.stdout)
        if policy == "rand":
            expected = self.recorded.get(recorded_key(spec, horizon, seed))
            if expected is None or summary["total_loss"] != expected:
                return (f"simulate rand: total_loss {summary['total_loss']!r} "
                        f"differs from the recorded {expected!r}")
            return None
        return _check_stationary(summary, _surface(spec, config).values, config, policy,
                                 horizon)


def _check_stationary(summary, grid, config, policy, horizon) -> str | None:
    tau1, tau2 = (summary["tau1"], summary["tau2"]) if policy == "index" else (0, 0)
    cycle = (tau1 + 1) * config.t1 + (tau2 + 1) * config.t2
    reference = checks.cycle_average(grid, config.t1, config.t2, tau1, tau2)
    slack = checks.stationary_slack(float(np.max(np.abs(grid))), cycle, horizon)
    err = abs(summary["avg_loss"] - reference)
    if err > slack:
        return f"simulate {policy}: |avg_loss - stationary| = {err!r} > slack {slack!r}"
    return None


# ---------------------------------------------------------------------------
# sweep

class Sweep(Workload):
    """One sweep --jobs 1 over t1, t2 in {2,4,6,8,10}: acceptance criterion 08's shape."""

    name = "sweep"

    def ops(self):
        # criterion 08's surface in every op keeps ops alike in cost (the
        # families' sweeps differ by up to a third); the seed draws the rand seeds
        rng = np.random.default_rng([self.seed, 3])
        while True:
            seeds = ",".join(str(int(s)) for s in rng.integers(0, 2**31, size=5))
            argv = ["--gen", "nonmono_nonsep", "--t1-list", SWEEP_TIMES, "--t2-list", SWEEP_TIMES,
                    "--tau-max", str(self.size["sweep_tau"]),
                    "--horizon", str(self.size["sweep_horizon"]),
                    "--seeds", seeds, "--jobs", "1"]
            yield Op(f"rand seeds {seeds}", [("sweep", argv)],
                     lambda results: [_check_sweep(results[0])])


def _check_sweep(result: Result) -> str | None:
    failure = _exit_failure(result)
    if failure:
        return failure
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for line in result.stdout.strip().splitlines()[1:]:
        t1, t2, policy, avg = line.split(",")[:4]
        cells.setdefault((t1, t2), {})[policy] = float(avg)
    if len(cells) != 25 or any(len(c) != 3 for c in cells.values()):
        return f"sweep: expected 25 cells of index,rr,rand, got {len(cells)}"
    for (t1, t2), c in sorted(cells.items()):
        if c["index"] > c["rr"] + 1e-9 or c["index"] > c["rand"] + 1e-9:
            return f"sweep: cell ({t1},{t2}) index {c['index']!r} loses to rr/rand {c}"
    return None


# ---------------------------------------------------------------------------
# files

class Files(Workload):
    """Surface files written and read back, and a simulate that writes its trace."""

    name = "files"

    def ops(self):
        rng = np.random.default_rng([self.seed, 4])
        t1, t2, tau_max = self.size["files_config"]
        config = SystemConfig(t1, t2, tau_max)
        horizon = self.size["files_horizon"]
        cfg = _config_argv(t1, t2, tau_max)
        # one family and one policy keep rounds alike in cost: the file sizes
        # follow the digits of the values, and rand simulates about 30% slower
        while True:
            spec = _spec(rng, "nonmono_nonsep")
            commands = [
                ("gen-surface", ["--gen", spec, "--fit-config"] + cfg + ["--out", "surface.csv"]),
                ("gen-surface", ["--gen", spec, "--fit-config"] + cfg + ["--out", "surface.json"]),
                ("solve", ["--surface", "surface.csv"] + cfg),
                ("solve", ["--surface", "surface.json"] + cfg),
                ("simulate", ["--surface", "surface.csv"] + cfg
                 + ["--policy", "index", "--horizon", str(horizon), "--out", "sim"]),
            ]
            yield Op(spec, commands, self._checker(spec, config, horizon))

    def _checker(self, spec, config, horizon):
        def check(results):
            try:
                return self._check(results, spec, config, horizon)
            finally:
                self.clean()
        return check

    def _check(self, results, spec, config, horizon):
        verdicts = [_exit_failure(r) for r in results]
        surface = _surface(spec, config)
        grid = surface.values
        path = lambda name: os.path.join(self.work_dir, name)
        if verdicts[0] is None and not checks.bitwise_equal(
                checks.parse_surface_csv(path("surface.csv")), grid):
            verdicts[0] = "gen-surface: surface.csv does not hold the generated grid bitwise"
        if verdicts[1] is None and not checks.bitwise_equal(
                checks.parse_surface_json(path("surface.json")), grid):
            verdicts[1] = "gen-surface: surface.json does not hold the generated grid bitwise"
        reference = solve_threshold(surface, config, TOL)
        for i in (2, 3):
            if verdicts[i] is None:
                l_opt = json.loads(results[i].stdout)["l_opt"]
                if l_opt != reference.l_opt:
                    verdicts[i] = (f"solve {results[i].argv[1]}: l_opt {l_opt!r} differs from "
                                   f"--gen {reference.l_opt!r}")
        if verdicts[4] is None:
            summary = json.loads(results[4].stdout)
            verdicts[4] = checks.check_sim_files(
                path(os.path.join("sim", "trace.csv")),
                path(os.path.join("sim", "transmissions.csv")),
                grid, config.t1, config.t2,
                lambda n: checks.threshold_schedule(summary["tau1"], summary["tau2"], n),
                summary["total_loss"])
            if verdicts[4] is None:
                verdicts[4] = _check_stationary(summary, grid, config, "index", horizon)
        return verdicts

    def clean(self):
        for name in os.listdir(self.work_dir):
            target = os.path.join(self.work_dir, name)
            if os.path.isdir(target):
                shutil.rmtree(target)
            else:
                os.remove(target)


WORKLOADS = {cls.name: cls for cls in (Certify, Simulate, Sweep, Files)}
