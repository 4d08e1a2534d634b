"""Command-line interface: solve, simulate, sweep, verify, gen-surface.

Every command that writes files also writes a ``manifest.json`` beside them
recording the tool version, the resolved arguments (as a rerunnable token
list, minus ``--out``), the surface digest, and the seeds involved.  All
output files are deterministic, so rerunning a manifest's argv with a fresh
``--out`` reproduces them byte for byte.

Exit codes: 0 success, 1 validation error (bad inputs, bad files), 2 check
failure (verify found a violated property).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
from datetime import datetime, timezone

import click
import numpy as np

from . import __version__
# CostTable and build_index_table are imported only so perfbench/tracing.py can wrap them here
from .cycles import (CostTable, Modality, StationaryPolicy, SystemConfig,
                     full_cycle_length)
from .errors import BadSpec, BracketError, OutOfDomain, SurfaceError
from .oracle import brute_force_optimal, verify_bellman
from .sim import (IndexThreshold, RoundRobin, UniformRandom, compare_policies,
                  run, write_trace_csv, write_transmissions_csv)
from .solver import build_index_table, g_value, solve_threshold, tau_opt
from .surface import (SurfaceSpec, generate_surface, load_surface,
                      parse_generator_spec, required_domain, save_surface)

_USAGE_ERRORS = (SurfaceError, BadSpec, OutOfDomain, BracketError, OSError, ValueError)


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    raise SystemExit(1)


def _fmt(value) -> str:
    """Token that parses back to the identical value (repr floats round-trip)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _digest(surface) -> str:
    payload = f"{surface.d1_max}x{surface.d2_max}:".encode() + surface.values.tobytes()
    return hashlib.sha256(payload).hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(_dump_json(obj))
        fh.write("\n")


def _write_manifest(directory, subcommand: str, argv: list[str], surface_sha256: str,
                    seeds: list[int], outputs: list[str], path=None) -> None:
    manifest = {
        "tool": "aoisched",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "argv": argv,
        "surface_sha256": surface_sha256,
        "seeds": seeds,
        "outputs": outputs,
    }
    target = path if path is not None else os.path.join(directory, "manifest.json")
    _write_json(manifest, target)


def _surface_options(fn):
    fn = click.option("--d2", type=int, default=None,
                      help="columns of a generated grid (default: fitted to the configuration)")(fn)
    fn = click.option("--d1", type=int, default=None,
                      help="rows of a generated grid (default: fitted to the configuration)")(fn)
    fn = click.option("--gen", "gen_spec", default=None, metavar="SPEC",
                      help="generator spec, e.g. aoi_sum, constant:3.0, nonmono_nonsep:dip=2")(fn)
    fn = click.option("--surface", "surface_path", default=None, metavar="PATH",
                      help="surface file (.csv with delta1,delta2,loss rows, or .json)")(fn)
    return fn


def _config_options(fn):
    fn = click.option("--tol", type=float, default=1e-9, show_default=True,
                      help="bisection tolerance on bracket width and residual")(fn)
    fn = click.option("--tau-max", type=int, default=50, show_default=True,
                      help="cap on consecutive same-modality runs")(fn)
    fn = click.option("--t2", type=int, required=True, help="transmission time of modality 2 (slots)")(fn)
    fn = click.option("--t1", type=int, required=True, help="transmission time of modality 1 (slots)")(fn)
    return fn


def _resolve_surface(surface_path, gen_spec, d1, d2, config):
    """Load or generate the instance surface.

    Returns (surface, argv_tokens, sha256).  Generated grids default to
    exactly the domain the configuration requires.
    """
    if (surface_path is None) == (gen_spec is None):
        _fail("exactly one of --surface or --gen is required")
    if surface_path is not None:
        surface = load_surface(surface_path)
        return surface, ["--surface", surface_path], _digest(surface)
    name, params = parse_generator_spec(gen_spec)
    d1_req, d2_req = required_domain(config)
    rows = d1 if d1 is not None else d1_req
    cols = d2 if d2 is not None else d2_req
    surface = generate_surface(SurfaceSpec(name, rows, cols, params))
    tokens = ["--gen", gen_spec, "--d1", str(rows), "--d2", str(cols)]
    return surface, tokens, _digest(surface)


def _config_tokens(config: SystemConfig, tol: float) -> list[str]:
    return ["--t1", str(config.t1), "--t2", str(config.t2),
            "--tau-max", str(config.tau_max), "--tol", _fmt(tol)]


@click.group()
@click.version_option(__version__, prog_name="aoisched")
def main():
    """Two-modality age-aware transmission scheduling toolkit."""


# ---------------------------------------------------------------------------
# solve

def _solution_payload(surface, config, tol, solution, surface_sha256):
    table = solution.index_table
    return {
        "l_opt": solution.l_opt,
        "policy": {"tau1": solution.policy.tau1, "tau2": solution.policy.tau2},
        "iterations": solution.iterations,
        "residual": solution.residual,
        "bracket": list(solution.bracket),
        "saturated": solution.saturated,
        "bound_m": surface.bound_m,
        "config": {"t1": config.t1, "t2": config.t2, "tau_max": config.tau_max, "tol": tol},
        "index": {
            "m1": {"gamma": list(table.gamma1), "witness_k": list(table.witness1)},
            "m2": {"gamma": list(table.gamma2), "witness_k": list(table.witness2)},
        },
        "surface_sha256": surface_sha256,
    }


@main.command()
@_surface_options
@_config_options
@click.option("--out", type=click.Path(), default=None,
              help="directory for solution.json and manifest.json")
def solve(surface_path, gen_spec, d1, d2, t1, t2, tau_max, tol, out):
    """Compute the optimal threshold policy and its average loss."""
    try:
        config = SystemConfig(t1, t2, tau_max)
        surface, surface_tokens, sha = _resolve_surface(surface_path, gen_spec, d1, d2, config)
        solution = solve_threshold(surface, config, tol)
        payload = _solution_payload(surface, config, tol, solution, sha)
    except _USAGE_ERRORS as exc:
        _fail(str(exc))
    click.echo(_dump_json(payload))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        _write_json(payload, os.path.join(out, "solution.json"))
        argv = ["solve"] + surface_tokens + _config_tokens(config, tol)
        _write_manifest(out, "solve", argv, sha, [], ["solution.json"])


# ---------------------------------------------------------------------------
# simulate

@main.command()
@_surface_options
@_config_options
@click.option("--policy", "policy_name", type=click.Choice(["index", "rr", "rand"]),
              required=True, help="scheduling policy to simulate")
@click.option("--horizon", type=int, required=True, help="slots to account in the summary")
@click.option("--warmup", type=int, default=0, show_default=True,
              help="extra leading slots excluded from the summary")
@click.option("--seed", type=int, default=0, show_default=True,
              help="random-policy seed (ignored otherwise)")
@click.option("--out", type=click.Path(), default=None,
              help="directory for trace.csv, transmissions.csv, summary.json, manifest.json")
def simulate(surface_path, gen_spec, d1, d2, t1, t2, tau_max, tol, policy_name,
             horizon, warmup, seed, out):
    """Simulate one policy and report its measured average loss."""
    try:
        config = SystemConfig(t1, t2, tau_max)
        surface, surface_tokens, sha = _resolve_surface(surface_path, gen_spec, d1, d2, config)
        if policy_name == "index":
            solution = solve_threshold(surface, config, tol)
            policy = IndexThreshold(solution.policy)
        elif policy_name == "rr":
            policy = RoundRobin()
        else:
            policy = UniformRandom(seed)
        trace = run(surface, config, policy, horizon, warmup=warmup)
    except _USAGE_ERRORS as exc:
        _fail(str(exc))
    summary = trace.summary.to_dict()
    click.echo(_dump_json(summary))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_trace_csv(trace, os.path.join(out, "trace.csv"))
        write_transmissions_csv(trace, os.path.join(out, "transmissions.csv"))
        _write_json(summary, os.path.join(out, "summary.json"))
        argv = (["simulate"] + surface_tokens + _config_tokens(config, tol)
                + ["--policy", policy_name, "--horizon", str(horizon),
                   "--warmup", str(warmup), "--seed", str(seed)])
        seeds = [seed] if policy_name == "rand" else []
        _write_manifest(out, "simulate", argv, sha, seeds,
                        ["trace.csv", "transmissions.csv", "summary.json"])


# ---------------------------------------------------------------------------
# sweep

def _sweep_cell(surface, t1, t2, tau_max, tol, horizon, seeds, policies):
    """One grid cell of a sweep; module-level so worker processes can import it."""
    config = SystemConfig(t1, t2, tau_max)
    comparison = compare_policies(surface, config, horizon, seeds=seeds,
                                  include=policies, tol=tol)
    rows = []
    for row in comparison.rows:
        rows.append({
            "t1": t1,
            "t2": t2,
            "policy": row.policy,
            "avg_loss": row.avg_loss,
            "clamp_count": row.clamp_count,
            "reduction_vs_rr": comparison.reductions.get("rr") if row.policy == "index" else None,
            "reduction_vs_rand": comparison.reductions.get("rand") if row.policy == "index" else None,
        })
    return rows


@main.command()
@_surface_options
@click.option("--t1-list", required=True, metavar="INTS", help="comma-separated t1 values")
@click.option("--t2-list", required=True, metavar="INTS", help="comma-separated t2 values")
@click.option("--tau-max", type=int, default=50, show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True)
@click.option("--policies", default="index,rr,rand", show_default=True,
              help="comma-separated subset of index,rr,rand")
@click.option("--seeds", default="1,2,3,4,5", show_default=True,
              help="seeds averaged for the random baseline")
@click.option("--horizon", type=int, default=20000, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True,
              help="worker processes for grid cells")
@click.option("--out", type=click.Path(), default=None,
              help="directory for sweep.csv and manifest.json (default: CSV to stdout)")
def sweep(surface_path, gen_spec, d1, d2, t1_list, t2_list, tau_max, tol, policies,
          seeds, horizon, jobs, out):
    """Compare policies over a grid of transmission-time pairs."""
    try:
        t1s = _parse_int_list(t1_list, "--t1-list")
        t2s = _parse_int_list(t2_list, "--t2-list")
        seed_list = tuple(_parse_int_list(seeds, "--seeds"))
        policy_list = tuple(p.strip() for p in policies.split(",") if p.strip())
        for p in policy_list:
            if p not in ("index", "rr", "rand"):
                raise ValueError(f"unknown policy {p!r} in --policies")
        if not policy_list:
            raise ValueError("--policies must name at least one policy")
        if jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {jobs}")
        # one surface serves every cell: size it for the largest requirement
        fit_config = SystemConfig(max(t1s), max(t2s), tau_max)
        surface, surface_tokens, sha = _resolve_surface(surface_path, gen_spec, d1, d2, fit_config)
        cells = sorted((a, b) for a in set(t1s) for b in set(t2s))
        args = [(surface, a, b, tau_max, tol, horizon, seed_list, policy_list)
                for a, b in cells]
        if jobs == 1:
            results = [_sweep_cell(*a) for a in args]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_sweep_cell, *zip(*args)))
    except _USAGE_ERRORS as exc:
        _fail(str(exc))

    order = {name: i for i, name in enumerate(("index", "rr", "rand"))}
    rows = [row for cell_rows in results for row in cell_rows]
    rows.sort(key=lambda r: (r["t1"], r["t2"], order[r["policy"]]))
    lines = ["t1,t2,policy,avg_loss,clamp_count,reduction_vs_rr,reduction_vs_rand"]
    for r in rows:
        red_rr = "" if r["reduction_vs_rr"] is None else repr(r["reduction_vs_rr"])
        red_rand = "" if r["reduction_vs_rand"] is None else repr(r["reduction_vs_rand"])
        lines.append(f"{r['t1']},{r['t2']},{r['policy']},{repr(r['avg_loss'])},"
                     f"{r['clamp_count']},{red_rr},{red_rand}")
    text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "sweep.csv"), "w") as fh:
            fh.write(text)
        argv = (["sweep"] + surface_tokens
                + ["--t1-list", ",".join(str(v) for v in t1s),
                   "--t2-list", ",".join(str(v) for v in t2s),
                   "--tau-max", str(tau_max), "--tol", _fmt(tol),
                   "--policies", ",".join(policy_list),
                   "--seeds", ",".join(str(s) for s in seed_list),
                   "--horizon", str(horizon), "--jobs", str(jobs)])
        _write_manifest(out, "sweep", argv, sha, list(seed_list), ["sweep.csv"])


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


# ---------------------------------------------------------------------------
# verify

def _check_g_properties(surface, config, costs, index_table, grid_points):
    bound = surface.bound_m if surface.bound_m > 0 else 1.0
    betas = np.linspace(-bound, bound, grid_points)
    values = [g_value(surface, config, index_table, float(b), costs=costs) for b in betas]
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    strictly_decreasing = all(d < 0 for d in diffs)
    # a priori rounding of one g value, cost - beta * length: at most n terms,
    # n the longest cycle, of total magnitude 2 * n * bound; a midpoint has three
    n = full_cycle_length(config, StationaryPolicy(config.tau_max, config.tau_max))
    eps = n * float(np.finfo(np.float64).eps) * n * 2.0 * bound
    concave = all(
        values[i] >= 0.5 * (values[i - 1] + values[i + 1]) - 2.0 * eps
        for i in range(1, len(values) - 1)
    )
    sign_ok = values[0] >= -eps and values[-1] <= eps
    return {
        "ok": bool(strictly_decreasing and concave and sign_ok),
        "strictly_decreasing": bool(strictly_decreasing),
        "midpoint_concave": bool(concave),
        "single_sign_change": bool(sign_ok),
        "grid_points": grid_points,
        "g_at_ends": [values[0], values[-1]],
    }


def _check_threshold_minimizer(surface, config, costs, index_table, seed, n_betas):
    rng = np.random.default_rng(seed)
    bound = surface.bound_m if surface.bound_m > 0 else 1.0
    mismatches = []
    for modality in (Modality.M1, Modality.M2):
        gammas = index_table.gamma(modality)
        if gammas:
            lo, hi = min(gammas) - 1.0, max(gammas) + 1.0
        else:
            lo, hi = -bound - 1.0, bound + 1.0
        betas = np.append(rng.uniform(lo, hi, size=n_betas),
                          [lo - 1.0, hi + 1.0])  # force the unconstrained and saturated cases
        slots = np.arange(config.tau_max + 1) * config.transmission_time(modality)
        cost = np.asarray(costs.c1 if modality is Modality.M1 else costs.c2)
        enumerated = np.argmin(cost - slots * betas[:, None], axis=1).tolist()
        for beta, enum in zip(betas.tolist(), enumerated):
            fast = tau_opt(index_table, config, modality, beta)
            if enum != fast:
                mismatches.append({"modality": int(modality), "beta": beta,
                                   "enumerated": enum, "threshold": fast})
    return {
        "ok": not mismatches,
        "betas_per_modality": n_betas + 2,
        "mismatches": mismatches[:5],
    }


@main.command()
@_surface_options
@_config_options
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for the sampled-beta threshold check")
@click.option("--betas", "n_betas", type=int, default=50, show_default=True,
              help="random betas per modality in the threshold check")
@click.option("--grid", "grid_points", type=int, default=200, show_default=True,
              help="beta grid size for the balance-function shape check")
@click.option("--inject-perturb", type=float, default=0.0, show_default=True,
              help="testing hook: offset added to l_opt before certification")
@click.option("--out", type=click.Path(), default=None,
              help="directory for report.json and manifest.json")
def verify(surface_path, gen_spec, d1, d2, t1, t2, tau_max, tol, seed, n_betas,
           grid_points, inject_perturb, out):
    """Cross-check the solver: oracle search, Bellman certificate, shape properties."""
    try:
        if grid_points < 2:
            raise ValueError(f"--grid must be >= 2, got {grid_points}")
        if n_betas < 0:
            raise ValueError(f"--betas must be >= 0, got {n_betas}")
        config = SystemConfig(t1, t2, tau_max)
        surface, surface_tokens, sha = _resolve_surface(surface_path, gen_spec, d1, d2, config)
        solution = solve_threshold(surface, config, tol)
        l_checked = solution.l_opt + inject_perturb

        oracle = brute_force_optimal(surface, config)
        gap = abs(l_checked - oracle.best_avg_cost)
        checks = {
            "solver_oracle": {
                "ok": bool(gap <= 10.0 * tol and oracle.is_tie(solution.policy)),
                "l_opt": l_checked,
                "oracle_best": oracle.best_avg_cost,
                "gap": gap,
                "policy_in_tie_set": bool(oracle.is_tie(solution.policy)),
                "oracle_policy": {"tau1": oracle.best_policy.tau1,
                                  "tau2": oracle.best_policy.tau2},
            },
            "bellman": verify_bellman(surface, config, solution.policy, l_checked).to_dict(),
            "g_properties": _check_g_properties(surface, config, solution.costs,
                                                solution.index_table, grid_points),
            "threshold_minimizer": _check_threshold_minimizer(surface, config, solution.costs,
                                                              solution.index_table,
                                                              seed, n_betas),
        }
    except _USAGE_ERRORS as exc:
        _fail(str(exc))

    ok = all(c["ok"] for c in checks.values())
    report = {
        "ok": ok,
        "policy": {"tau1": solution.policy.tau1, "tau2": solution.policy.tau2},
        "l_opt": solution.l_opt,
        "inject_perturb": inject_perturb,
        "config": {"t1": config.t1, "t2": config.t2, "tau_max": config.tau_max, "tol": tol},
        "surface_sha256": sha,
        "checks": checks,
    }
    click.echo(_dump_json(report))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        _write_json(report, os.path.join(out, "report.json"))
        argv = (["verify"] + surface_tokens + _config_tokens(config, tol)
                + ["--seed", str(seed), "--betas", str(n_betas),
                   "--grid", str(grid_points), "--inject-perturb", _fmt(inject_perturb)])
        _write_manifest(out, "verify", argv, sha, [seed], ["report.json"])
    if not ok:
        raise SystemExit(2)


# ---------------------------------------------------------------------------
# gen-surface

@main.command("gen-surface")
@click.option("--gen", "gen_spec", required=True, metavar="SPEC",
              help="generator spec, e.g. aoi_sum or monotone_power:1.5,2.0")
@click.option("--d1", type=int, default=None, help="grid rows")
@click.option("--d2", type=int, default=None, help="grid columns")
@click.option("--fit-config", is_flag=True,
              help="size the grid to the domain required by --t1/--t2/--tau-max")
@click.option("--t1", type=int, default=None)
@click.option("--t2", type=int, default=None)
@click.option("--tau-max", type=int, default=50, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="output surface file")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
              help="file format (default: by extension, else csv)")
def gen_surface(gen_spec, d1, d2, fit_config, t1, t2, tau_max, out, fmt):
    """Generate a surface file from a spec."""
    try:
        name, params = parse_generator_spec(gen_spec)
        if fit_config:
            if t1 is None or t2 is None:
                raise ValueError("--fit-config requires --t1 and --t2")
            d1_req, d2_req = required_domain(SystemConfig(t1, t2, tau_max))
            rows = max(d1_req, d1 or 0)
            cols = max(d2_req, d2 or 0)
        else:
            if d1 is None or d2 is None:
                raise ValueError("either --fit-config or both --d1 and --d2 are required")
            rows, cols = d1, d2
        surface = generate_surface(SurfaceSpec(name, rows, cols, params))
        if fmt is None:
            fmt = "json" if str(out).endswith(".json") else "csv"
        save_surface(surface, out, fmt)
    except _USAGE_ERRORS as exc:
        _fail(str(exc))
    argv = ["gen-surface", "--gen", gen_spec, "--d1", str(rows), "--d2", str(cols),
            "--format", fmt]
    _write_manifest(None, "gen-surface", argv, _digest(surface), [],
                    [os.path.basename(str(out))], path=str(out) + ".manifest.json")
    click.echo(f"wrote {rows}x{cols} surface to {out}")


if __name__ == "__main__":
    main()
