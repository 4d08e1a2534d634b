#!/usr/bin/env python3
"""aoisched benchmark: real CLI commands, timed end to end, with an optional traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures for ``--seconds`` seconds of command time, closed loop
with one client, and reports the end-to-end metrics.  ``--trace 1`` runs each op
of a fixed list both untraced and traced, and reports the per-layer metrics
and the tracing overhead.  ``--workload all`` runs each workload in
its own fresh process.  Every output is checked outside the timed region.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the names listed in BENCHMARK.json for the chosen mode).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("certify", "simulate", "sweep", "files")
# set-ups per untraced run: this process plus SETUP_SAMPLES - 1 fresh ones,
# spread over the run so that the median spans its slow and fast phases
SETUP_SAMPLES = 9
WALL_LIMIT_S = 150.0  # stop starting ops past this, so a run ends within 180 s
# rough op cost at the "full" size, used only to size the traced run's fixed
# op list to about --seconds / 2 per pass
TRACE_OP_S = {"certify": 1.6, "simulate": 4.8, "sweep": 4.5, "files": 3.0}
CHECK_NAMES = ("solver_oracle", "bellman", "g_properties", "threshold_minimizer")


def setup(workload: str, seed: int, size: str, work_dir: str):
    """Import aoisched and build the workload's seeded op stream.  Returns (workload, seconds)."""
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads  # imports numpy and aoisched
    os.makedirs(work_dir, exist_ok=True)
    wl = workloads.WORKLOADS[workload](seed, size, work_dir)
    return wl, time.perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of a fresh process doing this run's set-up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def percentile_tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it (needs 11 samples)."""
    n = len(values)
    if n < 11:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def environment(args) -> dict:
    import importlib.metadata
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


class Ledger:
    """Every command run, with its verdict."""

    def __init__(self):
        self.rows = []  # (pass name, op index, Result, verdict)

    def run_op(self, op, index: int, pass_name: str, invoke, tracer=None):
        results = []
        for kind, argv in op.commands:
            if tracer is None:
                results.append(invoke(kind, argv))
            else:
                with tracer.command(kind):
                    results.append(invoke(kind, argv))
        try:
            verdicts = op.check(results)
        except Exception as exc:  # a check that cannot read the output fails the op
            verdicts = [f"check raised {type(exc).__name__}: {exc}"] * len(results)
        for result, verdict in zip(results, verdicts):
            self.rows.append((pass_name, index, result, verdict))
        return results

    def of(self, pass_name: str):
        return [row for row in self.rows if row[0] == pass_name]


def reference_loop(n: int = 480_000) -> float:
    """Seconds taken by a fixed loop that runs no aoisched code.

    It does what the program's hot loops do, scalar numpy indexing through a
    method call, float adds and float formatting, so its time follows the
    machine's speed of the moment (about 0.2 s on the reference machine).
    """
    import numpy as np  # imported by the set-up already, so not timed in setup_s twice
    values = np.arange(97 * 89, dtype=np.float64).reshape(97, 89) * 0.37

    def lookup(d1, d2):
        return float(values[d1 - 1, d2 - 1])

    start = time.perf_counter()
    total = 0.0
    for i in range(n):
        total += lookup(i % 97 + 1, i % 89 + 1)
    for i in range(n // 6):
        total += float(repr(total / (i + 1)))
    return time.perf_counter() - start


def measure(wl, ledger: Ledger, seconds: float, invoke, probe) -> list[float]:
    """Closed loop: run ops until their command time reaches `seconds`.

    Runs the reference loop before the first op and after each op, outside
    the timed region, so that every op sits between two reference times;
    returns them.  Calls `probe()` after each op's reference loop,
    SETUP_SAMPLES - 1 times in all; any left over run after the last op.
    """
    timed = 0.0
    probes = SETUP_SAMPLES - 1
    refs = [reference_loop()]
    wall_start = time.perf_counter()
    for index, op in enumerate(wl.ops()):
        results = ledger.run_op(op, index, "measure", invoke)
        refs.append(reference_loop())
        timed += sum(r.seconds for r in results)
        if probes:
            probe()
            probes -= 1
        if timed >= seconds or time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    for _ in range(probes):
        probe()
    return refs


def end_to_end(ledger: Ledger, setups: list[float], refs: list[float], wl) -> dict:
    """Every end-to-end metric: name -> (value, unit, sample count, tail)."""
    rows = ledger.of("measure")
    ops: dict[int, float] = {}
    for _, index, result, _ in rows:
        ops[index] = ops.get(index, 0.0) + result.seconds
    op_times = list(ops.values())
    # each op's time in units of the reference loop run just before and after it
    op_refs = [ops[i] / (0.5 * (refs[i] + refs[i + 1])) for i in sorted(ops)]
    timed = sum(op_times)
    by_kind: dict[str, list] = {}
    for _, _, result, _ in rows:
        by_kind.setdefault(result.kind, []).append(result)
    failed = sum(1 for row in rows if row[3] is not None)

    def entry(value, unit, samples, values=None):
        return {"value": value, "unit": unit, "n": samples,
                "tail": percentile_tail(values) if values else None}

    out = {
        "setup_s": entry(statistics.median(setups), "s", len(setups), setups),
        "op_median_s": entry(statistics.median(op_times), "s", len(op_times), op_times),
        "ops_per_s": entry(len(op_times) / timed, "1/s", len(op_times)),
        "ops_per_ref": entry(1.0 / statistics.median(op_refs), "1/ref", len(op_refs)),
        "ref_s": entry(statistics.median(refs), "s", len(refs), refs),
        "peak_rss_mb": entry(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "ops_failed_frac": entry(failed / len(rows), "fraction", len(rows)),
    }
    for kind, metric in (("solve", "solve_s"), ("verify", "verify_s"),
                         ("simulate", "simulate_s"), ("gen-surface", "gen_surface_s")):
        if kind in by_kind:
            times = [r.seconds for r in by_kind[kind]]
            out[metric] = entry(statistics.median(times), "s", len(times), times)
            # files mixes formats; a median over a two-mode mix is unstable
            for fmt in ("csv", "json"):
                split = [r.seconds for r in by_kind[kind]
                         if any(a.endswith("." + fmt) for a in r.argv)]
                if split and len(split) < len(times):
                    out[f"{metric[:-2]}_{fmt}_s"] = entry(statistics.median(split), "s",
                                                          len(split), split)
    if wl.name == "certify":
        out["certify_per_s"] = entry(len(op_times) / timed, "instances/s", len(op_times))
    if "simulate" in by_kind:
        sims = by_kind["simulate"]
        slots = sum(int(r.argv[r.argv.index("--horizon") + 1]) for r in sims)
        out["sim_slots_per_s"] = entry(slots / sum(r.seconds for r in sims), "slots/s", len(sims))
    if "sweep" in by_kind:
        sweeps = by_kind["sweep"]
        cells = 25 * len(sweeps)
        out["sweep_cells_per_s"] = entry(cells / sum(r.seconds for r in sweeps), "cells/s",
                                         len(sweeps))
    return out


def per_layer(tracer, ledger: Ledger, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric: name -> (value, unit), totals over the traced pass."""
    from tracing import summarize
    totals = summarize(tracer.spans)

    def get(name, key="s"):
        entry = totals.get(name)
        if entry is None:
            return 0 if key == "calls" else 0.0
        return entry[key]

    def count(name, key):
        entry = totals.get(name)
        return int(entry["counts"].get(key, 0)) if entry else 0

    def rate(numerator, seconds):
        return numerator / seconds if seconds > 0 else 0.0

    mb = 1024.0 * 1024.0
    m = {}
    m["surface.generate_s"] = (get("surface.generate"), "s")
    m["surface.generate_calls"] = (get("surface.generate", "calls"), "count")
    m["surface.load_s"] = (get("surface.load"), "s")
    m["surface.load_calls"] = (get("surface.load", "calls"), "count")
    m["surface.load_mb_per_s"] = (rate(count("surface.load", "bytes") / mb, get("surface.load")), "MB/s")
    m["surface.save_s"] = (get("surface.save"), "s")
    m["surface.save_calls"] = (get("surface.save", "calls"), "count")
    m["surface.save_mb_per_s"] = (rate(count("surface.save", "bytes") / mb, get("surface.save")), "MB/s")
    m["cycles.cost_table_s"] = (get("cycles.cost_table"), "s")
    m["cycles.cost_table_calls"] = (get("cycles.cost_table", "calls"), "count")
    m["cycles.lookups"] = (count("cycles.cost_table", "lookups"), "count")
    m["cycles.lookups_per_s"] = (rate(count("cycles.cost_table", "lookups"), get("cycles.cost_table")), "1/s")
    m["solver.index_table_s"] = (get("solver.index_table"), "s")
    m["solver.index_table_calls"] = (get("solver.index_table", "calls"), "count")
    m["solver.solve_threshold_s"] = (get("solver.solve_threshold"), "s")
    m["solver.solve_threshold_self_s"] = (get("solver.solve_threshold", "self_s"), "s")
    m["solver.solve_threshold_calls"] = (get("solver.solve_threshold", "calls"), "count")
    m["solver.iterations"] = (count("solver.solve_threshold", "iterations"), "count")
    m["solver.g_value_s"] = (get("solver.g_value"), "s")
    m["solver.g_value_calls"] = (get("solver.g_value", "calls"), "count")
    m["solver.tau_opt_calls"] = (get("solver.tau_opt", "calls"), "count")
    m["oracle.brute_force_s"] = (get("oracle.brute_force"), "s")
    m["oracle.brute_force_self_s"] = (get("oracle.brute_force", "self_s"), "s")
    m["oracle.brute_force_calls"] = (get("oracle.brute_force", "calls"), "count")
    m["oracle.pairs"] = (count("oracle.brute_force", "pairs"), "count")
    m["oracle.pairs_per_s"] = (rate(count("oracle.brute_force", "pairs"),
                                    get("oracle.brute_force", "self_s")), "1/s")
    m["oracle.bellman_s"] = (get("oracle.bellman"), "s")
    m["oracle.bellman_self_s"] = (get("oracle.bellman", "self_s"), "s")
    m["oracle.bellman_calls"] = (get("oracle.bellman", "calls"), "count")
    m["sim.run_s"] = (get("sim.run"), "s")
    m["sim.run_calls"] = (get("sim.run", "calls"), "count")
    m["sim.run_mean_s"] = (rate(get("sim.run"), get("sim.run", "calls")), "s")
    m["sim.slots"] = (count("sim.run", "slots"), "count")
    m["sim.slots_per_s"] = (rate(count("sim.run", "slots"), get("sim.run")), "1/s")
    m["sim.clamps"] = (count("sim.run", "clamps"), "count")
    m["sim.transmissions"] = (count("sim.run", "transmissions"), "count")
    m["sim.compare_s"] = (get("sim.compare"), "s")
    m["sim.compare_self_s"] = (get("sim.compare", "self_s"), "s")
    m["sim.write_trace_s"] = (get("sim.write_trace"), "s")
    m["sim.write_tx_s"] = (get("sim.write_tx"), "s")
    m["sim.write_calls"] = (get("sim.write_trace", "calls") + get("sim.write_tx", "calls"), "count")
    written = count("sim.write_trace", "bytes") + count("sim.write_tx", "bytes")
    m["sim.write_mb_per_s"] = (rate(written / mb, get("sim.write_trace") + get("sim.write_tx")), "MB/s")
    roots = [name for name in totals if name.startswith("cli.")]
    for kind in ("solve", "verify", "simulate", "sweep", "gen-surface"):
        key = kind.replace("-", "_")
        m[f"cli.{key}_s"] = (get(f"cli.{kind}"), "s")
        m[f"cli.{key}_self_s"] = (get(f"cli.{kind}", "self_s"), "s")
    m["cli.self_s"] = (sum(totals[name]["self_s"] for name in roots), "s")
    m["cli.commands"] = (sum(totals[name]["calls"] for name in roots), "count")
    traced = [row[2] for row in ledger.of("traced")]
    m["cli.stdout_bytes"] = (sum(len(r.stdout.encode()) for r in traced), "count")
    from workloads import verify_failed_checks
    failed_checks = [name for r in traced if r.kind == "verify" for name in verify_failed_checks(r)]
    m["cli.verify_checks_failed"] = (len(failed_checks), "count")
    for name in CHECK_NAMES:
        m[f"cli.verify_checks_failed.{name}"] = (failed_checks.count(name), "count")
    m["trace.untraced_s"] = (untraced_s, "s")
    m["trace.traced_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "fraction")
    return m


def trace_run(wl, ledger: Ledger, seconds: float, size: str, invoke):
    """The fixed op list, each op untraced and traced.  Returns (tracer, traced_s, untraced_s).

    The two modes alternate which runs first, op by op, so that warm-up and
    drift in machine speed fall on both sides of the overhead alike.
    """
    from tracing import Tracer
    per_op = TRACE_OP_S[wl.name] if size == "full" else 1.0
    n_ops = max(1, round(seconds / 2.0 / per_op))
    tracer = Tracer()
    totals = {"untraced": 0.0, "traced": 0.0}
    for index, op in enumerate(itertools.islice(wl.ops(), n_ops)):
        for mode in (("untraced", "traced") if index % 2 == 0 else ("traced", "untraced")):
            if mode == "traced":
                with tracer.installed():
                    results = ledger.run_op(op, index, mode, invoke, tracer)
            else:
                results = ledger.run_op(op, index, mode, invoke)
            totals[mode] += sum(r.seconds for r in results)
    return tracer, totals["traced"], totals["untraced"]


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "aoisched", "cli.py")):
        print(f"error: no aoisched sources under {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    wl, first_setup = setup(args.workload, args.seed, args.size, work_dir)
    from checks import KNOWN_DEFECTS, is_known
    from workloads import invoke
    setups = [first_setup]
    try:
        ledger = Ledger()
        os.chdir(work_dir)  # file commands use paths relative to the work directory
        try:
            if args.trace:
                tracer, traced_s, untraced_s = trace_run(wl, ledger, args.seconds, args.size, invoke)
            else:
                refs = measure(wl, ledger, args.seconds, invoke,
                               lambda: setups.append(setup_probe(args)))
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [row for row in ledger.rows if row[3] is not None]
    unknown = [row for row in failures if not is_known(row[3])]
    env = environment(args)
    if args.trace:
        metrics = per_layer(tracer, ledger, traced_s, untraced_s)
        table = {name: {"value": v, "unit": u, "n": None, "tail": None}
                 for name, (v, u) in metrics.items()}
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        table = end_to_end(ledger, setups, refs, wl)
        wanted = [m["name"] for m in spec["end_to_end"]]

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for name in sorted(table):
        e = table[name]
        n = "" if e["n"] is None else f"  n={e['n']}"
        tail = "" if not e["tail"] else f"  {e['tail'][0]}={e['tail'][1]:.6g}"
        print(f"{name:40s} {e['value']:.6g} {e['unit']}{n}{tail}")
    attempted = len(ledger.rows)
    # `failed` in the result line counts wrong outputs only; a known false
    # failure is a command whose output checks out, so it counts in
    # ops_failed_frac and in the lines below, not there
    print(f"# commands attempted={attempted} failed={len(unknown)} "
          f"known false failures={len(failures) - len(unknown)}")
    for key, why in KNOWN_DEFECTS.items():
        hits = sum(1 for row in failures if is_known(row[3]) and key in row[3].split(":")[1])
        if hits:
            print(f"# known false failure {key} x{hits}: {why}")
    for _, index, result, verdict in unknown[:10]:
        print(f"# FAILED op {index} {result.kind} {' '.join(result.argv)}: {verdict}")

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({"environment": env, "metrics": table, "setup_samples": setups,
                   "failures": [[i, r.kind, r.argv, v] for _, i, r, v in failures]},
                  fh, indent=1)
    if args.trace:
        with open(os.path.join(out_dir, stem + "-spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    missing = [name for name in wanted if name not in table]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not unknown,
        "attempted": attempted,
        "failed": len(unknown),
        "metrics": {name: {"value": table[name]["value"], "unit": table[name]["unit"]}
                    for name in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; metrics are prefixed with the workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every instance; for the smoke test only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        work_dir = os.path.join(ROOT, ".perfbench_work", f"probe-{os.getpid()}")
        try:
            _, seconds = setup(args.workload, args.seed, args.size, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(seconds)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
