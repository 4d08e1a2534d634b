#!/usr/bin/env python3
"""Run each workload once per seed, untraced, and report each end-to-end metric's spread.

The spread is the distance between the first and third quartiles of a
metric's values (``statistics.quantiles(values, n=4)``), as a share of their
median; BENCHMARK.json bounds it.  The script makes two sets of runs of the
same code, interleaved in time (the second set runs each seed plus the
number of seeds), and reports how far the second set's medians are from the
first's: a benchmark whose bounds hold must see two such sets agree within
them.  The runs, their environment and the summary go to the output file:

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("# environment: "))
    return {"seed": seed, "wall_s": time.perf_counter() - start,
            "environment": json.loads(env[len("# environment: "):]),
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], metric: dict) -> dict:
    values = [run["result"]["metrics"][metric["name"]]["value"] for run in runs]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": metric["unit"], "bound": metric["bound"], "median": median,
            "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def agreement(first: dict, second: dict, metric: dict) -> dict:
    """How far the second set's median is from the first's, as a share of the first."""
    a, b = first["median"], second["median"]
    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    return {"medians": [a, b], "apart": abs(b - a) / a, "worse_by": worse,
            "bound": metric["bound"], "within": worse <= metric["bound"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: those in BENCHMARK.json)")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    runs = {(k, name): [] for k in range(SETS) for name in names}
    # seed by seed, each workload and each set in turn, so that slow and fast
    # phases of the machine fall on every set alike
    for seed in seeds:
        for name in names:
            for k in range(SETS):
                run = one_run(name, seed + k * len(seeds), spec["run_seconds"])
                runs[k, name].append(run)
                print(f"set {k} {name} {run['seed']} {json.dumps(run['result'])}", flush=True)

    report = {"run_seconds": spec["run_seconds"], "sets": []}
    for k in range(SETS):
        report["sets"].append({name: {
            "metrics": {m["name"]: summarize(runs[k, name], m) for m in spec["end_to_end"]},
            "max_wall_s": max(run["wall_s"] for run in runs[k, name]),
            "runs": runs[k, name],
        } for name in names})
        for name in names:
            for metric, s in report["sets"][k][name]["metrics"].items():
                print(f"set {k} {name:9s} {metric:12s} median {s['median']:.6g} {s['unit']}  "
                      f"spread {s['spread']:.4f}  bound {s['bound']}")
    first, second = report["sets"]
    report["agreement"] = {name: {
        m["name"]: agreement(first[name]["metrics"][m["name"]],
                             second[name]["metrics"][m["name"]], m)
        for m in spec["end_to_end"]} for name in names}
    for name, metrics in report["agreement"].items():
        for metric, a in metrics.items():
            print(f"A/A {name:9s} {metric:12s} medians {a['medians'][0]:.6g} "
                  f"{a['medians'][1]:.6g}  apart {a['apart']:.4f}  worse by "
                  f"{a['worse_by']:+.4f}  bound {a['bound']}  "
                  f"{'ok' if a['within'] else 'OUTSIDE'}")
    # outputs that fail their checks must not depend on the machine's speed:
    # both sets have to count the same failed commands, 0 when all is well
    for name in names:
        counts = [(sum(r["result"]["failed"] for r in runs[k, name]),
                   sum(r["result"]["attempted"] for r in runs[k, name])) for k in range(SETS)]
        report["agreement"][name]["failed"] = {"failed_attempted": counts,
                                               "within": counts[0][0] == counts[1][0]}
        print(f"A/A {name:9s} failed {counts[0][0]} of {counts[0][1]} and "
              f"{counts[1][0]} of {counts[1][1]}  "
              f"{'ok' if counts[0][0] == counts[1][0] else 'OUTSIDE'}")
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
