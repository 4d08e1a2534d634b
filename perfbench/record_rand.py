#!/usr/bin/env python3
"""Record the `rand` total_loss of every simulate-workload instance and seed.

The simulate workload checks each `rand` run against these values bitwise, so
they pin the simulator's output at the commit that recorded them.  Rerun this
only to extend the table (new pool entries, seeds or horizons), never to
absorb a change in the simulator's output:

    python3 perfbench/record_rand.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    t1, t2, tau_max = workloads.SIM_CONFIG
    recorded = {}
    for size in workloads.SIZES.values():
        horizon = size["simulate_horizon"]
        for spec in workloads.SIM_POOL:
            for seed in workloads.SIM_RAND_SEEDS:
                result = workloads.invoke("simulate", [
                    "--gen", spec, "--t1", str(t1), "--t2", str(t2), "--tau-max", str(tau_max),
                    "--policy", "rand", "--horizon", str(horizon), "--seed", str(seed)])
                if result.code != 0:
                    raise SystemExit(f"simulate failed: {result.stderr}")
                key = workloads.recorded_key(spec, horizon, seed)
                recorded[key] = json.loads(result.stdout)["total_loss"]
                print(key, recorded[key], flush=True)
    with open(workloads.RECORDED_PATH, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
