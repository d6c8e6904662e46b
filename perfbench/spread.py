"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1,2,3,4,5 [--seconds 30]

Runs the benchmark once per seed, one run after another, and prints for each
end-to-end metric its median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  The bounds
in BENCHMARK.json should sit well above these shares.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run([sys.executable, RUN, "--workload", args.workload, "--seed", seed,
                               "--seconds", args.seconds, "--trace", "0"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items())
              + f"  failed={line['failed']}/{line['attempted']}", flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    for k, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        print(f"{args.workload} {k}: median {statistics.median(vs):.6g}  iqr/median {(q3 - q1) / q2:.4f}"
              f"  (n={len(vs)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
