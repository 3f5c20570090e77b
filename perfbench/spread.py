#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per seed (run_seconds from BENCHMARK.json) and
prints, per metric, the median, the quartile spread as a share of the median
(Python's statistics.quantiles(values, n=4)), and the metric's bound.  Runs
from the root of a source checkout, like run.py.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':32} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:32} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}  "
              f"{' '.join(f'{v:.6g}' for v in vs)}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
